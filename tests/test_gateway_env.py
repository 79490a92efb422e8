from collections import Counter
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from edgeids.agent import ActionId
from edgeids.features import features_matrix
from edgeids import gateway_env as env
from edgeids.gateway_env import (
    AttackScenario,
    EdgeGatewayEnv,
    EnvConfig,
    FlowBatch,
    FlowRecord,
    MitigationState,
    apply_mitigation,
    blacklist_update,
    generate_step_traffic,
    rate_threshold_flagger,
    resource_model,
    source_attack_probability,
)
from flow_reference import ack_packets, syn_packets


def flow(src="b000", pkts=10, syn_only=False, label="benign", protocol="tcp",
         duration=1.0, bytes_per_pkt=100):
    flags = env.FLAG_SYN if syn_only else (env.FLAG_SYN | env.FLAG_ACK)
    if protocol == "udp":
        flags = 0
    return FlowRecord(src, pkts, pkts * bytes_per_pkt, duration,
                      pkts if syn_only else max(pkts // 2, 1),
                      0 if syn_only else pkts - max(pkts // 2, 1),
                      flags, label, protocol)


def total_pkts(flows):
    return sum(f.pkts_total for f in flows)


# ---------------------------------------------------------------------------
# traffic generation
# ---------------------------------------------------------------------------

def test_no_attack_all_benign():
    cfg = EnvConfig(attacks=[])
    flows = generate_step_traffic(cfg, 0, np.random.default_rng(0))
    assert flows and all(f.label == "benign" for f in flows)


def test_syn_flood_packet_count_poisson():
    cfg = EnvConfig(attacks=[AttackScenario("syn_flood", 1000.0, 0, 10)])
    counts = []
    rng = np.random.default_rng(1)
    for step in range(60):
        flows = generate_step_traffic(cfg, step % 10, rng)
        counts.append(sum(f.pkts_total for f in flows if f.label == "attack"))
    mean = np.mean(counts)
    # Poisson(1000): sample mean over 60 steps within 3 sigma of 1000
    assert abs(mean - 1000.0) <= 3 * np.sqrt(1000.0 / 60)


def test_traffic_deterministic_for_seed():
    cfg = EnvConfig(attacks=[AttackScenario("syn_flood", 5000.0, 0, 5)])
    a = generate_step_traffic(cfg, 1, np.random.default_rng(42))
    b = generate_step_traffic(cfg, 1, np.random.default_rng(42))
    assert list(a) == list(b)


def test_flow_invariants_hold():
    cfg = EnvConfig(attacks=[AttackScenario("zero_day_mix", 3000.0, 0, 50)])
    rng = np.random.default_rng(2)
    for step in range(50):
        for f in generate_step_traffic(cfg, step, rng):
            assert f.pkts_in + f.pkts_out == f.pkts_total
            assert f.bytes_total >= f.pkts_total
            assert f.duration >= 0


def test_attack_scenario_validation():
    with pytest.raises(ValueError):
        AttackScenario("syn_flood", 100.0, 10, 5)
    with pytest.raises(ValueError):
        AttackScenario("tsunami", 100.0, 0, 5)
    with pytest.raises(ValueError):
        AttackScenario("udp_flood", -5.0, 0, 5)


# ---------------------------------------------------------------------------
# mitigation
# ---------------------------------------------------------------------------

def test_no_mitigation_is_identity():
    flows = [flow(pkts=10), flow(src="b001", pkts=20)]
    passed, dropped = apply_mitigation(FlowBatch.from_records(flows), MitigationState(),
                                       np.random.default_rng(0))
    assert list(passed) == flows and len(dropped) == 0


@pytest.mark.parametrize("flagged", [False, True])
def test_no_control_passes_every_flow_and_draws_nothing(flagged):
    cfg = EnvConfig(attacks=[AttackScenario("zero_day_mix", 3000.0, 0, 5)])
    batch = generate_step_traffic(cfg, 1, np.random.default_rng(5))
    assert len(batch) > 0
    # flags reach nothing while the drop filter is off
    flags = np.full(len(batch), flagged)
    rng = np.random.default_rng(6)
    state = rng.bit_generator.state
    passed, dropped = apply_mitigation(batch, MitigationState(), rng, flags)
    assert rng.bit_generator.state == state
    assert passed.sources == batch.sources
    for column in fields(FlowBatch)[1:]:
        assert np.array_equal(getattr(passed, column.name),
                              getattr(batch, column.name)), column.name
    assert len(dropped) == 0 and dropped.sources == batch.sources
    with pytest.raises(ValueError, match="flags for"):
        apply_mitigation(batch, MitigationState(), rng, flags[1:])


@pytest.mark.parametrize("cap", [0.0, -1.0, float("nan")])
@pytest.mark.parametrize("name", ["rate_cap", "syn_cap"])
def test_mitigation_caps_must_be_positive(name, cap):
    # a trace writes a NaN cap as a control that is off
    with pytest.raises(ValueError, match=f"^{name} must be positive"):
        MitigationState(**{name: cap})


def test_blacklist_drops_all_from_source():
    flows = [flow(src="a000", pkts=50, syn_only=True, label="attack"), flow(src="b001")]
    m = MitigationState(blacklist={"a000": 100})
    passed, dropped = apply_mitigation(FlowBatch.from_records(flows), m,
                                       np.random.default_rng(0))
    assert all(f.src_id != "a000" for f in passed)
    assert total_pkts(dropped) == 50


def test_rate_cap_enforced():
    rng = np.random.default_rng(3)
    flows = [flow(src=f"b{i:03d}", pkts=100) for i in range(10)]  # 1000 pps
    m = MitigationState(rate_cap=500.0)
    passed, dropped = apply_mitigation(FlowBatch.from_records(flows), m, rng)
    assert total_pkts(passed) <= 500
    assert total_pkts(passed) + total_pkts(dropped) == 1000


def test_syn_cap_only_drops_syn_packets():
    rng = np.random.default_rng(4)
    attack = [flow(src=f"a{i:03d}", pkts=200, syn_only=True, label="attack")
              for i in range(5)]
    benign = [flow(src="b000", pkts=30)]
    m = MitigationState(syn_cap=100.0)
    passed, dropped = apply_mitigation(FlowBatch.from_records(attack + benign), m, rng)
    syn_passed = sum(syn_packets(f) for f in passed)
    assert syn_passed <= 100
    # benign flow loses at most its single handshake SYN
    benign_passed = sum(f.pkts_total for f in passed if f.label == "benign")
    assert benign_passed >= 29
    assert total_pkts(passed) + total_pkts(dropped) == 1030


def test_drop_filter_uses_flags():
    flows = [flow(src="a000", pkts=40, syn_only=True, label="attack"), flow(src="b000")]
    m = MitigationState(drop_filter_active=True)
    passed, dropped = apply_mitigation(FlowBatch.from_records(flows), m,
                                       np.random.default_rng(0), flags=[True, False])
    assert [f.src_id for f in passed] == ["b000"]
    assert [f.src_id for f in dropped] == ["a000"]


def test_conservation_under_all_mitigations():
    rng = np.random.default_rng(5)
    cfg = EnvConfig(attacks=[AttackScenario("syn_flood", 5000.0, 0, 20)])
    for step in range(20):
        flows = generate_step_traffic(cfg, step, rng)
        flags = [f.label == "attack" for f in flows]
        m = MitigationState(rate_cap=800.0, syn_cap=100.0, drop_filter_active=True,
                            blacklist={"a000": 100, "b000": 100})
        passed, dropped = apply_mitigation(flows, m, rng, flags)
        assert total_pkts(passed) + total_pkts(dropped) == total_pkts(flows)
        bytes_sum = sum(f.bytes_total for f in passed) + sum(f.bytes_total for f in dropped)
        assert bytes_sum == sum(f.bytes_total for f in flows)
        for f in list(passed) + list(dropped):
            assert f.pkts_in + f.pkts_out == f.pkts_total


SOURCES = ("a000", "a001", "b000", "b001", "b002")


@st.composite
def flow_records(draw):
    pkts_in = draw(st.integers(0, 300))
    pkts_out = draw(st.integers(0, 300))
    pkts = pkts_in + pkts_out
    return FlowRecord(draw(st.sampled_from(SOURCES)), pkts,
                      draw(st.integers(pkts, 1500 * pkts + 1500)),
                      draw(st.floats(0.0, 5.0)), pkts_in, pkts_out,
                      draw(st.integers(0, 15)),
                      draw(st.sampled_from(("benign", "attack"))),
                      draw(st.sampled_from(("tcp", "udp"))))


@st.composite
def mitigation_cases(draw):
    flows = draw(st.lists(flow_records(), max_size=30))
    caps = st.none() | st.floats(0.5, 3000.0)
    m = MitigationState(
        rate_cap=draw(caps), syn_cap=draw(caps),
        drop_filter_active=draw(st.booleans()),
        blacklist={s: 100 for s in draw(st.sets(st.sampled_from(SOURCES)))})
    flags = draw(st.lists(st.booleans(), min_size=len(flows), max_size=len(flows)))
    return flows, m, flags, draw(st.floats(0.1, 2.0)), draw(st.integers(0, 2**32 - 1))


# timing checks off: example generation slows with the machine's load
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mitigation_cases())
def test_mitigation_conserves_and_caps_on_generated_inputs(case):
    flows, m, flags, dt, seed = case
    passed, dropped = apply_mitigation(FlowBatch.from_records(flows), m,
                                       np.random.default_rng(seed), flags, dt)
    for label in ("benign", "attack"):
        for attr in ("pkts_total", "bytes_total"):
            offered = sum(getattr(f, attr) for f in flows if f.label == label)
            kept = sum(getattr(f, attr) for f in list(passed) + list(dropped)
                       if f.label == label)
            assert kept == offered, (label, attr)
    if m.rate_cap is not None:
        assert total_pkts(passed) <= int(m.rate_cap * dt)
    if m.syn_cap is not None:
        assert sum(syn_packets(f) for f in passed) <= int(m.syn_cap * dt)


# per-flow reference: the mitigation semantics one FlowRecord at a time

def reference_split(flow, kept_pkts):
    if kept_pkts >= flow.pkts_total:
        return flow, None
    if kept_pkts <= 0:
        return None, flow
    kept_bytes = int(round(flow.bytes_total * kept_pkts / flow.pkts_total))
    kept_bytes = min(max(kept_bytes, kept_pkts),
                     flow.bytes_total - (flow.pkts_total - kept_pkts))
    kept_in = int(round(flow.pkts_in * kept_pkts / flow.pkts_total))
    kept_in = min(max(kept_in, kept_pkts - flow.pkts_out), flow.pkts_in, kept_pkts)
    passed = replace(flow, pkts_total=kept_pkts, bytes_total=kept_bytes,
                     pkts_in=kept_in, pkts_out=kept_pkts - kept_in)
    rem = flow.pkts_total - kept_pkts
    dropped = replace(flow, pkts_total=rem, bytes_total=flow.bytes_total - kept_bytes,
                      pkts_in=flow.pkts_in - kept_in,
                      pkts_out=flow.pkts_out - (kept_pkts - kept_in))
    return passed, dropped


def reference_cap(counts, cap, rng):
    kept = rng.multivariate_hypergeometric(np.asarray(counts, dtype=np.int64),
                                           int(cap), method="marginals")
    return [int(k) for k in kept]


def reference_mitigation(flows, mitigation, rng, flags, dt):
    passed, dropped, stage = [], [], []
    for flow, flagged in zip(flows, flags, strict=True):
        if flow.src_id in mitigation.blacklist:
            dropped.append(flow)
        elif mitigation.drop_filter_active and flagged:
            dropped.append(flow)
        else:
            stage.append(flow)
    if mitigation.syn_cap is not None and stage:
        syn_counts = [syn_packets(f) for f in stage]
        budget = int(mitigation.syn_cap * dt)
        if sum(syn_counts) > budget:
            kept_syn = reference_cap(syn_counts, budget, rng)
            next_stage = []
            for flow, syn, kept in zip(stage, syn_counts, kept_syn):
                p, d = reference_split(flow, flow.pkts_total - (syn - kept))
                if p is not None:
                    if syn > kept and flow.flags & env.FLAG_ACK:
                        p = replace(p, flags=p.flags & ~env.FLAG_SYN)
                    next_stage.append(p)
                if d is not None:
                    dropped.append(d)
            stage = next_stage
    if mitigation.rate_cap is not None and stage:
        counts = [f.pkts_total for f in stage]
        budget = int(mitigation.rate_cap * dt)
        if sum(counts) > budget:
            next_stage = []
            for flow, kept in zip(stage, reference_cap(counts, budget, rng)):
                p, d = reference_split(flow, kept)
                if p is not None:
                    next_stage.append(p)
                if d is not None:
                    dropped.append(d)
            stage = next_stage
    passed.extend(stage)
    return passed, dropped


def per_source_and_label(flows):
    sums = Counter()
    for f in flows:
        sums[f.src_id, f.label, "pkts"] += f.pkts_total
        sums[f.src_id, f.label, "bytes"] += f.bytes_total
    return sums


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mitigation_cases())
def test_batch_mitigation_matches_per_flow_reference(case):
    flows, m, flags, dt, seed = case
    passed, dropped = apply_mitigation(FlowBatch.from_records(flows), m,
                                       np.random.default_rng(seed), flags, dt)
    ref_passed, ref_dropped = reference_mitigation(
        flows, m, np.random.default_rng(seed), flags, dt)
    assert per_source_and_label(passed) == per_source_and_label(ref_passed)
    assert per_source_and_label(dropped) == per_source_and_label(ref_dropped)
    # the same fragments, flags included, in the same order
    assert list(passed) == ref_passed
    assert list(dropped) == ref_dropped


def test_mitigation_monotone_attack_packets():
    # activating any single mitigation never raises passed attack packets
    rng_master = np.random.default_rng(6)
    cfg = EnvConfig(attacks=[AttackScenario("syn_flood", 5000.0, 0, 10)])
    flows = generate_step_traffic(cfg, 2, rng_master)
    flags = [f.label == "attack" for f in flows]
    base, _ = apply_mitigation(flows, MitigationState(), np.random.default_rng(7), flags)
    base_attack = sum(f.pkts_total for f in base if f.label == "attack")
    variants = [
        MitigationState(rate_cap=1000.0),
        MitigationState(syn_cap=100.0),
        MitigationState(drop_filter_active=True),
        MitigationState(blacklist={f"a{i:03d}": 99 for i in range(20)}),
    ]
    for m in variants:
        passed, _ = apply_mitigation(flows, m, np.random.default_rng(7), flags)
        attack = sum(f.pkts_total for f in passed if f.label == "attack")
        assert attack <= base_attack


# ---------------------------------------------------------------------------
# source filtering
# ---------------------------------------------------------------------------

def test_source_attack_probability_counts():
    assert source_attack_probability([True] * 10) == 1.0
    assert source_attack_probability([False] * 10) == 0.0
    assert source_attack_probability([True] * 3 + [False] * 7) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        source_attack_probability([])


def test_blacklist_update_strict_threshold():
    blacklist = {}
    changed = blacklist_update({"x": 0.5, "y": 0.51, "z": 1.0}, tau_p=0.5,
                               expiry_steps=30, now=10, blacklist=blacklist)
    assert changed == {"y", "z"}
    assert blacklist == {"y": 40, "z": 40}
    # refresh moves the expiry forward
    blacklist_update({"y": 0.9}, 0.5, 30, now=20, blacklist=blacklist)
    assert blacklist["y"] == 50


def test_blacklist_expiry_in_env():
    e = EdgeGatewayEnv(EnvConfig(episode_len=50, attacks=[], blacklist_expiry=3),
                       seed=0)
    e.mitigation.blacklist["ghost"] = 2
    e.step(None)   # step 0: expiry 2 > 0, stays
    assert "ghost" in e.mitigation.blacklist
    e.step(None)   # step 1
    e.step(None)   # step 2: expiry 2 <= 2, removed
    assert "ghost" not in e.mitigation.blacklist


class ReferenceWindows:
    """Per-source flag windows as a dict of lists, one flow at a time."""

    def __init__(self, maxlen):
        self.maxlen = maxlen
        self.windows = {}

    def update(self, flows, flags, blacklist):
        flagged_srcs = {}
        for flow, flag in zip(flows, flags):
            flagged_srcs[flow.src_id] = flagged_srcs.get(flow.src_id, False) or flag
        for src in set(self.windows) | set(flagged_srcs):
            # a fresh source starts with an unflagged history
            window = self.windows.setdefault(src, [False] * (self.maxlen - 1))
            window.append(flagged_srcs.get(src, False))
            if len(window) > self.maxlen:
                del window[0]
            if not any(window) and src not in flagged_srcs and src not in blacklist:
                del self.windows[src]

    def probabilities(self):
        return {src: sum(win) / len(win) for src, win in self.windows.items()}


WINDOW_ENV = EnvConfig(benign_sources=4, episode_len=60, attacks=[
    AttackScenario("syn_flood", 100.0, 0, 5, n_sources=3)])
N_WINDOW_SOURCES = 7


def one_packet_flows(sources, ids):
    """A batch of one-packet flows from the given source ids."""
    n = len(ids)
    ones, zeros = np.ones(n, np.int64), np.zeros(n, np.int64)
    return FlowBatch(sources, np.asarray(ids, dtype=np.intp), ones, ones,
                     np.ones(n), ones, zeros, zeros, np.zeros(n, np.int8),
                     np.zeros(n, np.int8))


def window_steps():
    """Per step: (source index, flagged) of each flow, and whether the
    step's action is SOURCE_FILTER."""
    flows = st.lists(st.tuples(st.integers(0, N_WINDOW_SOURCES - 1), st.booleans()),
                     max_size=8)
    return st.lists(st.tuples(flows, st.booleans()), max_size=30)


def run_window_steps(steps, window, expiry, tau_p):
    """Drives an env through the steps with the given flows and flags and
    checks its source probabilities and blacklist against the reference
    after every step."""
    config = replace(WINDOW_ENV, tau_p=tau_p, source_window=window,
                     blacklist_expiry=expiry)
    batches, flag_lists = [], []
    e = EdgeGatewayEnv(config, seed=0,
                       flow_flagger=lambda features: flag_lists[e.step_index])
    assert len(e.sources) == N_WINDOW_SOURCES
    ref, ref_blacklist = ReferenceWindows(window), {}
    with mock.patch.object(env, "generate_step_traffic",
                           lambda config, step, rng: batches[step]):
        for now, (flows, source_filter) in enumerate(steps):
            batches.append(one_packet_flows(e.sources, [i for i, _ in flows]))
            flag_lists.append([flag for _, flag in flows])
            for src in [s for s, exp in ref_blacklist.items() if exp <= now]:
                del ref_blacklist[src]
            if source_filter:
                blacklist_update(ref.probabilities(), tau_p, expiry, now,
                                 ref_blacklist)
            res = e.step(ActionId.SOURCE_FILTER if source_filter else None)
            ref.update(list(batches[-1]), flag_lists[-1], ref_blacklist)
            assert res.mitigation.blacklist == ref_blacklist
            assert e.source_probabilities() == ref.probabilities()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(window_steps(), st.integers(1, 6), st.integers(1, 8),
       st.floats(0.05, 0.95))
# a flagged source goes quiet, is forgotten, and comes back unflagged
@example([([(0, True)], False)] + [([], False)] * 3 + [([(0, False)], False)],
         3, 5, 0.5)
# a blacklisted source keeps its window after its flags have left it
@example([([(4, True)], False)] * 2 + [([], True)] + [([], False)] * 4,
         2, 6, 0.5)
def test_source_ring_matches_dict_of_lists_reference(steps, window, expiry, tau_p):
    run_window_steps(steps, window, expiry, tau_p)


def test_source_window_rules():
    e = EdgeGatewayEnv(replace(WINDOW_ENV, source_window=4, blacklist_expiry=3),
                       seed=0)
    e.flow_flagger = lambda features: [True] * len(features)
    one = one_packet_flows(e.sources, [e.sources.index("a001")])
    none = one.take(slice(0, 0))
    with mock.patch.object(env, "generate_step_traffic",
                           lambda config, step, rng: [one, one, none, none,
                                                      none, none, none][step]):
        e.step(None)
        # a fresh source averages its first flag over the full window
        assert e.source_probabilities() == {"a001": 0.25}
        e.step(None)
        e.step(ActionId.SOURCE_FILTER)   # 2/4 is not above tau_p = 0.5
        assert e.mitigation.blacklist == {}
        e.mitigation.blacklist["a001"] = 6
        for _ in range(3):
            e.step(None)
        # its flags have left the window; the blacklist keeps it tracked
        assert e.source_probabilities() == {"a001": 0.0}
        e.step(None)     # expired at step 6: forgotten
        assert e.source_probabilities() == {}


def test_source_window_must_be_positive():
    with pytest.raises(ValueError):
        EnvConfig(source_window=0)


@pytest.mark.parametrize("field, value", [
    ("benign_rate", -1.0), ("benign_sources", 0), ("dt", 0.0), ("episode_len", 0),
    ("rate_cap_pps", 0.0), ("syn_cap_pps", -1.0), ("tau_p", 0.0), ("tau_p", 1.5),
    # the default attack's 20 sources bring these just over 1e5 sources and
    # 1e7 flag-ring cells; the config rejects them before any allocation
    ("benign_sources", 99_981), ("benign_sources", 10**12),
    ("source_window", 166_667), ("source_window", 10**12),
])
def test_env_config_check_names_its_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} "):
        EnvConfig(**{field: value})


# ---------------------------------------------------------------------------
# resource proxies
# ---------------------------------------------------------------------------

def test_resource_affine_in_load():
    r1 = resource_model(1000.0, 0.0, False, 0.0)
    r2 = resource_model(2000.0, 0.0, False, 0.0)
    cfg = env.ResourceModelConfig()
    assert r2.cpu_pct - r1.cpu_pct == pytest.approx(cfg.cpu_per_pps * 1000.0)


def test_resource_ranges_clamped():
    r = resource_model(1e9, 1e9, True, 1.0)
    assert r.cpu_pct == 100.0
    assert r.power_w <= env.ResourceModelConfig().p_max
    r0 = resource_model(0.0, 0.0, False, 0.0)
    assert 0.0 <= r0.cpu_pct <= 100.0


def test_idle_operating_point_calibration():
    # benign-only traffic, no mitigation: CPU in the ~12% band, ~0.96 J/step
    cfg = EnvConfig(attacks=[], episode_len=300)
    e = EdgeGatewayEnv(cfg, seed=11)
    cpus, energies = [], []
    for _ in range(300):
        res = e.step(None)
        cpus.append(res.resource.cpu_pct)
        energies.append(res.ledger_entry.energy_j)
    assert 10.5 <= np.mean(cpus) <= 13.5
    assert 0.88 <= np.mean(energies) <= 1.04


def severe_syn_flood():
    return AttackScenario("syn_flood", 6000.0, 200, 700, 20)


def test_severe_attack_cpu_band_unmitigated():
    cfg = EnvConfig(attacks=[severe_syn_flood()], episode_len=400)
    e = EdgeGatewayEnv(cfg, seed=12)
    # keep a3/a4 inert even if called
    e.flow_flagger = lambda features: [False] * len(features)
    cpus = []
    for step in range(400):
        res = e.step(None)
        if 250 <= step < 400:  # inside the attack window
            cpus.append(res.resource.cpu_pct)
    assert 37.5 <= np.mean(cpus) <= 42.0


def test_resource_sanity_on_every_step():
    cfg = EnvConfig(attacks=[AttackScenario("syn_flood", 5000.0, 200, 700)],
                    episode_len=500)
    e = EdgeGatewayEnv(cfg, seed=13)
    rng = np.random.default_rng(0)
    for _ in range(500):
        action = ActionId(int(rng.integers(4))) if rng.random() < 0.3 else None
        res = e.step(action)
        assert 0.0 <= res.resource.cpu_pct <= 100.0
        assert 0.0 <= res.resource.power_w <= e.resources.p_max


# ---------------------------------------------------------------------------
# environment stepping
# ---------------------------------------------------------------------------

def test_env_episode_end_error():
    e = EdgeGatewayEnv(EnvConfig(episode_len=3, attacks=[]), seed=0)
    for _ in range(3):
        e.step(None)
    with pytest.raises(RuntimeError):
        e.step(None)


def test_flagger_must_return_one_flag_per_flow():
    e = EdgeGatewayEnv(EnvConfig(attacks=[]), seed=0,
                       flow_flagger=lambda features: [])
    with pytest.raises(ValueError):
        e.step(None)


def test_step_features_are_the_offered_flows_matrix():
    e = EdgeGatewayEnv(EnvConfig(attacks=[AttackScenario("syn_flood", 5000.0, 0, 5)],
                                 episode_len=5), seed=3)
    for _ in range(5):
        res = e.step(None)
        assert np.array_equal(res.features, features_matrix(res.offered))


def test_step_counts_offered_syn_and_ack_packets():
    e = EdgeGatewayEnv(EnvConfig(attacks=[AttackScenario("syn_flood", 5000.0, 2, 6)],
                                 episode_len=8), seed=4)
    for _ in range(8):
        res = e.step(ActionId.SYN_THROTTLE)
        assert res.offered_syn == sum(syn_packets(f) for f in res.offered)
        assert res.offered_ack == sum(ack_packets(f) for f in res.offered)
    assert res.offered_syn > 0 and res.offered_ack > 0


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(flow_records(), max_size=30), st.floats(0.0, 5000.0))
def test_rate_flagger_matches_per_flow_rule(flows, threshold):
    flags = rate_threshold_flagger(threshold)(
        features_matrix(FlowBatch.from_records(flows)))
    assert flags.dtype == bool
    assert flags.tolist() == [f.pkts_total / max(f.duration, 1e-3) > threshold
                     for f in flows]


def reference_features(f):
    """The feature row of one flow, computed field by field."""
    duration = f.duration if f.duration >= 1e-3 else 1e-3
    return [float(f.pkts_total), float(f.bytes_total), float(f.duration),
            f.pkts_total / duration, float(f.pkts_in), float(f.pkts_out),
            f.bytes_total / f.pkts_total if f.pkts_total > 0 else 0.0,
            sum(w for bit, w in ((1, 1.0), (2, 2.0), (4, 4.0), (8, 8.0))
                if f.flags & bit)]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(flow_records(), max_size=30))
def test_features_matrix_matches_per_flow_reference(flows):
    rows = features_matrix(FlowBatch.from_records(flows))
    assert rows.shape == (len(flows), 8)
    assert rows.tolist() == [reference_features(f) for f in flows]


def test_env_deterministic_trajectory():
    cfg = EnvConfig(attacks=[AttackScenario("syn_flood", 5000.0, 5, 40)], episode_len=60)
    actions = [None] * 10 + [ActionId.SOURCE_FILTER, ActionId.SYN_THROTTLE] * 25

    def run():
        e = EdgeGatewayEnv(cfg, seed=21)
        out = []
        for a in actions[:60]:
            r = e.step(a)
            out.append((r.offered_pkts, r.passed_pkts, r.dropped_pkts,
                        r.resource.cpu_pct, r.ledger_entry.carbon_g))
        return out

    assert run() == run()


def test_env_action_semantics():
    cfg = EnvConfig(attacks=[AttackScenario("syn_flood", 5000.0, 0, 50)], episode_len=60)
    e = EdgeGatewayEnv(cfg, seed=22)
    res = e.step(ActionId.RATE_LIMIT)
    assert res.mitigation.rate_cap == e.config.rate_cap_pps
    res = e.step(ActionId.SYN_THROTTLE)
    assert res.mitigation.syn_cap == e.config.syn_cap_pps
    assert res.mitigation.rate_cap is not None  # caps accumulate while active
    res = e.step(ActionId.BLOCK_ANOMALOUS)
    assert res.mitigation.drop_filter_active
    # monitoring relaxes the caps but keeps the blacklist
    e.mitigation.blacklist["a000"] = 500
    res = e.step(None)
    assert res.mitigation.rate_cap is None
    assert res.mitigation.syn_cap is None
    assert not res.mitigation.drop_filter_active
    assert "a000" in res.mitigation.blacklist


def test_source_filter_blacklists_flooders():
    cfg = EnvConfig(attacks=[AttackScenario("syn_flood", 5000.0, 0, 50)], episode_len=60)
    e = EdgeGatewayEnv(cfg, seed=23)
    for _ in range(6):      # build up per-source anomaly windows
        e.step(None)
    res = e.step(ActionId.SOURCE_FILTER)
    attackers = {f"a{i:03d}" for i in range(20)}
    assert attackers <= set(res.mitigation.blacklist)
    # blacklisted sources contribute nothing from the next step on
    res = e.step(ActionId.SOURCE_FILTER)
    assert res.passed_pkts["attack"] == 0


def test_blacklist_soundness_until_expiry():
    cfg = EnvConfig(attacks=[AttackScenario("syn_flood", 5000.0, 0, 90)], episode_len=100)
    e = EdgeGatewayEnv(cfg, seed=24)
    for _ in range(6):
        e.step(None)
    e.step(ActionId.SOURCE_FILTER)
    for _ in range(20):
        res = e.step(None)
        assert res.passed_pkts["attack"] == 0
