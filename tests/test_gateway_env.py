import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edgeids.agent import ActionId
from edgeids.features import features_matrix
from edgeids import gateway_env as env
from edgeids.gateway_env import (
    AttackScenario,
    EdgeGatewayEnv,
    FlowRecord,
    MitigationState,
    TrafficConfig,
    apply_mitigation,
    blacklist_update,
    default_syn_flood,
    generate_step_traffic,
    rate_threshold_flagger,
    resource_model,
    severe_syn_flood,
    source_attack_probability,
)


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
    cfg = TrafficConfig(attacks=[])
    flows = generate_step_traffic(cfg, 0, np.random.default_rng(0))
    assert flows and all(f.label == "benign" for f in flows)


def test_syn_flood_packet_count_poisson():
    cfg = TrafficConfig(attacks=[AttackScenario("syn_flood", 1000.0, 0, 10)])
    counts = []
    rng = np.random.default_rng(1)
    for step in range(60):
        flows = generate_step_traffic(cfg, step % 10, rng)
        counts.append(sum(f.pkts_total for f in flows if f.label == "attack"))
    mean = np.mean(counts)
    # Poisson(1000): sample mean over 60 steps within 3 sigma of 1000
    assert abs(mean - 1000.0) <= 3 * np.sqrt(1000.0 / 60)


def test_traffic_deterministic_for_seed():
    cfg = TrafficConfig(attacks=[default_syn_flood(start=0, end=5)])
    a = generate_step_traffic(cfg, 1, np.random.default_rng(42))
    b = generate_step_traffic(cfg, 1, np.random.default_rng(42))
    assert a == b


def test_flow_invariants_hold():
    cfg = TrafficConfig(attacks=[AttackScenario("zero_day_mix", 3000.0, 0, 50)])
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
    passed, dropped = apply_mitigation(flows, MitigationState(), np.random.default_rng(0))
    assert passed == flows and dropped == []


def test_blacklist_drops_all_from_source():
    flows = [flow(src="a000", pkts=50, syn_only=True, label="attack"), flow(src="b001")]
    m = MitigationState(blacklist={"a000": 100})
    passed, dropped = apply_mitigation(flows, m, np.random.default_rng(0))
    assert all(f.src_id != "a000" for f in passed)
    assert total_pkts(dropped) == 50


def test_rate_cap_enforced():
    rng = np.random.default_rng(3)
    flows = [flow(src=f"b{i:03d}", pkts=100) for i in range(10)]  # 1000 pps
    m = MitigationState(rate_cap=500.0)
    passed, dropped = apply_mitigation(flows, m, rng)
    assert total_pkts(passed) <= 500
    assert total_pkts(passed) + total_pkts(dropped) == 1000


def test_syn_cap_only_drops_syn_packets():
    rng = np.random.default_rng(4)
    attack = [flow(src=f"a{i:03d}", pkts=200, syn_only=True, label="attack")
              for i in range(5)]
    benign = [flow(src="b000", pkts=30)]
    m = MitigationState(syn_cap=100.0)
    passed, dropped = apply_mitigation(attack + benign, m, rng)
    syn_passed = sum(f.syn_packets for f in passed)
    assert syn_passed <= 100
    # benign flow loses at most its single handshake SYN
    benign_passed = sum(f.pkts_total for f in passed if f.label == "benign")
    assert benign_passed >= 29
    assert total_pkts(passed) + total_pkts(dropped) == 1030


def test_drop_filter_uses_flags():
    flows = [flow(src="a000", pkts=40, syn_only=True, label="attack"), flow(src="b000")]
    m = MitigationState(drop_filter_active=True)
    passed, dropped = apply_mitigation(flows, m, np.random.default_rng(0),
                                       flags=[True, False])
    assert [f.src_id for f in passed] == ["b000"]
    assert [f.src_id for f in dropped] == ["a000"]


def test_conservation_under_all_mitigations():
    rng = np.random.default_rng(5)
    cfg = TrafficConfig(attacks=[default_syn_flood(start=0, end=20)])
    for step in range(20):
        flows = generate_step_traffic(cfg, step, rng)
        flags = [f.label == "attack" for f in flows]
        m = MitigationState(rate_cap=800.0, syn_cap=100.0, drop_filter_active=True,
                            blacklist={"a000": 100, "b000": 100})
        passed, dropped = apply_mitigation(flows, m, rng, flags)
        assert total_pkts(passed) + total_pkts(dropped) == total_pkts(flows)
        bytes_sum = sum(f.bytes_total for f in passed) + sum(f.bytes_total for f in dropped)
        assert bytes_sum == sum(f.bytes_total for f in flows)
        for f in passed + dropped:
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
    passed, dropped = apply_mitigation(flows, m, np.random.default_rng(seed),
                                       flags, dt)
    for label in ("benign", "attack"):
        for attr in ("pkts_total", "bytes_total"):
            offered = sum(getattr(f, attr) for f in flows if f.label == label)
            kept = sum(getattr(f, attr) for f in passed + dropped
                       if f.label == label)
            assert kept == offered, (label, attr)
    if m.rate_cap is not None:
        assert total_pkts(passed) <= int(m.rate_cap * dt)
    if m.syn_cap is not None:
        assert sum(f.syn_packets for f in passed) <= int(m.syn_cap * dt)


def test_mitigation_monotone_attack_packets():
    # activating any single mitigation never raises passed attack packets
    rng_master = np.random.default_rng(6)
    cfg = TrafficConfig(attacks=[default_syn_flood(start=0, end=10)])
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
    cfg = TrafficConfig(episode_len=50, attacks=[])
    e = EdgeGatewayEnv(cfg, seed=0)
    e.params.blacklist_expiry = 3
    e.mitigation.blacklist["ghost"] = 2
    e.step(None)   # step 0: expiry 2 > 0, stays
    assert "ghost" in e.mitigation.blacklist
    e.step(None)   # step 1
    e.step(None)   # step 2: expiry 2 <= 2, removed
    assert "ghost" not in e.mitigation.blacklist


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
    cfg = TrafficConfig(attacks=[], episode_len=300)
    e = EdgeGatewayEnv(cfg, seed=11)
    cpus, energies = [], []
    for _ in range(300):
        res = e.step(None)
        cpus.append(res.resource.cpu_pct)
        energies.append(res.ledger_entry.energy_j)
    assert 10.5 <= np.mean(cpus) <= 13.5
    assert 0.88 <= np.mean(energies) <= 1.04


def test_severe_attack_cpu_band_unmitigated():
    cfg = TrafficConfig(attacks=[severe_syn_flood()], episode_len=400)
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
    cfg = TrafficConfig(attacks=[default_syn_flood()], episode_len=500)
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
    e = EdgeGatewayEnv(TrafficConfig(episode_len=3, attacks=[]), seed=0)
    for _ in range(3):
        e.step(None)
    with pytest.raises(RuntimeError):
        e.step(None)


def test_flagger_must_return_one_flag_per_flow():
    e = EdgeGatewayEnv(TrafficConfig(attacks=[]), seed=0,
                       flow_flagger=lambda features: [])
    with pytest.raises(ValueError):
        e.step(None)


def test_step_features_are_the_offered_flows_matrix():
    e = EdgeGatewayEnv(TrafficConfig(attacks=[default_syn_flood(start=0, end=5)],
                                     episode_len=5), seed=3)
    for _ in range(5):
        res = e.step(None)
        assert np.array_equal(res.features, features_matrix(res.offered))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(flow_records(), max_size=30), st.floats(0.0, 5000.0))
def test_rate_flagger_matches_per_flow_rule(flows, threshold):
    flags = rate_threshold_flagger(threshold)(features_matrix(flows))
    assert flags == [f.pkts_total / max(f.duration, 1e-3) > threshold
                     for f in flows]


def test_env_deterministic_trajectory():
    cfg = TrafficConfig(attacks=[default_syn_flood(start=5, end=40)], episode_len=60)
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
    cfg = TrafficConfig(attacks=[default_syn_flood(start=0, end=50)], episode_len=60)
    e = EdgeGatewayEnv(cfg, seed=22)
    res = e.step(ActionId.RATE_LIMIT)
    assert res.mitigation.rate_cap == e.params.rate_cap_pps
    res = e.step(ActionId.SYN_THROTTLE)
    assert res.mitigation.syn_cap == e.params.syn_cap_pps
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
    cfg = TrafficConfig(attacks=[default_syn_flood(start=0, end=50)], episode_len=60)
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
    cfg = TrafficConfig(attacks=[default_syn_flood(start=0, end=90)], episode_len=100)
    e = EdgeGatewayEnv(cfg, seed=24)
    for _ in range(6):
        e.step(None)
    e.step(ActionId.SOURCE_FILTER)
    for _ in range(20):
        res = e.step(None)
        assert res.passed_pkts["attack"] == 0
