from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edgeids import sustain
from edgeids.config import default_config
from edgeids.gateway_env import EdgeGatewayEnv
from edgeids.sustain import (
    KappaProvider,
    LedgerLimits,
    RewardComponents,
    RewardWeights,
    SustainabilityLedger,
    carbon_emission,
    compute_reward,
    energy_overhead,
    g_per_kwh_to_g_per_joule,
    load_kappa_schedule,
    memory_util,
    pareto_front,
)
import trace_reference


def components(**overrides):
    base = dict(detection_rate=0.0, false_rate=0.0, latency_s=0.0,
                energy_j=0.0, memory_util=0.0, carbon_g=0.0)
    base.update(overrides)
    return RewardComponents(**base)


# ---------------------------------------------------------------------------
# reward
# ---------------------------------------------------------------------------

def test_reward_zero_components():
    assert compute_reward(RewardWeights(), components()).total == 0.0


def test_reward_detection_only():
    b = compute_reward(RewardWeights(alpha=1.0), components(detection_rate=1.0))
    assert b.total == 1.0


def test_reward_hand_arithmetic():
    w = RewardWeights(alpha=1.0, beta=0.5, lambda_l=0.1, delta=0.01,
                      epsilon_m=0.1, zeta=0.05)
    c = components(detection_rate=0.9, false_rate=0.1, latency_s=0.5,
                   energy_j=2.0, memory_util=0.5, carbon_g=0.4)
    b = compute_reward(w, c)
    assert b.total == pytest.approx(0.71, abs=1e-12)
    assert b.total == pytest.approx(sum(b.per_term), abs=1e-12)


def test_reward_breakdown_sums_exactly():
    rng = np.random.default_rng(0)
    for _ in range(100):
        w = RewardWeights(*rng.uniform(0.0, 2.0, size=6))
        c = components(detection_rate=rng.uniform(), false_rate=rng.uniform(),
                       latency_s=rng.uniform(0, 10), energy_j=rng.uniform(0, 10),
                       memory_util=rng.uniform(), carbon_g=rng.uniform(0, 3))
        b = compute_reward(w, c)
        assert abs(b.total - sum(b.per_term)) <= 1e-12


def test_reward_monotone_in_carbon():
    w = RewardWeights(zeta=0.05)
    lo = compute_reward(w, components(carbon_g=0.1)).total
    hi = compute_reward(w, components(carbon_g=0.2)).total
    assert hi < lo


def test_reward_bound_holds():
    w = RewardWeights()
    c_cap = 5.0
    bound = w.reward_bound(c_cap)
    rng = np.random.default_rng(1)
    for _ in range(200):
        c = components(detection_rate=rng.uniform(), false_rate=rng.uniform(),
                       latency_s=rng.uniform(0, 50), energy_j=rng.uniform(0, 50),
                       memory_util=rng.uniform(), carbon_g=rng.uniform(0, c_cap))
        assert abs(compute_reward(w, c).total) <= bound + 1e-12


def test_reward_rejects_out_of_range():
    with pytest.raises(ValueError):
        components(detection_rate=1.2)
    with pytest.raises(ValueError):
        components(memory_util=-0.1)
    with pytest.raises(ValueError):
        RewardWeights(alpha=-1.0)
    with pytest.raises(ValueError):
        RewardWeights(alpha=0, beta=0, lambda_l=0, delta=0, epsilon_m=0, zeta=0)


# ---------------------------------------------------------------------------
# sustainability primitives
# ---------------------------------------------------------------------------

def test_energy_overhead():
    assert energy_overhead(0.0, 1.0) == 0.0
    assert energy_overhead(2.0, 0.5) == 1.0
    with pytest.raises(ValueError):
        energy_overhead(-1.0, 1.0)


def test_energy_piecewise_riemann_sum():
    # piecewise-constant power: the sum over subintervals equals the integral
    rng = np.random.default_rng(2)
    powers = rng.uniform(0.5, 3.0, size=20)
    dts = rng.uniform(0.1, 1.0, size=20)
    total = sum(energy_overhead(p, dt) for p, dt in zip(powers, dts))
    assert total == pytest.approx(float(np.dot(powers, dts)), rel=1e-12)


def test_memory_util():
    assert memory_util(0, 1024) == 0.0
    assert memory_util(1024, 1024) == 1.0
    assert memory_util(512 * 2**20, 1024 * 2**20) == 0.5
    with pytest.raises(ValueError):
        memory_util(2048, 1024)


def test_carbon_emission_unit_conversion():
    # 1 kWh at 400 g/kWh -> 400 g
    kappa = g_per_kwh_to_g_per_joule(400.0)
    assert carbon_emission(3.6e6, kappa) == pytest.approx(400.0, rel=1e-12)
    assert carbon_emission(10.0, 0.0) == 0.0


def test_carbon_time_varying_riemann_sum():
    rng = np.random.default_rng(3)
    energies = rng.uniform(0.1, 2.0, size=30)
    kappas = rng.uniform(0.0, 2e-4, size=30)
    total = sum(carbon_emission(e, k) for e, k in zip(energies, kappas))
    assert total == pytest.approx(float(np.dot(energies, kappas)), rel=1e-12)


# ---------------------------------------------------------------------------
# ledger
# ---------------------------------------------------------------------------

def test_ledger_bounds_pass_at_boundary():
    limits = LedgerLimits(p_max=5.0)
    ledger = SustainabilityLedger(limits)
    for step in range(10):
        ledger.record(step, power_w=5.0, dt_s=1.0, kappa=limits.kappa_max,
                      m_active=100, m_total=1000)
    assert ledger.check_bounds() == []


def test_ledger_detects_injected_violation():
    limits = LedgerLimits(p_max=5.0)
    ledger = SustainabilityLedger(limits)
    for step in range(5):
        ledger.record(step, 1.0, 1.0, 1e-4, 10, 100)
    ledger.record(5, 6.0, 1.0, 1e-4, 10, 100)  # power above p_max
    violations = ledger.check_bounds()
    assert len(violations) == 1
    assert violations[0].kind == "energy_step" and violations[0].step == 5


def test_ledger_random_valid_trace_clean():
    rng = np.random.default_rng(4)
    limits = LedgerLimits(p_max=5.0)
    ledger = SustainabilityLedger(limits)
    for step in range(500):
        ledger.record(step, rng.uniform(0, 5.0), 1.0,
                      rng.uniform(0, limits.kappa_max), rng.integers(0, 100), 100)
    assert ledger.check_bounds() == []
    energies = ledger.records()[1][:, sustain.LEDGER_COLUMNS.index("energy_j")]
    assert len(energies) == 500
    assert ledger.cumulative_energy_j == pytest.approx(energies.sum())


@st.composite
def ledger_steps(draw):
    """Limits and a run of in-bounds steps: power in [0, p_max], kappa in
    [0, kappa_max], dt > 0 and m_active <= m_total."""
    limits = LedgerLimits(p_max=draw(st.floats(0.1, 100.0)),
                          kappa_max=draw(st.floats(1e-7, 1e-3)))
    steps = []
    for _ in range(draw(st.integers(1, 40))):
        m_total = draw(st.integers(1, 10**6))
        steps.append((draw(st.floats(0.0, limits.p_max)),
                      draw(st.floats(1e-3, 10.0)),
                      draw(st.floats(0.0, limits.kappa_max)),
                      draw(st.integers(0, m_total)), m_total))
    return limits, steps


@settings(max_examples=200, deadline=None)
@given(run=ledger_steps(), data=st.data())
def test_ledger_bounds_hold_on_generated_steps(run, data):
    limits, steps = run
    ledger = SustainabilityLedger(limits)
    energy, carbon = [], []
    for step, args in enumerate(steps):
        ledger.record(step, *args)
        energy.append(ledger.cumulative_energy_j)
        carbon.append(ledger.cumulative_carbon_g)
    assert ledger.check_bounds() == []
    assert np.all(np.diff(energy) >= 0) and np.all(np.diff(carbon) >= 0)

    # one step drawing more than p_max, by a margin no rounding closes
    bad = data.draw(st.integers(0, len(steps) - 1))
    over = limits.p_max * data.draw(st.floats(1.0 + 1e-6, 3.0))
    ledger = SustainabilityLedger(limits)
    for step, (power, *rest) in enumerate(steps):
        ledger.record(step, over if step == bad else power, *rest)
    violations = ledger.check_bounds()
    assert [(v.kind, v.step) for v in violations] == [("energy_step", bad)]


def test_ledger_cumulative_monotone():
    ledger = SustainabilityLedger()
    last_e = last_c = 0.0
    rng = np.random.default_rng(5)
    for step in range(100):
        ledger.record(step, rng.uniform(0, 5), 1.0, rng.uniform(0, 1e-4), 1, 10)
        assert ledger.cumulative_energy_j >= last_e
        assert ledger.cumulative_carbon_g >= last_c
        last_e = ledger.cumulative_energy_j
        last_c = ledger.cumulative_carbon_g


def test_ledger_csv_export(tmp_path):
    ledger = SustainabilityLedger()
    ledger.record(0, 1.0, 1.0, 1e-4, 10, 100)
    path = tmp_path / "ledger.csv"
    ledger.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,P_w,dt_s,E_j,M_ratio,C_g"
    assert len(lines) == 2


LEDGER_HEADER = ["step", "P_w", "dt_s", "E_j", "M_ratio", "C_g"]


@st.composite
def ledger_record_args(draw):
    """One record's power, dt, kappa, m_active and m_total, integers too."""
    m_total = draw(st.integers(1, 2 ** 40))
    return (draw(st.floats(0.0, 1e3) | st.integers(0, 20) | st.just(-0.0)),
            draw(st.floats(1e-3, 10.0) | st.just(1)),
            draw(st.floats(0.0, 1e-3) | st.just(0)),
            draw(st.integers(0, m_total)), m_total)


@settings(max_examples=100, deadline=None)
@given(episodes=st.lists(st.lists(ledger_record_args(), max_size=80), max_size=3),
       first=st.integers(0, 10 ** 6), episode_len=st.integers(0, 1000))
def test_ledger_csv_matches_the_reference_rows(tmp_path_factory, episodes, first,
                                               episode_len):
    ledgers, entries = [], []
    for steps in episodes:
        ledger = SustainabilityLedger()
        entries.append([ledger.record(first + step, *args)
                        for step, args in enumerate(steps)])
        ledgers.append(ledger)
    path = tmp_path_factory.mktemp("ledger") / "ledger.csv"
    sustain.write_ledger_csv(path, ledgers, episode_len)
    with open(path, newline="") as f:
        assert f.read() == trace_reference.csv_text(
            LEDGER_HEADER, trace_reference.ledger_rows(entries, episode_len))
    assert [len(ledger) for ledger in ledgers] == [len(e) for e in entries]


@st.composite
def strained_ledgers(draw):
    """Limits with a finite e_max and an m_max below 1, and steps whose
    power, intensity and memory may pass them."""
    limits = LedgerLimits(p_max=draw(st.floats(0.1, 10.0)),
                          kappa_max=draw(st.floats(1e-7, 1e-3)),
                          e_max=draw(st.floats(-1.0, 300.0)),
                          m_max=draw(st.floats(0.0, 1.0)))
    steps = []
    for _ in range(draw(st.integers(0, 70))):
        m_total = draw(st.integers(1, 10 ** 6))
        steps.append((draw(st.floats(0.0, 2 * limits.p_max) | st.just(-0.0)),
                      draw(st.floats(1e-3, 10.0)),
                      draw(st.floats(0.0, 2 * limits.kappa_max)),
                      draw(st.integers(0, m_total)), m_total))
    return limits, steps


def assert_reference_violations(limits, ledger, entries):
    violations = ledger.check_bounds()
    assert violations == trace_reference.check_bounds(limits, entries)
    for v in violations:
        assert (type(v.step), type(v.value), type(v.bound)) == (int, float, float)
    return violations


@settings(max_examples=100, deadline=None)
@given(run=strained_ledgers())
def test_bound_violations_match_the_reference(run):
    limits, steps = run
    ledger = SustainabilityLedger(limits)
    entries = [ledger.record(step, *args) for step, args in enumerate(steps)]
    assert_reference_violations(limits, ledger, entries)


def test_each_broken_bound_is_reported_in_the_reference_order():
    limits = LedgerLimits(p_max=5.0, kappa_max=1e-4, e_max=12.0, m_max=0.5)
    ledger = SustainabilityLedger(limits)
    steps = [(6.0, 1.0, 1e-4, 1, 10),   # power over p_max
             (1.0, 1.0, 2e-4, 1, 10),   # intensity over kappa_max
             (1.0, 1.0, 1e-4, 6, 10),   # memory over m_max
             (4.0, 1.0, 1e-4, 1, 10),   # the energy sum reaches e_max
             (7.0, 1.0, 3e-4, 9, 10)]   # every bound at once
    entries = [ledger.record(step, *args) for step, args in enumerate(steps)]
    violations = assert_reference_violations(limits, ledger, entries)
    assert [(v.step, v.kind) for v in violations] == [
        (0, "energy_step"), (1, "carbon_step"), (2, "memory"),
        (4, "energy_step"), (4, "carbon_step"), (4, "memory"),
        (4, "energy_cumulative")]


def test_gateway_ledger_entries_hold_python_numbers():
    cfg = default_config("deepedge")
    env = EdgeGatewayEnv(cfg.env, seed=0, resources=cfg.resources,
                         limits=cfg.sustain.ledger_limits())
    entry = env.step(None).ledger_entry
    assert {f.name: type(getattr(entry, f.name)) for f in fields(entry)} == {
        "step": int, "power_w": float, "dt_s": float, "kappa": float,
        "m_active": int, "m_total": int, "energy_j": float, "m_util": float,
        "carbon_g": float}


# a kappa ceiling (g/J) above every value the schedules below hold
KAPPA_MAX = 1e-3


def test_kappa_schedule_file(tmp_path):
    path = tmp_path / "kappa.csv"
    path.write_text("step,kappa_g_per_joule\n0,0.0001\n10,0.0002\n")
    schedule = load_kappa_schedule(path, KAPPA_MAX)
    provider = KappaProvider(5e-5, schedule)
    assert provider.at(0) == 0.0001
    assert provider.at(5) == 0.0001   # holds the last scheduled value
    assert provider.at(10) == 0.0002

    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        load_kappa_schedule(bad, KAPPA_MAX)


@pytest.mark.parametrize("kappa", ["nan", "inf", "-0.0002", "1.0"])
def test_kappa_schedule_rejects_bad_kappa_naming_file_and_line(tmp_path, kappa):
    path = tmp_path / "kappa.csv"
    path.write_text(f"step,kappa_g_per_joule\n0,0.0001\n50,{kappa}\n")
    with pytest.raises(ValueError, match=r"kappa\.csv, line 3: kappa .* finite"):
        load_kappa_schedule(path, KAPPA_MAX)


SCHEDULE_LINES = ["step,kappa_g_per_joule", "0,0.0001", "10,0.0002", "25,0.00015"]
odd_tokens = st.sampled_from(["nan", "inf", "-inf", "-1e-4", "1e400", "x", "",
                              "7", "2.5", '"', ",", "0x10"]) | st.text(max_size=4)


@st.composite
def mutated_schedules(draw):
    lines = [line.split(",") for line in SCHEDULE_LINES]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["replace", "drop", "duplicate"]))
        if edit == "replace":
            lines[i][draw(st.integers(0, len(lines[i]) - 1))] = draw(odd_tokens)
        elif edit == "drop" and len(lines) > 1:
            del lines[i]
        else:
            lines.insert(i, list(lines[i]))
    return "".join(",".join(tokens) + "\n" for tokens in lines)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=mutated_schedules())
def test_mutated_kappa_schedule_is_clean_or_a_value_error(tmp_path, text):
    path = tmp_path / "kappa.csv"
    path.write_text(text, encoding="utf-8")
    try:
        schedule = load_kappa_schedule(path, KAPPA_MAX)
    except ValueError:
        return
    assert schedule
    for step, kappa in schedule.items():
        assert isinstance(step, int) and isinstance(kappa, float)
        assert np.isfinite(kappa) and 0 <= kappa <= KAPPA_MAX


# ---------------------------------------------------------------------------
# Pareto front
# ---------------------------------------------------------------------------

def brute_force_front(points):
    arr = np.asarray(points, dtype=float)
    n = len(points)
    keep = []
    for i in range(n):
        dominated = False
        for j in range(n):
            if j == i:
                continue
            le = arr[j, 0] <= arr[i, 0] and arr[j, 1] <= arr[i, 1]
            strict = arr[j, 0] < arr[i, 0] or arr[j, 1] < arr[i, 1]
            if le and strict:
                dominated = True
                break
        if not dominated:
            keep.append(points[i])
    return keep


def test_pareto_simple_dominance():
    assert pareto_front([(1, 1), (2, 2)]) == [(1, 1)]


def test_pareto_mutual_nondominance():
    pts = [(1, 3), (2, 2), (3, 1)]
    assert pareto_front(pts) == pts


def test_pareto_duplicates_survive_together():
    pts = [(1.0, 1.0), (1.0, 1.0), (2.0, 0.5)]
    assert pareto_front(pts) == pts
    pts2 = [(2.0, 2.0), (2.0, 2.0), (1.0, 1.0)]
    assert pareto_front(pts2) == [(1.0, 1.0)]


def test_pareto_matches_brute_force():
    rng = np.random.default_rng(6)
    for trial in range(30):
        n = int(rng.integers(1, 400))
        pts = [(float(x), float(y))
               for x, y in rng.uniform(0, 10, size=(n, 2)).round(1)]
        assert pareto_front(pts) == brute_force_front(pts)


def test_pareto_preserves_input_order():
    pts = [(3.0, 1.0), (1.0, 3.0), (2.0, 2.0)]
    assert pareto_front(pts) == pts  # mutually non-dominated, order kept


def test_pareto_empty():
    assert pareto_front([]) == []
