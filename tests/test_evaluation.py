import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeids.evaluation import (
    AnovaResult,
    ConfusionCounts,
    anova_from_sums,
    classification_metrics,
    compare_models,
    epsilon_sweep,
    f_survival,
    false_alerts_per_100,
    mann_kendall,
    missed_packets_per_hour,
    one_way_anova,
    regularized_incomplete_beta,
    render_anova_table,
    reproduce_reference_tables,
    roc_auc,
)


# ---------------------------------------------------------------------------
# classification metrics
# ---------------------------------------------------------------------------

def test_metrics_perfect_single_tp():
    m = classification_metrics(ConfusionCounts(tp=1))
    assert m == {"accuracy": 1.0, "precision": 1.0, "recall": 1.0, "f1": 1.0}


def test_metrics_symmetric_counts():
    m = classification_metrics(ConfusionCounts(25, 25, 25, 25))
    assert all(v == pytest.approx(0.5) for v in m.values())


def test_metrics_match_hand_formulas():
    rng = np.random.default_rng(0)
    for _ in range(50):
        tp, fp, tn, fn = (int(v) for v in rng.integers(1, 100, size=4))
        m = classification_metrics(ConfusionCounts(tp, fp, tn, fn))
        assert m["accuracy"] == pytest.approx((tp + tn) / (tp + fp + tn + fn))
        assert m["precision"] == pytest.approx(tp / (tp + fp))
        assert m["recall"] == pytest.approx(tp / (tp + fn))
        p, r = m["precision"], m["recall"]
        assert m["f1"] == pytest.approx(2 * p * r / (p + r))


@given(st.lists(st.tuples(st.booleans(), st.booleans()), max_size=50))
def test_confusion_of_matches_the_if_chain(decisions):
    reference = ConfusionCounts()
    counts = ConfusionCounts.of([truth for truth, _ in decisions],
                                [verdict for _, verdict in decisions])
    for truth, verdict in decisions:
        if truth and verdict:
            reference.tp += 1
        elif truth:
            reference.fn += 1
        elif verdict:
            reference.fp += 1
        else:
            reference.tn += 1
    assert counts == reference
    assert counts.total == len(decisions)


def test_metrics_undefined_ratios_are_absent_not_zero():
    m = classification_metrics(ConfusionCounts(tp=0, fp=0, tn=5, fn=0))
    assert m["precision"] is None
    assert m["recall"] is None
    assert m["f1"] is None
    assert m["accuracy"] == 1.0
    with pytest.raises(ValueError):
        classification_metrics(ConfusionCounts())


def test_missed_packets_per_hour():
    assert missed_packets_per_hour(1.0, 50, ) == 0
    assert missed_packets_per_hour(0.92, 50) == 14_400
    assert missed_packets_per_hour(0.976, 50) == 4_320


def test_false_alerts_per_100():
    assert false_alerts_per_100(0, 10) == 0.0
    assert false_alerts_per_100(10, 10) == 100.0
    assert false_alerts_per_100(19, 250) == pytest.approx(7.6)
    with pytest.raises(ValueError):
        false_alerts_per_100(1, 0)


def test_roc_auc_extremes_and_ranks():
    assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
    assert roc_auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0
    assert roc_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == pytest.approx(0.5)
    # matches the direct pair-counting definition
    rng = np.random.default_rng(1)
    scores = rng.normal(size=60)
    labels = rng.integers(0, 2, size=60)
    if labels.sum() in (0, 60):
        labels[0] = 1 - labels[0]
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    assert roc_auc(scores, labels) == pytest.approx(wins / (len(pos) * len(neg)))


def _reference_roc_auc(scores, labels):
    """roc_auc with its former per-value tie loop: each tied value's ranks
    are replaced by their mean."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    allv = np.concatenate([neg, pos])
    order = np.argsort(allv, kind="mergesort")
    ranks = np.empty(order.size)
    ranks[order] = np.arange(1, order.size + 1)
    for u in np.unique(allv):
        same = allv == u
        if same.sum() > 1:
            ranks[same] = ranks[same].mean()
    u_stat = ranks[neg.size:].sum() - pos.size * (pos.size + 1) / 2.0
    return float(u_stat / (pos.size * neg.size))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_roc_auc_matches_per_value_tie_loop(data):
    n = data.draw(st.integers(2, 80))
    tied = data.draw(st.booleans())
    values = (st.sampled_from([-1.0, 0.0, 0.25, 0.5, 3.0]) if tied
              else st.floats(-1e6, 1e6))
    scores = data.draw(st.lists(values, min_size=n, max_size=n))
    # both classes present
    labels = [0, 1] + data.draw(st.lists(st.integers(0, 1), min_size=n - 2,
                                         max_size=n - 2))
    assert roc_auc(scores, labels) == _reference_roc_auc(scores, labels)


# ---------------------------------------------------------------------------
# incomplete beta / F distribution
# ---------------------------------------------------------------------------

# frozen reference values from an adaptive-quadrature integration of the
# F density (cross-checked against an independent library implementation)
F_SURVIVAL_REFERENCE = {
    (1, 4): [(0.5, 0.5185185185), (1.0, 0.3739009663), (2.0, 0.2301996411),
             (5.0, 0.0890093425), (10.0, 0.0341094232)],
    (1, 38): [(0.5, 0.4838141420), (1.0, 0.3236360839), (2.0, 0.1654406604),
              (5.0, 0.0312974684), (10.0, 0.0030730073)],
    (1, 58): [(0.5, 0.4823315791), (1.0, 0.3214643831), (2.0, 0.1626449679),
              (5.0, 0.0292092493), (10.0, 0.0024904187)],
    (1, 98): [(0.5, 0.4811781731), (1.0, 0.3197732875), (2.0, 0.1604683633),
              (5.0, 0.0276154704), (10.0, 0.0020840635)],
}


def test_f_survival_matches_quadrature_reference():
    for (d1, d2), rows in F_SURVIVAL_REFERENCE.items():
        for f_value, expected in rows:
            assert f_survival(f_value, d1, d2) == pytest.approx(expected, abs=1e-4)


def test_f_survival_high_precision():
    # the continued fraction should agree with the reference to ~1e-10
    for (d1, d2), rows in F_SURVIVAL_REFERENCE.items():
        for f_value, expected in rows:
            assert abs(f_survival(f_value, d1, d2) - expected) < 5e-10


def test_incomplete_beta_basics():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    # I_x(1, 1) = x
    for x in (0.1, 0.5, 0.9):
        assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-12)
    # symmetry I_x(a, b) = 1 - I_{1-x}(b, a)
    assert regularized_incomplete_beta(3.0, 5.0, 0.3) == pytest.approx(
        1.0 - regularized_incomplete_beta(5.0, 3.0, 0.7), abs=1e-12)


# ---------------------------------------------------------------------------
# ANOVA
# ---------------------------------------------------------------------------

def test_anova_hand_case():
    result = one_way_anova([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
    assert result.ss_between == pytest.approx(1.5)
    assert result.ss_within == pytest.approx(4.0)
    assert (result.df_between, result.df_within) == (1, 4)
    assert result.f_statistic == pytest.approx(1.5)
    assert result.partial_eta_sq == pytest.approx(1.5 / 5.5)
    assert result.ss_total == pytest.approx(result.ss_between + result.ss_within,
                                            abs=1e-9)


def test_anova_identical_groups_f_zero():
    result = one_way_anova([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert result.f_statistic == 0.0
    assert result.p_value == 1.0


def test_anova_degenerate_constant_groups():
    result = one_way_anova([2.0, 2.0], [2.0, 2.0])
    assert result.f_statistic is None
    assert result.p_value is None
    with pytest.raises(ValueError):
        one_way_anova([1.0, 1.0], [2.0, 2.0])  # distinct means, zero variance
    with pytest.raises(ValueError):
        one_way_anova([1.0], [2.0, 3.0])


def test_anova_decomposition_property():
    rng = np.random.default_rng(2)
    for _ in range(100):
        a = rng.normal(size=rng.integers(2, 40))
        b = rng.normal(loc=rng.normal(), size=rng.integers(2, 40))
        r = one_way_anova(a, b)
        assert abs(r.ss_total - (r.ss_between + r.ss_within)) < 1e-9
        assert 0.0 <= r.partial_eta_sq <= 1.0
        assert r.partial_eta_sq == r.ss_between / r.ss_total


def test_anova_from_sums_cpu_table():
    r = anova_from_sums(20.1427, 78.2034, 1, 38)
    assert r.f_statistic == pytest.approx(9.78, abs=0.02)
    assert r.p_value < 0.05


def test_anova_from_sums_carbon_table():
    r = anova_from_sums(8.5923, 8.9506, 1, 38)
    assert r.f_statistic == pytest.approx(36.47, abs=0.02)
    assert r.p_value < 0.05


def test_anova_from_sums_memory_table():
    r = anova_from_sums(0.0124, 0.2163, 1, 38)
    assert r.f_statistic == pytest.approx(2.18, abs=0.01)
    assert r.p_value > 0.05


def test_anova_from_sums_latency_eta():
    r = anova_from_sums(312.4, 228.5, 1, 58)
    assert r.partial_eta_sq == pytest.approx(0.577, abs=0.001)


def test_reference_tables_flag_inconsistencies():
    rows = {row.metric: row for row in reproduce_reference_tables()}
    assert rows["carbon"].consistent
    assert rows["cpu"].consistent
    assert rows["memory"].consistent
    assert rows["energy"].consistent
    # the latency row's eta^2 follows from its sums even though its F does not
    assert rows["latency"].result.partial_eta_sq == pytest.approx(
        rows["latency"].reported_eta, abs=0.001)
    assert not rows["latency"].consistent
    # published F for these two does not follow from their own sums
    assert not rows["detection_probability"].consistent
    assert rows["detection_probability"].result.f_statistic == pytest.approx(151.06, abs=0.1)
    assert not rows["response_time"].consistent
    assert rows["response_time"].result.f_statistic == pytest.approx(1.478, abs=0.01)


def test_render_anova_table_layout():
    text = render_anova_table(anova_from_sums(8.5923, 8.9506, 1, 38), "Carbon")
    lines = text.splitlines()
    assert lines[0] == "Carbon"
    assert lines[1].startswith("Source")
    assert "Degrees of Freedom" in lines[1]
    assert "Between Groups" in lines[2]
    assert "36.4" in lines[2]
    assert "Total" in lines[4]


# ---------------------------------------------------------------------------
# Mann-Kendall
# ---------------------------------------------------------------------------

def test_mann_kendall_detects_decreasing_trend():
    rng = np.random.default_rng(3)
    series = np.linspace(10, 0, 100) + rng.normal(scale=0.3, size=100)
    result = mann_kendall(series)
    assert result.s_statistic < 0
    assert result.p_decreasing < 0.01


def test_mann_kendall_flat_series_not_significant():
    rng = np.random.default_rng(4)
    series = rng.normal(size=100)
    result = mann_kendall(series)
    assert result.p_decreasing > 0.01


def test_mann_kendall_handles_ties():
    series = [5.0, 4.0, 3.0] + [0.0] * 30
    result = mann_kendall(series)
    assert result.s_statistic < 0
    assert result.p_decreasing < 0.05


# ---------------------------------------------------------------------------
# sweep harness and model comparison
# ---------------------------------------------------------------------------

def test_epsilon_sweep_aggregates_and_ranks():
    def run_fn(eps, seed):
        # deterministic toy: higher eps converges slower
        x = np.arange(10, dtype=float)
        return 1.0 - np.exp(-(x + 1) / (1.0 + 5.0 * eps)) + 0.001 * seed

    result = epsilon_sweep(run_fn, [0.0, 1.0], seeds=[0, 1, 2])
    assert result.ranking == [0.0, 1.0]
    assert result.mean_curves[0.0].shape == (10,)
    assert np.all(result.std_curves[0.0] >= 0)


def test_epsilon_sweep_is_deterministic():
    calls = []

    def run_fn(eps, seed):
        calls.append((eps, seed))
        rng = np.random.default_rng(int(seed * 100 + eps * 10))
        return rng.normal(size=5)

    a = epsilon_sweep(run_fn, [0.5, 1.0], seeds=[0, 1, 2])
    b = epsilon_sweep(run_fn, [0.5, 1.0], seeds=[0, 1, 2])
    for eps in (0.5, 1.0):
        assert np.array_equal(a.curves[eps], b.curves[eps])


def test_epsilon_sweep_preconditions():
    with pytest.raises(ValueError):
        epsilon_sweep(lambda e, s: [0.0], [1.0], seeds=[0, 1, 2])
    with pytest.raises(ValueError):
        epsilon_sweep(lambda e, s: [0.0], [0.5, 1.0], seeds=[0, 1])


def test_sweep_csv(tmp_path):
    result = epsilon_sweep(lambda e, s: [e, e + s], [0.5, 1.0], seeds=[0, 1, 2])
    path = tmp_path / "sweep.csv"
    result.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epsilon,episode,reward_mean,reward_std"
    assert len(lines) == 1 + 2 * 2


def test_compare_models_self_comparison_zero_f():
    samples = {"cpu": [1.0, 2.0, 3.0, 4.0], "energy": [5.0, 6.0, 7.0, 8.0]}
    report = compare_models(samples, samples, ["cpu", "energy"])
    assert len(report) == 2
    for result in report.values():
        assert result.f_statistic == 0.0


def test_compare_models_separated_distributions():
    rng = np.random.default_rng(5)
    a = {"cpu": list(rng.normal(10, 1, size=20))}
    b = {"cpu": list(rng.normal(20, 1, size=20))}
    report = compare_models(a, b, ["cpu"])
    assert report["cpu"].p_value < 0.05


def test_compare_models_errors():
    with pytest.raises(KeyError):
        compare_models({"cpu": [1, 2]}, {}, ["cpu"])
    with pytest.raises(ValueError):
        compare_models({"cpu": [1, 2, 3]}, {"cpu": [1, 2]}, ["cpu"])

