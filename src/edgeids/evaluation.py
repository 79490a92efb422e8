"""Metrics, two-group ANOVA with partial eta squared, and sweep harnesses.

The F-distribution tail probability is computed from the regularized
incomplete beta function, evaluated with the standard continued-fraction
expansion (modified Lentz); accuracy is better than 1e-10 over the degree
ranges exercised here, comfortably above the six decimal digits the
reports promise.  Reference ANOVA summaries from the original gateway
hardware runs are bundled so the from-sums path can be cross-checked; two
of those published rows are internally inconsistent and are reproduced as
flagged discrepancies rather than matched.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# classification metrics
# ---------------------------------------------------------------------------

@dataclass
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be >= 0")

    @property
    def total(self):
        return self.tp + self.fp + self.tn + self.fn

    @classmethod
    def of(cls, truth, verdicts):
        """The counts of ``verdicts`` (nonzero: flagged as an attack)
        against the ground ``truth``, two arrays of one length."""
        t, v = np.asarray(truth) != 0, np.asarray(verdicts) != 0
        return cls(*(int(np.count_nonzero(both))
                     for both in (t & v, ~t & v, ~t & ~v, t & ~v)))


def classification_metrics(counts):
    """Accuracy, precision, recall, f1.  Ratios with a zero denominator are
    reported as None, never silently as 0."""
    if counts.total == 0:
        raise ValueError("no decisions to score")
    accuracy = (counts.tp + counts.tn) / counts.total
    precision = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else None
    recall = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else None
    if precision and recall:
        f1 = 2 * precision * recall / (precision + recall)
    elif precision == 0 or recall == 0:
        f1 = 0.0 if (precision is not None and recall is not None) else None
    else:
        f1 = None
    return {"accuracy": accuracy, "precision": precision,
            "recall": recall, "f1": f1}


def detection_probability(attack_steps, detected_steps):
    """Fraction of ground-truth attack steps with an alert or mitigation."""
    if attack_steps == 0:
        raise ValueError("window contains no attack steps")
    return detected_steps / attack_steps


def missed_packets_per_hour(detection_prob, packets_per_second):
    """(1 - p) * M * 3600 rounded to the nearest packet."""
    if not 0.0 <= detection_prob <= 1.0:
        raise ValueError("detection probability outside [0, 1]")
    if packets_per_second <= 0:
        raise ValueError("packet rate must be positive")
    return int(round((1.0 - detection_prob) * packets_per_second * 3600.0))


def false_alerts_per_100(false_positives, alerts):
    if alerts <= 0:
        raise ValueError("alert count must be positive")
    return 100.0 * false_positives / alerts


def roc_auc(scores, labels):
    """Rank-based AUC of a score against binary ground truth."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("AUC needs both classes")
    # each distinct value's midrank: the mean of the 1-based ranks it spans
    _, inverse, counts = np.unique(np.concatenate([neg, pos]),
                                   return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    rank_pos = ranks[neg.size:].sum()
    u_stat = rank_pos - pos.size * (pos.size + 1) / 2.0
    return float(u_stat / (pos.size * neg.size))


# ---------------------------------------------------------------------------
# incomplete beta and the F distribution
# ---------------------------------------------------------------------------

def _beta_continued_fraction(a, b, x, max_iter=300, eps=3e-15):
    # modified Lentz evaluation of the continued fraction for I_x(a, b)
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError("incomplete beta did not converge")


def regularized_incomplete_beta(a, b, x):
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def f_survival(f_value, df1, df2):
    """P(F > f) for an F(df1, df2) variate."""
    if f_value < 0:
        raise ValueError("F must be >= 0")
    if df1 <= 0 or df2 <= 0:
        raise ValueError("degrees of freedom must be positive")
    if f_value == 0.0:
        return 1.0
    x = df2 / (df2 + df1 * f_value)
    return regularized_incomplete_beta(df2 / 2.0, df1 / 2.0, x)


# ---------------------------------------------------------------------------
# one-way ANOVA (two groups)
# ---------------------------------------------------------------------------

@dataclass
class AnovaResult:
    df_between: int
    df_within: int
    ss_between: float
    ss_within: float
    ss_total: float
    ms_between: float
    ms_within: float
    f_statistic: float  # None when degenerate
    p_value: float      # None when F undefined
    partial_eta_sq: float

    def rows(self):
        """Table rows in the standard layout:
        Source, Degrees of Freedom, Sum of Squares, Mean Square, F, P."""
        return [
            ("Between Groups", self.df_between, self.ss_between,
             self.ms_between, self.f_statistic, self.p_value),
            ("Within Groups", self.df_within, self.ss_within,
             self.ms_within, None, None),
            ("Total", self.df_between + self.df_within, self.ss_total,
             None, None, None),
        ]


def one_way_anova(group_a, group_b):
    """Two-group one-way ANOVA from raw samples."""
    a = np.asarray(group_a, dtype=float)
    b = np.asarray(group_b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise ValueError("each group needs at least two samples")
    grand = np.concatenate([a, b]).mean()
    ss_between = a.size * (a.mean() - grand) ** 2 + b.size * (b.mean() - grand) ** 2
    ss_within = float(((a - a.mean()) ** 2).sum() + ((b - b.mean()) ** 2).sum())
    df_between = 1
    df_within = a.size + b.size - 2
    return _assemble_anova(float(ss_between), ss_within, df_between, df_within)


def anova_from_sums(ss_between, ss_within, df_between, df_within):
    """ANOVA derived columns (MS, F, p, partial eta^2) from published sums."""
    if df_between < 1 or df_within < 1:
        raise ValueError("degrees of freedom must be positive")
    if ss_between < 0 or ss_within < 0:
        raise ValueError("sums of squares must be >= 0")
    return _assemble_anova(ss_between, ss_within, df_between, df_within)


def _assemble_anova(ss_between, ss_within, df_between, df_within):
    ss_total = ss_between + ss_within
    ms_between = ss_between / df_between
    ms_within = ss_within / df_within
    if ms_within == 0.0:
        if ss_between == 0.0:
            f_stat = None   # all samples identical: F undefined
            p = None
        else:
            raise ValueError("zero within-group variance with distinct means")
    else:
        f_stat = ms_between / ms_within
        p = f_survival(f_stat, df_between, df_within)
    eta = ss_between / ss_total if ss_total > 0 else 0.0
    return AnovaResult(df_between, df_within, ss_between, ss_within, ss_total,
                       ms_between, ms_within, f_stat, p, eta)


def render_anova_table(result, title=""):
    """Aligned plain-text table in the published column order."""
    header = ("Source", "Degrees of Freedom", "Sum of Squares", "Mean Square",
              "F Statistic", "P-value")
    lines = [title] if title else []
    rows = [header]
    for source, df, ss, ms, f_stat, p in result.rows():
        rows.append((
            source, str(df), f"{ss:.4f}",
            "-" if ms is None else f"{ms:.4f}",
            "-" if f_stat is None else f"{f_stat:.2f}",
            "-" if p is None else ("<0.05" if p < 0.05 else f"{p:.3f}"),
        ))
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for r in rows:
        lines.append("  ".join(str(v).ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# reference ANOVA summaries (original hardware runs)
# ---------------------------------------------------------------------------
#
# Each entry: published sums of squares and degrees of freedom plus the
# published F statistic.  detection_probability and response_time are
# internally inconsistent (their sums imply a different F than the one
# printed); reproduce_reference_tables flags them instead of matching.

REFERENCE_ANOVA_SUMS = {
    "detection_probability": dict(ss_between=0.3154, ss_within=0.2046,
                                  df_between=1, df_within=98,
                                  reported_f=67.89),
    "response_time": dict(ss_between=34.63, ss_within=890.23,
                          df_between=1, df_within=38, reported_f=0.81),
    "latency": dict(ss_between=312.4, ss_within=228.5,
                    df_between=1, df_within=58, reported_f=75.62,
                    reported_eta=0.577),
    "energy": dict(ss_between=3.9752, ss_within=10.3254,
                   df_between=1, df_within=38, reported_f=14.62),
    "carbon": dict(ss_between=8.5923, ss_within=8.9506,
                   df_between=1, df_within=38, reported_f=36.47),
    "cpu": dict(ss_between=20.1427, ss_within=78.2034,
                df_between=1, df_within=38, reported_f=9.78),
    "memory": dict(ss_between=0.0124, ss_within=0.2163,
                   df_between=1, df_within=38, reported_f=2.18),
}

F_CONSISTENCY_TOL = 0.05  # |computed - reported| above this flags the row


@dataclass
class ReferenceTableRow:
    metric: str
    result: AnovaResult
    reported_f: float
    consistent: bool
    reported_eta: float = None


def reproduce_reference_tables():
    """Recompute every reference table from its sums and flag mismatches."""
    rows = []
    for metric, sums in REFERENCE_ANOVA_SUMS.items():
        result = anova_from_sums(sums["ss_between"], sums["ss_within"],
                                 sums["df_between"], sums["df_within"])
        consistent = abs(result.f_statistic - sums["reported_f"]) <= F_CONSISTENCY_TOL
        rows.append(ReferenceTableRow(metric, result, sums["reported_f"],
                                      consistent, sums.get("reported_eta")))
    return rows


# ---------------------------------------------------------------------------
# trend test (Lyapunov series)
# ---------------------------------------------------------------------------

@dataclass
class MannKendallResult:
    s_statistic: int
    z: float
    p_decreasing: float  # one-sided p for a decreasing trend


def mann_kendall(series):
    """Mann-Kendall trend statistic with tie-corrected variance."""
    x = np.asarray(series, dtype=float)
    n = x.size
    if n < 8:
        raise ValueError("series too short for a trend test")
    s = 0
    for i in range(n - 1):
        s += int(np.sign(x[i + 1:] - x[i]).sum())
    _, counts = np.unique(x, return_counts=True)
    ties = counts[counts > 1]
    var_s = (n * (n - 1) * (2 * n + 5)
             - np.sum(ties * (ties - 1) * (2 * ties + 5))) / 18.0
    if var_s <= 0:
        return MannKendallResult(s, 0.0, 1.0 if s >= 0 else 0.0)
    if s > 0:
        z = (s - 1) / math.sqrt(var_s)
    elif s < 0:
        z = (s + 1) / math.sqrt(var_s)
    else:
        z = 0.0
    p_dec = 0.5 * math.erfc(-z / math.sqrt(2.0))  # P(Z <= z)
    return MannKendallResult(s, z, p_dec)


# ---------------------------------------------------------------------------
# sweep harness and model comparison
# ---------------------------------------------------------------------------

@dataclass
class SweepResult:
    epsilons: list
    curves: dict        # epsilon -> [n_seeds, n_episodes] reward array
    mean_curves: dict
    std_curves: dict
    auc: dict           # epsilon -> mean area under the mean curve
    ranking: list       # epsilons sorted by AUC, best first

    def to_csv(self, path):
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["epsilon", "episode", "reward_mean", "reward_std"])
            for eps in self.epsilons:
                mean = self.mean_curves[eps]
                std = self.std_curves[eps]
                for episode, (m, s) in enumerate(zip(mean, std)):
                    writer.writerow([repr(float(eps)), episode, repr(float(m)),
                                     repr(float(s))])


SWEEP_MIN_EPSILONS, SWEEP_MIN_SEEDS = 2, 3


def epsilon_sweep(run_fn, epsilons, seeds):
    """Mean +/- std reward curves per exploration setting.

    run_fn(epsilon, seed) must return the per-episode reward sequence for
    one run; runs are independent, so the harness only aggregates."""
    epsilons = list(epsilons)
    seeds = list(seeds)
    if len(epsilons) < SWEEP_MIN_EPSILONS:
        raise ValueError(f"sweep needs at least {SWEEP_MIN_EPSILONS} epsilon values")
    if len(seeds) < SWEEP_MIN_SEEDS:
        raise ValueError(f"sweep needs at least {SWEEP_MIN_SEEDS} seeds")
    curves = {}
    for eps in epsilons:
        runs = [np.asarray(run_fn(eps, seed), dtype=float) for seed in seeds]
        curves[eps] = np.stack(runs)
    mean_curves = {e: c.mean(axis=0) for e, c in curves.items()}
    std_curves = {e: c.std(axis=0) for e, c in curves.items()}
    auc = {e: float(mean_curves[e].sum()) for e in epsilons}
    ranking = sorted(epsilons, key=lambda e: auc[e], reverse=True)
    return SweepResult(epsilons, curves, mean_curves, std_curves, auc, ranking)


def compare_models(samples_a, samples_b, metrics):
    """One ANOVA per metric between two runs' per-seed samples."""
    report = {}
    for metric in metrics:
        if metric not in samples_a or metric not in samples_b:
            raise KeyError(f"metric {metric!r} missing from a run")
        a, b = samples_a[metric], samples_b[metric]
        if len(a) != len(b):
            raise ValueError(f"metric {metric!r} has mismatched sample counts")
        report[metric] = one_way_anova(a, b)
    return report
