"""Carbon-aware multi-objective reward and sustainability accounting.

The reward trades detection quality against latency, energy, memory, and
carbon cost.  The ledger records per-step power draw, energy, memory
utilization, and emissions, and can verify the physical bounds
(energy <= max power * dt, carbon <= max intensity * energy) on every step.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

JOULES_PER_KWH = 3.6e6


def g_per_kwh_to_g_per_joule(value):
    return value / JOULES_PER_KWH


@dataclass
class RewardWeights:
    """Non-negative weights for the six reward terms.

    variant selects which false-rate the second term penalizes: the
    unsupervised agent pays for false positives, the supervised one for
    false negatives.  Caps bound latency and energy before weighting so the
    per-step reward stays bounded.
    """

    alpha: float = 1.0       # detection rate
    beta: float = 0.5        # false-positive (or false-negative) rate
    lambda_l: float = 0.1    # response latency, seconds
    delta: float = 0.01      # energy overhead, joules
    epsilon_m: float = 0.1   # memory utilization ratio
    zeta: float = 0.05       # carbon emission, grams CO2
    variant: str = "deepedge"
    l_cap: float = 5.0
    e_cap: float = 5.0

    def __post_init__(self):
        weights = (self.alpha, self.beta, self.lambda_l, self.delta,
                   self.epsilon_m, self.zeta)
        if any((not np.isfinite(w)) or w < 0 for w in weights):
            raise ValueError("weights must be finite and >= 0")
        if not any(w > 0 for w in weights):
            raise ValueError("at least one weight must be positive")
        if self.variant not in ("deepedge", "autodrl"):
            raise ValueError(f"unknown reward variant {self.variant!r}")
        if self.l_cap <= 0 or self.e_cap <= 0:
            raise ValueError("caps must be positive")

    def reward_bound(self, c_cap):
        """|R| <= alpha + beta + lambda*L_cap + delta*E_cap + eps + zeta*C_cap."""
        return (self.alpha + self.beta + self.lambda_l * self.l_cap
                + self.delta * self.e_cap + self.epsilon_m + self.zeta * c_cap)


@dataclass
class RewardComponents:
    """Measured inputs to one reward evaluation, each in its stated range."""

    detection_rate: float    # in [0, 1]
    false_rate: float        # FPR (deepedge) or FNR (autodrl), in [0, 1]
    latency_s: float         # >= 0
    energy_j: float          # >= 0
    memory_util: float       # in [0, 1]
    carbon_g: float          # >= 0

    def __post_init__(self):
        if not 0.0 <= self.detection_rate <= 1.0:
            raise ValueError(f"detection_rate {self.detection_rate} outside [0, 1]")
        if not 0.0 <= self.false_rate <= 1.0:
            raise ValueError(f"false_rate {self.false_rate} outside [0, 1]")
        if self.latency_s < 0 or self.energy_j < 0 or self.carbon_g < 0:
            raise ValueError("latency, energy, and carbon must be >= 0")
        if not 0.0 <= self.memory_util <= 1.0:
            raise ValueError(f"memory_util {self.memory_util} outside [0, 1]")


TERM_NAMES = ("detection", "false_rate", "latency", "energy", "memory", "carbon")


@dataclass
class RewardBreakdown:
    total: float
    per_term: tuple  # six signed contributions, summing exactly to total
    components: RewardComponents


def compute_reward(weights, components):
    """Scalarized multi-objective reward with a per-term breakdown.

    total = alpha*DR - beta*FR - lambda*L - delta*E - eps*M - zeta*C,
    with latency and energy capped before weighting.
    """
    c = components
    terms = (
        weights.alpha * c.detection_rate,
        -weights.beta * c.false_rate,
        -weights.lambda_l * min(c.latency_s, weights.l_cap),
        -weights.delta * min(c.energy_j, weights.e_cap),
        -weights.epsilon_m * c.memory_util,
        -weights.zeta * c.carbon_g,
    )
    return RewardBreakdown(sum(terms), terms, c)


def energy_overhead(power_w, dt_s):
    """Energy in joules for one interval: P * dt."""
    if power_w < 0:
        raise ValueError("power must be >= 0")
    if dt_s <= 0:
        raise ValueError("dt must be positive")
    return power_w * dt_s


def memory_util(active_bytes, total_bytes):
    if total_bytes <= 0:
        raise ValueError("total memory must be positive")
    if not 0 <= active_bytes <= total_bytes:
        raise ValueError("active memory outside [0, total]")
    return active_bytes / total_bytes


def carbon_emission(energy_j, kappa_g_per_j):
    """Emission in grams CO2: energy * carbon intensity."""
    if energy_j < 0 or kappa_g_per_j < 0:
        raise ValueError("energy and carbon intensity must be >= 0")
    return energy_j * kappa_g_per_j


def equilibrium_check(weights, kappa_g_per_j):
    """Residual of the steady-state condition dR/dE + zeta*kappa = 0.

    The linear reward has dR/dE = -delta, so the residual is
    -delta + zeta*kappa; zero means the stationarity condition holds.
    """
    return -weights.delta + weights.zeta * kappa_g_per_j


def lagrangian_value(objective, energy_j, memory_ratio, lambdas, limits):
    """objective - lambda_E*(E - E_max) - lambda_M*(M - M_max)."""
    lam_e, lam_m = lambdas
    e_max, m_max = limits
    if lam_e < 0 or lam_m < 0:
        raise ValueError("multipliers must be >= 0")
    return objective - lam_e * (energy_j - e_max) - lam_m * (memory_ratio - m_max)


# ---------------------------------------------------------------------------
# sustainability ledger
# ---------------------------------------------------------------------------

@dataclass
class LedgerLimits:
    p_max: float = 5.0                                    # watts
    kappa_max: float = g_per_kwh_to_g_per_joule(500.0)    # gCO2 per joule
    e_max: float = float("inf")                           # cumulative joules
    m_max: float = 1.0                                    # utilization ratio
    c_max: float = float("inf")                           # cumulative grams

    def __post_init__(self):
        if self.p_max <= 0 or self.kappa_max <= 0:
            raise ValueError("p_max and kappa_max must be positive")


@dataclass
class LedgerEntry:
    step: int
    power_w: float
    dt_s: float
    kappa: float
    m_active: int
    m_total: int
    energy_j: float
    m_util: float
    carbon_g: float


@dataclass
class BoundViolation:
    step: int
    kind: str
    value: float
    bound: float


class SustainabilityLedger:
    """Per-step energy/memory/carbon records with monotone cumulative sums."""

    def __init__(self, limits=None):
        self.limits = limits or LedgerLimits()
        self.entries = []
        self.cumulative_energy_j = 0.0
        self.cumulative_carbon_g = 0.0

    def record(self, step, power_w, dt_s, kappa, m_active, m_total):
        e = energy_overhead(power_w, dt_s)
        m = memory_util(m_active, m_total)
        c = carbon_emission(e, kappa)
        self.cumulative_energy_j += e
        self.cumulative_carbon_g += c
        entry = LedgerEntry(step, power_w, dt_s, kappa, m_active, m_total, e, m, c)
        self.entries.append(entry)
        return entry

    def check_bounds(self):
        """Empty list iff every step obeys the power/intensity bounds and
        the cumulative and utilization limits."""
        violations = []
        lim = self.limits
        cum_e = 0.0
        for entry in self.entries:
            step_cap = lim.p_max * entry.dt_s
            if entry.energy_j > step_cap:
                violations.append(
                    BoundViolation(entry.step, "energy_step", entry.energy_j, step_cap)
                )
            carbon_cap = lim.kappa_max * entry.energy_j
            if entry.carbon_g > carbon_cap:
                violations.append(
                    BoundViolation(entry.step, "carbon_step", entry.carbon_g, carbon_cap)
                )
            if entry.m_util > lim.m_max:
                violations.append(
                    BoundViolation(entry.step, "memory", entry.m_util, lim.m_max)
                )
            cum_e += entry.energy_j
            if cum_e > lim.e_max:
                violations.append(
                    BoundViolation(entry.step, "energy_cumulative", cum_e, lim.e_max)
                )
        return violations

    def to_csv(self, path):
        write_ledger_csv(path, [self])


def write_ledger_csv(path, ledgers, episode_len=0):
    """Every ledger's entries as CSV rows; episode k's steps are offset by
    k * episode_len."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["step", "P_w", "dt_s", "E_j", "M_ratio", "C_g"])
        for episode, ledger in enumerate(ledgers):
            for e in ledger.entries:
                writer.writerow([episode * episode_len + e.step,
                                 repr(float(e.power_w)), repr(float(e.dt_s)),
                                 repr(float(e.energy_j)), repr(float(e.m_util)),
                                 repr(float(e.carbon_g))])


def load_kappa_schedule(path):
    """CSV with columns step,kappa_g_per_joule -> {step: kappa}."""
    schedule = {}
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None or \
                not {"step", "kappa_g_per_joule"} <= set(reader.fieldnames):
            raise ValueError("kappa schedule needs step,kappa_g_per_joule columns")
        for row in reader:
            schedule[int(row["step"])] = float(row["kappa_g_per_joule"])
    if not schedule:
        raise ValueError("empty kappa schedule")
    return schedule


class KappaProvider:
    """Constant carbon intensity, optionally overridden per step by a schedule."""

    def __init__(self, default_g_per_j, schedule=None):
        if default_g_per_j < 0:
            raise ValueError("carbon intensity must be >= 0")
        self.default = default_g_per_j
        self.schedule = schedule or {}
        self._last = default_g_per_j

    def at(self, step):
        if step in self.schedule:
            self._last = self.schedule[step]
        return self._last


# ---------------------------------------------------------------------------
# Pareto front
# ---------------------------------------------------------------------------

def pareto_front(points):
    """Non-dominated subset of (energy, carbon) points.

    A point is dominated when some other point is <= in both coordinates and
    strictly smaller in at least one.  Survivors keep their input order;
    exact duplicates survive together unless a third point beats them.
    """
    pts = list(points)
    n = len(pts)
    if n == 0:
        return []
    arr = np.asarray(pts, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("points must be (energy, carbon) pairs")
    order = np.lexsort((arr[:, 1], arr[:, 0]))
    dominated = np.zeros(n, dtype=bool)
    best_c_before = np.inf  # min carbon among strictly smaller energies
    i = 0
    while i < n:
        j = i
        e = arr[order[i], 0]
        while j < n and arr[order[j], 0] == e:
            j += 1
        group = order[i:j]
        group_min_c = arr[group, 1].min()
        for idx in group:
            c = arr[idx, 1]
            if best_c_before <= c or c > group_min_c:
                dominated[idx] = True
        best_c_before = min(best_c_before, group_min_c)
        i = j
    return [pts[i] for i in range(n) if not dominated[i]]


# ---------------------------------------------------------------------------
# coupled penalty matrix
# ---------------------------------------------------------------------------

class PenaltyMatrix:
    """Symmetric positive-definite 3x3 quadratic penalty over [E, M, C]."""

    def __init__(self, h):
        h = np.asarray(h, dtype=float)
        if h.shape != (3, 3):
            raise ValueError("penalty matrix must be 3x3")
        if not np.allclose(h, h.T, atol=1e-12):
            raise ValueError("penalty matrix must be symmetric")
        minors = (h[0, 0], np.linalg.det(h[:2, :2]), np.linalg.det(h))
        if not all(m > 0 for m in minors):
            raise ValueError("penalty matrix must be positive definite "
                             f"(leading minors {minors})")
        self.h = h


def penalty_value(matrix, z):
    """Quadratic form z^T H z over z = [energy, memory, carbon]."""
    z = np.asarray(z, dtype=float)
    if z.shape != (3,):
        raise ValueError("z must be [E, M, C]")
    return float(z @ matrix.h @ z)
