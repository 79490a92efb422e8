"""Carbon-aware multi-objective reward and sustainability accounting.

The reward trades detection quality against latency, energy, memory, and
carbon cost.  The ledger records per-step power draw, energy, memory
utilization, and emissions, and can verify the physical bounds
(energy <= max power * dt, carbon <= max intensity * energy) on every step.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .rules import check_fields

JOULES_PER_KWH = 3.6e6


def g_per_kwh_to_g_per_joule(value):
    return value / JOULES_PER_KWH


@dataclass
class RewardWeights:
    """Non-negative weights for the six reward terms.

    The agent kind selects which false rate the second term penalizes:
    the unsupervised agent pays for false positives, the supervised one
    for false negatives.  Caps bound latency and energy before weighting
    so the per-step reward stays bounded.
    """

    alpha: float = 1.0       # detection rate
    beta: float = 0.5        # false-positive (or false-negative) rate
    lambda_l: float = 0.1    # response latency, seconds
    delta: float = 0.01      # energy overhead, joules
    epsilon_m: float = 0.1   # memory utilization ratio
    zeta: float = 0.05       # carbon emission, grams CO2
    l_cap: float = 5.0
    e_cap: float = 5.0

    def __post_init__(self):
        names = ("alpha", "beta", "lambda_l", "delta", "epsilon_m", "zeta")
        weights = [getattr(self, name) for name in names]
        check_fields(self, (
            *((name, np.isfinite(w) and w >= 0, "must be finite and >= 0")
              for name, w in zip(names, weights)),
            ("alpha", any(w > 0 for w in weights),
             "or another weight must be positive"),
            ("l_cap", self.l_cap > 0, "must be positive"),
            ("e_cap", self.e_cap > 0, "must be positive")))

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


# ---------------------------------------------------------------------------
# sustainability ledger
# ---------------------------------------------------------------------------

@dataclass
class LedgerLimits:
    p_max: float = 5.0                                    # watts
    kappa_max: float = g_per_kwh_to_g_per_joule(500.0)    # gCO2 per joule
    e_max: float = float("inf")                           # cumulative joules
    m_max: float = 1.0                                    # utilization ratio

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


# the float columns of a ledger's records, in write_ledger_csv's order
LEDGER_COLUMNS = ("power_w", "dt_s", "energy_j", "m_util", "carbon_g")


class SustainabilityLedger:
    """Per-step energy/memory/carbon records with monotone cumulative sums.

    The records sit in numpy columns that double when full: each step's
    number, and its LEDGER_COLUMNS values.  A record's carbon intensity and
    memory byte counts reach only the LedgerEntry that record returns."""

    def __init__(self, limits=None):
        self.limits = limits or LedgerLimits()
        self._steps = np.zeros(64, dtype=np.int64)
        self._values = np.zeros((64, len(LEDGER_COLUMNS)))
        self._n = 0
        self.cumulative_energy_j = 0.0
        self.cumulative_carbon_g = 0.0

    def __len__(self):
        return self._n

    def record(self, step, power_w, dt_s, kappa, m_active, m_total):
        e = energy_overhead(power_w, dt_s)
        m = memory_util(m_active, m_total)
        c = carbon_emission(e, kappa)
        self.cumulative_energy_j += e
        self.cumulative_carbon_g += c
        n = self._n
        if n == len(self._steps):
            self._steps = np.concatenate((self._steps, np.zeros_like(self._steps)))
            self._values = np.concatenate((self._values, np.zeros_like(self._values)))
        self._steps[n] = step
        self._values[n] = power_w, dt_s, e, m, c
        self._n = n + 1
        return LedgerEntry(step, power_w, dt_s, kappa, m_active, m_total, e, m, c)

    def records(self):
        """(steps, values): views of the recorded rows, the values' columns
        in LEDGER_COLUMNS order."""
        return self._steps[:self._n], self._values[:self._n]

    def check_bounds(self):
        """Empty list iff every step obeys the power/intensity bounds and
        the cumulative and utilization limits.  Violations come in step
        order, and within a step as energy_step, carbon_step, memory,
        energy_cumulative."""
        lim = self.limits
        steps, values = self.records()
        _, dt, energy, util, carbon = values.T
        checks = (
            ("energy_step", energy, lim.p_max * dt),
            ("carbon_step", carbon, lim.kappa_max * energy),
            ("memory", util, lim.m_max),
            # summed from 0.0 in step order, as cumulative_energy_j is
            ("energy_cumulative", np.cumsum(np.append(0.0, energy))[1:], lim.e_max),
        )
        broken = np.column_stack([value > bound for _, value, bound in checks])
        violations = []
        for i, k in zip(*np.nonzero(broken)):
            kind, value, bound = checks[k]
            violations.append(BoundViolation(
                steps[i].item(), kind, value[i].item(),
                bound[i].item() if np.ndim(bound) else bound))
        return violations

    def to_csv(self, path):
        write_ledger_csv(path, [self])


def write_ledger_csv(path, ledgers, episode_len=0):
    """Every ledger's records as CSV rows; episode k's steps are offset by
    k * episode_len."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["step", "P_w", "dt_s", "E_j", "M_ratio", "C_g"])
        for episode, ledger in enumerate(ledgers):
            steps, values = ledger.records()
            writer.writerows(
                [step, *row] for step, row in
                zip((steps + episode * episode_len).tolist(), values.tolist()))


def load_kappa_schedule(path, kappa_max):
    """CSV with columns step,kappa_g_per_joule -> {step: kappa}; a bad value
    or a kappa not finite and in [0, kappa_max] (g/J) raises ValueError
    naming file and line."""
    schedule = {}
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        try:
            if not {"step", "kappa_g_per_joule"} <= set(reader.fieldnames or ()):
                raise ValueError("needs step,kappa_g_per_joule columns")
            for row in reader:
                kappa = float(row["kappa_g_per_joule"])
                if not (np.isfinite(kappa) and 0 <= kappa <= kappa_max):
                    raise ValueError(f"kappa {kappa} must be finite and in "
                                     f"[0, {kappa_max:g}]")
                schedule[int(row["step"])] = kappa
        except (csv.Error, TypeError, ValueError) as exc:
            raise ValueError(
                f"kappa schedule {path}, line {reader.line_num}: {exc}") from exc
    if not schedule:
        raise ValueError(f"empty kappa schedule {path}")
    return schedule


class KappaProvider:
    """Constant carbon intensity, optionally overridden per step by a schedule."""

    def __init__(self, default_g_per_j, schedule=None):
        if default_g_per_j < 0:
            raise ValueError("carbon intensity must be >= 0")
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
