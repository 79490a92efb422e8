"""DQN learner shared by both detection agents, plus a tabular twin.

The network path drives the gateway simulator; the tabular path runs on
small synthetic MDPs with a known transition kernel, where the Bellman
operator can be applied exactly.  That twin is what makes the convergence
diagnostics honest: contraction ratios and the Lyapunov distance are
measured between Q-tables and against value iteration rather than against
the learner itself.  One loop, ``q_learning_run``, is the tabular learner
for the convergence checks, tabular training and the exploration sweep.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from . import neural
from .neural import DenseParams, mapped_zeros, stack_forward
from .rules import check_fields


class InsufficientData(Exception):
    """Raised when the replay buffer cannot fill a minibatch yet."""


class Diverged(ValueError):
    """Raised when the Q-network yields non-finite values or TD loss."""


class ActionId(IntEnum):
    """The four mitigation actions, in fixed tie-break order."""

    RATE_LIMIT = 0      # cap total packets/s
    SYN_THROTTLE = 1    # cap SYN packets/s
    BLOCK_ANOMALOUS = 2  # drop flows flagged anomalous
    SOURCE_FILTER = 3   # blacklist persistent offenders


N_ACTIONS = len(ActionId)


class Minibatch(NamedTuple):
    """Transitions as columns, one row each: the replay ring and its samples."""

    states: np.ndarray      # [B, d]
    actions: np.ndarray     # [B] action ids
    rewards: np.ndarray     # [B]
    carbon_g: np.ndarray    # [B] step carbon in grams
    terminal: np.ndarray    # [B] bool
    s_next: np.ndarray      # [B, d]


class ReplayBuffer:
    """Bounded ring of transitions kept as Minibatch columns, with strictly
    oldest-first eviction.  Row k of the stream lives in slot k % capacity;
    the zeroed rows are allocated on the first store, shaped like its s."""

    def __init__(self, capacity=50_000, batch_size=64):
        if capacity < 1 or batch_size < 1:
            raise ValueError("capacity and batch_size must be positive")
        self.capacity = capacity
        self.batch_size = batch_size
        self._columns = None
        self._stored = 0  # rows ever stored

    def __len__(self):
        return min(self._stored, self.capacity)

    def store(self, s, a, r, s_next, carbon_g=0.0, terminal=False):
        if not np.isfinite(r):
            raise ValueError("transition reward must be finite")
        if self._columns is None:
            n, state_shape = self.capacity, (self.capacity, *np.shape(s))
            self._columns = Minibatch(
                mapped_zeros(state_shape), mapped_zeros(n, int), mapped_zeros(n),
                mapped_zeros(n), mapped_zeros(n, bool), mapped_zeros(state_shape))
        slot = self._stored % self.capacity
        for column, value in zip(self._columns, (s, a, r, carbon_g, terminal, s_next)):
            column[slot] = value
        self._stored += 1

    def snapshot(self):
        """Stored rows oldest to newest (for inspection and tests)."""
        idx = np.arange(self._stored - len(self), self._stored) % self.capacity
        return Minibatch._make(column[idx] for column in self._columns)

    def sample_minibatch(self, rng):
        """Uniform sampling with replacement; needs at least batch_size rows."""
        if len(self) < self.batch_size:
            raise InsufficientData(
                f"buffer holds {len(self)} < batch size {self.batch_size}")
        idx = rng.integers(0, len(self), size=self.batch_size)
        return Minibatch._make(column[idx] for column in self._columns)


@dataclass
class EpsilonSchedule:
    """Exploration coefficient with temperature normalization and decay.

    Sweep values above 1 are treated as exploration temperatures and mapped
    to a probability with min(1, value * unit), so "more exploration" stays
    meaningful without ever exceeding probability 1.
    """

    initial: float = 1.0
    unit: float = 0.5
    decay: float = 0.995
    floor: float = 0.05

    def __post_init__(self):
        check_fields(self, (
            ("initial", self.initial >= 0, "must be >= 0"),
            ("unit", self.unit > 0, "must be positive"),
            ("decay", 0.0 < self.decay <= 1.0, "must lie in (0, 1]"),
            ("floor", 0.0 <= self.floor <= 1.0, "must lie in [0, 1]")))

    def start_probability(self):
        return min(1.0, self.initial * self.unit)


def decay_epsilon(eps, decay, floor):
    """Multiplicative decay with a floor: max(floor, eps * decay)."""
    return max(floor, eps * decay)


def robbins_monro_eta(k, p):
    """Step size k^(-p); the exponent must lie in (0.5, 1) so that the
    step-size series diverges while its squares stay summable."""
    if not 0.5 < p < 1.0:
        raise ValueError(f"exponent p={p} outside (0.5, 1)")
    if k < 1:
        raise ValueError("k must be >= 1")
    return float(k) ** (-p)


@dataclass
class AgentHyperparams:
    gamma: float = 0.9
    epsilon: EpsilonSchedule = field(default_factory=EpsilonSchedule)
    lr: float = 0.5
    target_sync_every: int = 500
    buffer_capacity: int = 50_000
    batch_size: int = 64

    def __post_init__(self):
        check_fields(self, (
            ("gamma", 0.0 < self.gamma < 1.0, "must lie in (0, 1)"),
            ("lr", self.lr > 0, "must be positive"),
            ("target_sync_every", self.target_sync_every >= 1, "must be >= 1"),
            ("buffer_capacity", self.buffer_capacity >= 1, "must be positive"),
            ("batch_size", self.batch_size >= 1, "must be positive"),
            # the buffer never holds more rows than it can keep, so a smaller
            # one would never fill a minibatch and the DQN would never update
            ("buffer_capacity", self.buffer_capacity >= self.batch_size,
             f"must be at least batch_size ({self.batch_size})")))


# ---------------------------------------------------------------------------
# Q-network
# ---------------------------------------------------------------------------

@dataclass
class QNetwork:
    """Dense stack mapping a state vector to one Q-value per action."""

    layers: list

    def __post_init__(self):
        if self.layers[-1].n_out != N_ACTIONS:
            raise ValueError(f"Q-network must output {N_ACTIONS} values")

    @property
    def input_dim(self):
        return self.layers[0].n_in

    def q_values(self, s):
        return stack_forward(self.layers, s)

    def copy(self):
        return QNetwork([
            DenseParams(l.w.copy(), l.b.copy(), l.activation) for l in self.layers
        ])

    def sync_from(self, other):
        for mine, theirs in zip(self.layers, other.layers):
            mine.w[...] = theirs.w
            mine.b[...] = theirs.b


def qnetwork_init(state_dim, rng, hidden=(32, 32)):
    dims = [state_dim, *hidden]
    layers = [neural.dense_init(dims[i], dims[i + 1], "relu", rng)
              for i in range(len(dims) - 1)]
    layers.append(neural.dense_init(dims[-1], N_ACTIONS, "identity", rng))
    return QNetwork(layers)


def select_action(q, s, epsilon, rng):
    """Epsilon-greedy over Q(s, .); greedy ties break to the lowest action id."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    if epsilon > 0.0 and rng.random() < epsilon:
        return ActionId(int(rng.integers(N_ACTIONS)))
    # a diverged network overflows here; the finite check below fails it
    with np.errstate(over="ignore", invalid="ignore"):
        values = q.q_values(s)
    if not np.all(np.isfinite(values)):
        raise Diverged("non-finite Q values")
    return ActionId(int(np.argmax(values)))


def td_targets(batch, q_target, gamma, carbon_weight=0.0):
    """r + gamma * max_a Q_target(s', a) per row of a Minibatch, with r
    alone at episode boundaries; one target-network forward for the batch.

    carbon_weight > 0 subtracts a scalar penalty proportional to each
    step's raw carbon emission (the carbon_g column), realizing the
    carbon-weighted update as a target-side penalty.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    targets = batch.rewards
    if carbon_weight > 0.0:
        targets = targets - carbon_weight * batch.carbon_g
    bootstrap = gamma * np.max(q_target.q_values(batch.s_next), axis=1)
    return np.where(batch.terminal, targets, targets + bootstrap)


def q_update_network(q, work, batch, q_target, gamma, lr, carbon_weight=0.0):
    """One SGD step on the mean squared TD error of a Minibatch, run in
    `work`, a neural.DenseWork over q.layers for the batch's rows that a
    training loop builds once.

    Only the taken action's output contributes per sample.  Returns
    (loss_before_step, td_errors).
    """
    rows = np.arange(len(batch.rewards))
    # a diverged network overflows here; the finite-loss check fails it
    with np.errstate(over="ignore", invalid="ignore"):
        targets = td_targets(batch, q_target, gamma, carbon_weight)
        out = work.forward(q.layers, batch.states)
        td_errors = out[rows, batch.actions] - targets
        loss = float(np.mean(td_errors ** 2))
        if not np.isfinite(loss):
            raise Diverged("non-finite TD loss")

        d_out = work.back(0, N_ACTIONS)
        d_out.fill(0.0)
        d_out[rows, batch.actions] = 2.0 * td_errors / len(rows)
        work.backward(q.layers, batch.states)
        work.sgd(q.layers, lr)
    return loss, td_errors


def q_update_tabular(q_table, s, a, target, eta):
    """Convex-combination update on one entry; all others untouched."""
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    q_table[s, a] = (1.0 - eta) * q_table[s, a] + eta * target
    return q_table


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceDiagnostics:
    steps: list = field(default_factory=list)
    epsilon: list = field(default_factory=list)
    eta: list = field(default_factory=list)
    td_error_mean: list = field(default_factory=list)
    lyapunov: list = field(default_factory=list)
    contraction_ratio: list = field(default_factory=list)
    returns: list = field(default_factory=list)  # reward sum per window; not in the CSV

    def to_csv(self, path):
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(
                ["step", "epsilon", "eta", "td_error_mean", "lyapunov",
                 "contraction_ratio"]
            )
            for row in zip(self.steps, self.epsilon, self.eta,
                           self.td_error_mean, self.lyapunov,
                           self.contraction_ratio):
                writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                                 else v for v in row])


def lyapunov_distance(q, q_ref):
    """Half the summed squared entry-wise difference between two Q-tables.

    The reference stands in for the (unobservable) fixed point.
    """
    if q.shape != q_ref.shape:
        raise ValueError("table shapes differ")
    d = q - q_ref
    return 0.5 * float((d * d).sum())


# ---------------------------------------------------------------------------
# tabular MDPs: exact Bellman operator, value iteration, Q-learning
# ---------------------------------------------------------------------------

@dataclass
class TabularMDP:
    """Finite MDP with known kernel P[s, a, s'] and rewards R[s, a]."""

    transitions: np.ndarray
    rewards: np.ndarray
    gamma: float

    def __post_init__(self):
        p = self.transitions
        if p.ndim != 3 or p.shape[0] != p.shape[2]:
            raise ValueError("transitions must be [S, A, S]")
        # the checks Generator.choice(n, p=row) made on every draw
        if np.any(p < 0):
            raise ValueError("transition probabilities must be non-negative")
        if not np.all(np.abs(p.sum(axis=2) - 1.0) <= np.sqrt(np.finfo(float).eps)):
            raise ValueError("transition rows must sum to 1")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        # Generator.choice(n, p=row) draws searchsorted(cumsum(row) /
        # cumsum(row)[-1], rng.random(), side="right"); step draws the same
        cdf = np.cumsum(p, axis=2)
        self._cdf = cdf / cdf[:, :, -1:]

    @property
    def n_states(self):
        return self.transitions.shape[0]

    @property
    def n_actions(self):
        return self.transitions.shape[1]

    def bellman(self, q):
        """Exact optimality operator: R + gamma * P (max_a' Q)."""
        v = q.max(axis=1)
        return self.rewards + self.gamma * self.transitions @ v

    def value_iteration(self, tol=1e-13, max_iter=100_000):
        q = np.zeros_like(self.rewards)
        for _ in range(max_iter):
            q_next = self.bellman(q)
            if np.max(np.abs(q_next - q)) < tol:
                return q_next
            q = q_next
        return q

    def step(self, s, a, rng):
        s_next = int(self._cdf[s, a].searchsorted(rng.random(), side="right"))
        return s_next, float(self.rewards[s, a])


def random_mdp(n_states, n_actions, gamma, rng, reward_scale=1.0):
    raw = rng.uniform(0.05, 1.0, size=(n_states, n_actions, n_states))
    p = raw / raw.sum(axis=2, keepdims=True)
    r = rng.uniform(-reward_scale, reward_scale, size=(n_states, n_actions))
    return TabularMDP(p, r, gamma)


def toy_mdp(gamma=0.9):
    """The lab's fixed 4-state / 4-action benchmark MDP.

    Transitions are deterministic (action a moves state s to (s + a) mod 4,
    a strongly connected graph), rewards are fixed values in [-1, 1].  The
    deterministic kernel keeps the stochastic-approximation noise floor at
    zero, so decaying-step Q-learning can actually reach the value-iteration
    fixed point to tight precision; dense random kernels (random_mdp) are
    used where kernel noise is part of the point, e.g. contraction checks.
    """
    n = 4
    p = np.zeros((n, n, n))
    for s in range(n):
        for a in range(n):
            p[s, a, (s + a) % n] = 1.0
    r = np.random.default_rng(2024).uniform(-1.0, 1.0, size=(n, n))
    return TabularMDP(p, r, gamma)


def empirical_contraction_ratio(mdp, q1, q2):
    """||T Q1 - T Q2||_inf / ||Q1 - Q2||_inf under the exact operator."""
    denom = float(np.max(np.abs(q1 - q2)))
    if denom == 0.0:
        raise ValueError("Q tables must differ")
    num = float(np.max(np.abs(mdp.bellman(q1) - mdp.bellman(q2))))
    return num / denom


def q_learning_run(mdp, n_updates, p=0.6, seed=0, probe_every=500,
                   epsilon=1.0, decay=1.0, floor=0.0):
    """Tabular Q-learning with per-pair step sizes k^(-p), behavior
    epsilon-greedy (epsilon=1 gives the uniform exploration used by the
    convergence suite).  Each window of probe_every updates records its
    epsilon, reward sum and a probe against value iteration, then epsilon
    decays to max(floor, epsilon * decay); the defaults keep it constant.
    Returns (Q, ConvergenceDiagnostics)."""
    rng = np.random.default_rng(seed)
    q = np.zeros((mdp.n_states, mdp.n_actions))
    counts = np.zeros((mdp.n_states, mdp.n_actions), dtype=int)
    q_star = mdp.value_iteration()
    diag = ConvergenceDiagnostics()
    s = 0
    td_acc = []
    window_return = 0.0
    for k in range(1, n_updates + 1):
        if rng.random() < epsilon:
            a = int(rng.integers(mdp.n_actions))
        else:
            a = int(np.argmax(q[s]))
        s_next, r = mdp.step(s, a, rng)
        counts[s, a] += 1
        eta = robbins_monro_eta(counts[s, a], p)
        target = r + mdp.gamma * float(q[s_next].max())
        td_acc.append(abs(target - q[s, a]))
        q_update_tabular(q, s, a, target, eta)
        window_return += r
        if k % probe_every == 0:
            diag.steps.append(k)
            diag.epsilon.append(epsilon)
            diag.eta.append(eta)
            diag.td_error_mean.append(float(np.mean(td_acc)))
            diag.lyapunov.append(lyapunov_distance(q, q_star))
            # once Q sits on the fixed point the ratio denominator is pure
            # rounding noise; hold the last meaningful value instead
            denom = float(np.max(np.abs(q - q_star)))
            if denom > 1e-4:
                ratio = empirical_contraction_ratio(mdp, q, q_star)
            elif diag.contraction_ratio:
                ratio = diag.contraction_ratio[-1]
            else:
                ratio = 0.0
            diag.contraction_ratio.append(ratio)
            diag.returns.append(window_return)
            epsilon = decay_epsilon(epsilon, decay, floor)
            td_acc = []
            window_return = 0.0
        s = s_next
    return q, diag
