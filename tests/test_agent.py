from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeids import agent as ag
from edgeids import neural
from edgeids.agent import (
    ActionId,
    AgentHyperparams,
    EpsilonSchedule,
    InsufficientData,
    Minibatch,
    ReplayBuffer,
    decay_epsilon,
    empirical_contraction_ratio,
    lyapunov_distance,
    q_update_tabular,
    qnetwork_init,
    random_mdp,
    robbins_monro_eta,
    select_action,
    td_targets,
    toy_mdp,
)


def transition(s, a, r, s_next, carbon_g=0.0, terminal=False):
    """One transition in ReplayBuffer.store's argument order."""
    return s, a, r, s_next, carbon_g, terminal


def minibatch(transitions):
    """The Minibatch whose rows are the given transitions, in order."""
    s, a, r, s_next, carbon_g, terminal = zip(*transitions)
    return Minibatch(np.array(s, dtype=float), np.array(a, dtype=int),
                     np.array(r, dtype=float), np.array(carbon_g, dtype=float),
                     np.array(terminal, dtype=bool), np.array(s_next, dtype=float))


def assert_batch_is(batch, transitions):
    for got, want in zip(batch, minibatch(transitions), strict=True):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


class FixedQ:
    """Q stub returning a constant row regardless of state, one per input
    row for a stacked batch."""

    def __init__(self, row):
        self.row = np.asarray(row, dtype=float)

    def q_values(self, s):
        if np.ndim(s) == 2:
            return np.tile(self.row, (len(s), 1))
        return self.row


def batch_targets(transitions, q_target, gamma, carbon_weight=0.0):
    return td_targets(minibatch(transitions), q_target, gamma, carbon_weight)


# ---------------------------------------------------------------------------
# action selection
# ---------------------------------------------------------------------------

def test_select_action_greedy_argmax():
    rng = np.random.default_rng(0)
    a = select_action(FixedQ([1.0, 5.0, 2.0, 0.0]), None, 0.0, rng)
    assert a == ActionId.SYN_THROTTLE


def test_select_action_tie_breaks_low():
    rng = np.random.default_rng(0)
    a = select_action(FixedQ([3.0, 3.0, 1.0, 1.0]), None, 0.0, rng)
    assert a == ActionId.RATE_LIMIT


def test_select_action_uniform_when_exploring():
    rng = np.random.default_rng(1)
    counts = np.zeros(4)
    n = 10_000
    for _ in range(n):
        counts[select_action(FixedQ([9.0, 0.0, 0.0, 0.0]), None, 1.0, rng)] += 1
    sigma = np.sqrt(n * 0.25 * 0.75)
    assert np.all(np.abs(counts - n * 0.25) <= 3 * sigma)


def test_select_action_greedy_affine_invariance():
    rng = np.random.default_rng(2)
    for _ in range(50):
        row = rng.normal(size=4)
        base = select_action(FixedQ(row), None, 0.0, rng)
        scaled = select_action(FixedQ(3.7 * row + 11.0), None, 0.0, rng)
        assert base == scaled


def test_select_action_rejects_bad_inputs():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        select_action(FixedQ([1.0, 2.0, 3.0, 4.0]), None, 1.5, rng)
    with pytest.raises(ValueError):
        select_action(FixedQ([np.nan, 0.0, 0.0, 0.0]), None, 0.0, rng)


# ---------------------------------------------------------------------------
# replay buffer
# ---------------------------------------------------------------------------

def test_buffer_grows_then_evicts_oldest():
    buf = ReplayBuffer(capacity=50_000, batch_size=64)
    buf.store(0, ActionId.RATE_LIMIT, 0.0, 1)
    assert len(buf) == 1
    for k in range(1, 50_001):
        buf.store(k, ActionId.RATE_LIMIT, 0.0, k + 1)
    assert len(buf) == 50_000
    survivors = buf.snapshot().states
    assert survivors[0] == 1 and survivors[-1] == 50_000  # step 0 evicted


def test_buffer_survivors_keep_insertion_order():
    rng = np.random.default_rng(3)
    buf = ReplayBuffer(capacity=16, batch_size=4)
    reference = []
    for k in range(200):
        buf.store(k, ActionId.BLOCK_ANOMALOUS, 0.0, k + 1)
        reference.append(k)
        if len(reference) > 16:
            reference.pop(0)
        if rng.random() < 0.3:
            snap = buf.snapshot()
            assert snap.states.tolist() == reference
            assert snap.s_next.tolist() == [v + 1 for v in reference]


def test_sampling_requires_full_batch():
    buf = ReplayBuffer(capacity=100, batch_size=64)
    for k in range(63):
        buf.store(k, ActionId.RATE_LIMIT, 0.0, k + 1)
    with pytest.raises(InsufficientData):
        buf.sample_minibatch(np.random.default_rng(0))
    buf.store(63, ActionId.RATE_LIMIT, 0.0, 64)
    batch = buf.sample_minibatch(np.random.default_rng(0))
    assert len(batch.rewards) == 64
    assert set(batch.states) <= set(buf.snapshot().states)
    assert np.array_equal(batch.s_next, batch.states + 1)


def test_sampling_with_replacement_is_uniform():
    buf = ReplayBuffer(capacity=10, batch_size=10)
    for k in range(10):
        buf.store(k, ActionId.RATE_LIMIT, 0.0, k + 1)
    rng = np.random.default_rng(4)
    counts = np.zeros(10)
    draws = 10_000
    for _ in range(draws // 10):
        np.add.at(counts, buf.sample_minibatch(rng).states.astype(int), 1)
    sigma = np.sqrt(draws * 0.1 * 0.9)
    assert np.all(np.abs(counts - draws * 0.1) <= 3 * sigma)


def test_transition_rejects_non_finite_reward():
    buf = ReplayBuffer(capacity=4, batch_size=1)
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError):
            buf.store(0, ActionId.RATE_LIMIT, bad, 1)
    assert len(buf) == 0


@settings(max_examples=150, deadline=None)
@given(capacity=st.integers(1, 12), batch_size=st.integers(1, 6),
       n_rows=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_ring_matches_deque_reference(capacity, batch_size, n_rows, seed):
    rng = np.random.default_rng(seed)
    buf = ReplayBuffer(capacity, batch_size)
    reference = deque(maxlen=capacity)
    for _ in range(n_rows):
        t = transition(rng.normal(size=3), ActionId(int(rng.integers(4))),
                       float(rng.normal()), rng.normal(size=3), float(rng.uniform()),
                       bool(rng.random() < 0.2))
        buf.store(*t)
        reference.append(t)
    assert len(buf) == len(reference)
    assert_batch_is(buf.snapshot(), reference)
    if len(reference) < batch_size:
        with pytest.raises(InsufficientData):
            buf.sample_minibatch(np.random.default_rng(seed))
        return
    # row k of the stream sits in slot k % capacity, so slot i holds the
    # reference row (i - n_rows) mod len
    idx = np.random.default_rng(seed).integers(0, len(reference), size=batch_size)
    assert_batch_is(buf.sample_minibatch(np.random.default_rng(seed)),
                    [reference[(i - n_rows) % len(reference)] for i in idx])


# ---------------------------------------------------------------------------
# TD targets and updates
# ---------------------------------------------------------------------------

def test_td_target_arithmetic():
    batch = [transition([0.0], ActionId.RATE_LIMIT, 1.0, [1.0]),
             transition([0.0], ActionId.BLOCK_ANOMALOUS, -0.5, [2.0])]
    targets = batch_targets(batch, FixedQ([2.0, 1.0, 0.0, 0.0]), 0.9)
    assert targets.shape == (2,)
    assert targets == pytest.approx([2.8, 1.3])


def test_td_target_terminal_boundary():
    batch = [transition([0.0], ActionId.RATE_LIMIT, 1.0, [1.0], terminal=True),
             transition([0.0], ActionId.RATE_LIMIT, 1.0, [1.0])]
    targets = batch_targets(batch, FixedQ([99.0, 0.0, 0.0, 0.0]), 0.9)
    assert targets[0] == 1.0
    assert targets[1] == pytest.approx(1.0 + 0.9 * 99.0)
    with pytest.raises(ValueError):
        batch_targets(batch, FixedQ([99.0, 0.0, 0.0, 0.0]), 1.0)


def test_td_target_matches_scalar_recomputation():
    rng = np.random.default_rng(5)
    for _ in range(50):
        row = rng.normal(size=4)
        rewards = rng.normal(size=3)
        batch = [transition([0.0], ActionId.RATE_LIMIT, float(r), [1.0])
                 for r in rewards]
        expected = [float(r) + 0.9 * max(row) for r in rewards]
        assert batch_targets(batch, FixedQ(row), 0.9) == \
            pytest.approx(expected, rel=1e-12)


finite = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(finite, st.booleans(), st.floats(0.0, 1e3),
                               st.lists(finite, min_size=3, max_size=3)),
                     min_size=1, max_size=16),
       carbon_weight=st.sampled_from([0.0, 0.5, 3.0]),
       gamma=st.floats(0.01, 0.99))
def test_td_targets_match_per_row_formula(rows, carbon_weight, gamma):
    rng = np.random.default_rng(len(rows))
    q_target = qnetwork_init(3, rng, hidden=(5,))
    batch = [transition(np.zeros(3), ActionId.RATE_LIMIT, r, np.array(s_next),
                        carbon, terminal)
             for r, terminal, carbon, s_next in rows]
    expected = []
    for _, _, r, s_next, carbon, terminal in batch:
        y = r
        if carbon_weight > 0.0:
            y -= carbon_weight * carbon
        if not terminal:
            y += gamma * float(np.max(q_target.q_values(s_next)))
        expected.append(y)
    got = batch_targets(batch, q_target, gamma, carbon_weight)
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_q_update_tabular_endpoints():
    q = np.zeros((2, 2))
    q_update_tabular(q, 0, 1, target=5.0, eta=1.0)
    assert q[0, 1] == 5.0
    q2 = q.copy()
    with pytest.raises(ValueError):
        q_update_tabular(q, 0, 1, target=7.0, eta=0.0)
    assert np.array_equal(q, q2)
    q_update_tabular(q, 0, 1, target=7.0, eta=0.5)
    assert q[0, 1] == 6.0
    assert q[1, 1] == 0.0  # untouched entries


def test_q_update_network_zero_gradient_when_targets_match():
    rng = np.random.default_rng(6)
    q = qnetwork_init(3, rng, hidden=(8,))
    s = rng.normal(size=3)
    s2 = rng.normal(size=3)
    target_net = q.copy()
    # choose reward so the target equals the current prediction exactly
    a = ActionId.BLOCK_ANOMALOUS
    gamma = 0.9
    r = float(q.q_values(s)[a]) - gamma * float(np.max(q.q_values(s2)))
    batch = minibatch([transition(s, a, r, s2)])
    before = [l.w.copy() for l in q.layers]
    work = neural.DenseWork(q.layers, 1)
    loss, _ = ag.q_update_network(q, work, batch, target_net, gamma, lr=0.1)
    assert loss == pytest.approx(0.0, abs=1e-20)
    for layer, w in zip(q.layers, before):
        assert np.array_equal(layer.w, w)


def test_q_update_network_matches_hand_gradient():
    # single linear layer, single sample: dloss/dw = 2*(q_a - y) * s on row a
    rng = np.random.default_rng(7)
    layer = neural.DenseParams(rng.normal(size=(4, 2)), np.zeros(4), "identity")
    q = ag.QNetwork([layer])
    target_net = q.copy()
    s = np.array([0.5, -1.0])
    s2 = np.array([0.2, 0.3])
    batch = minibatch([transition(s, ActionId.RATE_LIMIT, 0.7, s2)])
    y = float(td_targets(batch, target_net, 0.9)[0])
    q_a = float(q.q_values(s)[0])
    w_before = layer.w.copy()
    ag.q_update_network(q, neural.DenseWork(q.layers, 1), batch, target_net, 0.9,
                        lr=0.05)
    expected_row0 = w_before[0] - 0.05 * 2.0 * (q_a - y) * s
    assert np.allclose(layer.w[0], expected_row0, atol=1e-12)
    assert np.array_equal(layer.w[1:], w_before[1:])


def test_q_update_network_reduces_loss_for_small_lr():
    rng = np.random.default_rng(8)
    q = qnetwork_init(4, rng, hidden=(12,))
    target_net = q.copy()
    batch = minibatch([
        transition(rng.normal(size=4), ActionId(int(rng.integers(4))),
                   float(rng.normal()), rng.normal(size=4))
        for _ in range(16)
    ])
    targets = td_targets(batch, target_net, 0.9)

    def batch_loss():
        out = q.q_values(batch.states)
        taken = out[np.arange(len(batch.rewards)), batch.actions]
        return float(np.mean((taken - targets) ** 2))

    before = batch_loss()
    ag.q_update_network(q, neural.DenseWork(q.layers, 16), batch, target_net, 0.9,
                        lr=1e-3)
    assert batch_loss() <= before


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_robbins_monro_eta():
    assert robbins_monro_eta(1, 0.7) == 1.0
    assert robbins_monro_eta(100, 0.6) == pytest.approx(0.063096, abs=1e-5)
    with pytest.raises(ValueError):
        robbins_monro_eta(10, 0.4)
    with pytest.raises(ValueError):
        robbins_monro_eta(10, 1.0)


def test_decay_epsilon():
    assert decay_epsilon(0.05, 0.99, 0.05) == 0.05
    assert decay_epsilon(1.0, 0.99, 0.05) == pytest.approx(0.99)
    eps = 1.0
    seq = []
    for n in range(1, 500):
        eps = decay_epsilon(eps, 0.99, 0.05)
        seq.append(eps)
        assert eps == pytest.approx(max(0.05, 0.99 ** n), rel=1e-12)
    assert all(a >= b for a, b in zip(seq, seq[1:]))


def test_epsilon_schedule_temperature_normalization():
    assert EpsilonSchedule(initial=2.0, unit=0.5).start_probability() == 1.0
    assert EpsilonSchedule(initial=1.0, unit=0.5).start_probability() == 0.5
    assert EpsilonSchedule(initial=0.4, unit=0.5).start_probability() == pytest.approx(0.2)
    assert EpsilonSchedule(initial=4.0, unit=0.5).start_probability() == 1.0


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        AgentHyperparams(gamma=1.0)
    with pytest.raises(ValueError):
        AgentHyperparams(lr=0.0)
    defaults = AgentHyperparams()
    assert defaults.buffer_capacity == 50_000
    assert defaults.batch_size == 64


def test_hyperparams_buffer_must_hold_a_minibatch():
    # a buffer smaller than a minibatch would train with zero DQN updates
    with pytest.raises(ValueError, match=r"^buffer_capacity .*batch_size \(64\), got 63"):
        AgentHyperparams(buffer_capacity=63)
    assert AgentHyperparams(buffer_capacity=64).buffer_capacity == 64
    assert AgentHyperparams(buffer_capacity=4, batch_size=4).batch_size == 4


# ---------------------------------------------------------------------------
# Lyapunov distance and contraction
# ---------------------------------------------------------------------------

def test_lyapunov_distance_tabular():
    q = np.zeros((3, 2))
    assert lyapunov_distance(q, q.copy()) == 0.0
    q2 = q.copy()
    q2[1, 0] = 2.0
    assert lyapunov_distance(q, q2) == 2.0  # 0.5 * 2^2


def test_contraction_constant_shift_is_gamma_exact():
    mdp = toy_mdp(gamma=0.9)
    rng = np.random.default_rng(10)
    q1 = rng.normal(size=(4, 4))
    for c in (1.0, 2.0, 0.5):
        ratio = empirical_contraction_ratio(mdp, q1, q1 + c)
        # the analytic value is exactly gamma; float dot products leave ~2 ulp
        assert ratio == pytest.approx(0.9, abs=1e-12)


def test_contraction_ratio_bounded_by_gamma():
    mdp = toy_mdp(gamma=0.9)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        q1 = rng.normal(scale=rng.uniform(0.1, 10.0), size=(4, 4))
        q2 = rng.normal(scale=rng.uniform(0.1, 10.0), size=(4, 4))
        worst = max(worst, empirical_contraction_ratio(mdp, q1, q2))
    assert worst <= 0.9 + 1e-12


def test_contraction_rejects_equal_tables():
    mdp = toy_mdp()
    q = np.ones((4, 4))
    with pytest.raises(ValueError):
        empirical_contraction_ratio(mdp, q, q.copy())


# ---------------------------------------------------------------------------
# tabular convergence
# ---------------------------------------------------------------------------

def test_mdp_rejects_negative_probabilities():
    # each row sums to 1, but one entry is negative
    p = np.zeros((2, 1, 2))
    p[0, 0] = [1.5, -0.5]
    p[1, 0] = [0.5, 0.5]
    with pytest.raises(ValueError, match="non-negative"):
        ag.TabularMDP(p, np.zeros((2, 1)), 0.9)


@pytest.mark.parametrize("mdp", [
    toy_mdp(),
    random_mdp(7, 3, gamma=0.9, rng=np.random.default_rng(13)),
], ids=["toy", "random_7x3"])
def test_step_draws_match_generator_choice(mdp):
    pairs = np.random.default_rng(14).integers(
        0, [mdp.n_states, mdp.n_actions], size=(10_000, 2))
    rng, ref = np.random.default_rng(15), np.random.default_rng(15)
    for s, a in pairs:
        s_next, r = mdp.step(s, a, rng)
        assert s_next == ref.choice(mdp.n_states, p=mdp.transitions[s, a])
        assert r == mdp.rewards[s, a]


def test_value_iteration_fixed_point():
    mdp = toy_mdp()
    q_star = mdp.value_iteration()
    assert np.max(np.abs(mdp.bellman(q_star) - q_star)) < 1e-10


def test_q_learning_reaches_value_iteration_fixed_point():
    mdp = toy_mdp(gamma=0.9)
    q_star = mdp.value_iteration()
    q, diag = ag.q_learning_run(mdp, n_updates=200_000, p=0.6, seed=0)
    assert np.max(np.abs(q - q_star)) < 1e-3
    assert all(v >= 0 and np.isfinite(v) for v in diag.lyapunov)
    assert all(r <= 0.9 + 1e-9 for r in diag.contraction_ratio)


def test_learned_q_bounded_by_return_bound():
    mdp = toy_mdp(gamma=0.9)
    q, _ = ag.q_learning_run(mdp, n_updates=50_000, p=0.6, seed=1)
    r_max = float(np.max(np.abs(mdp.rewards)))
    bound = r_max / (1.0 - mdp.gamma)
    assert np.max(np.abs(q)) <= bound


def test_noisy_kernel_convergence_is_coarser():
    # with a dense random kernel the decaying-step noise floor dominates;
    # the run should still land near the fixed point
    rng = np.random.default_rng(12)
    mdp = random_mdp(2, 2, gamma=0.8, rng=rng)
    q, _ = ag.q_learning_run(mdp, n_updates=80_000, p=0.6, seed=2)
    assert np.max(np.abs(q - mdp.value_iteration())) < 0.05


def test_diagnostics_csv_round_trip(tmp_path):
    mdp = toy_mdp()
    _, diag = ag.q_learning_run(mdp, n_updates=2000, p=0.6, seed=3, probe_every=500)
    path = tmp_path / "diag.csv"
    diag.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,epsilon,eta,td_error_mean,lyapunov,contraction_ratio"
    assert len(lines) == 1 + len(diag.steps)


def test_q_learning_decays_epsilon_per_window():
    _, diag = ag.q_learning_run(toy_mdp(), n_updates=1050, probe_every=100,
                                epsilon=0.9, decay=0.6, floor=0.1)
    expected = [0.9]
    for _ in range(9):
        expected.append(decay_epsilon(expected[-1], 0.6, 0.1))
    assert diag.epsilon == expected
    assert expected[-1] == 0.1
    assert len(diag.returns) == len(diag.steps) == 10
    assert all(isinstance(v, float) for v in diag.returns)


def test_q_learning_window_returns_sum_rewards():
    mdp = toy_mdp()
    _, diag = ag.q_learning_run(mdp, n_updates=40, probe_every=20, seed=4)
    rng, total, s = np.random.default_rng(4), [], 0
    for _ in range(2):
        acc = 0.0
        for _ in range(20):
            rng.random()
            a = int(rng.integers(mdp.n_actions))
            s, r = mdp.step(s, a, rng)
            acc += r
        total.append(acc)
    assert diag.returns == total
