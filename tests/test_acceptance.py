"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines.  Every tolerance and runtime bound is asserted here, nothing is
deferred to manual inspection.
"""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from edgeids import agent as ag
from edgeids import cli
from edgeids import evaluation as ev
from edgeids import neural
from edgeids import pipeline as pl
from edgeids import sustain
from edgeids.agent import ActionId
from edgeids.config import default_config
from edgeids.gateway_env import AttackScenario, EdgeGatewayEnv


@contextmanager
def criterion(number, description, budget_s=None):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.monotonic() - start
    if budget_s is not None:
        assert elapsed < budget_s, (
            f"criterion {number} took {elapsed:.1f}s, budget {budget_s}s")
    print(f"PASS criterion {number}: {description} ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 1. gradient oracle
# ---------------------------------------------------------------------------

def test_criterion_01_gradient_oracle():
    with criterion(1, "analytic gradients match central finite differences "
                      "(AE 8-16-8-16-8 and 2-unit LSTM, 20 seeds, <1e-4)",
                   budget_s=10):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            ae = neural.autoencoder_init(rng, input_dim=8, hidden_dim=16,
                                         latent_dim=8)
            report = neural.grad_check(ae, rng.uniform(size=8), epsilon=1e-5)
            assert report.max_rel_error < 1e-4, (seed, report)

            clf = neural.lstm_classifier_init(8, 2, window_len=4, rng=rng)
            window = rng.normal(size=(4, 8))
            report = neural.grad_check(clf, window, target=seed % 2,
                                       epsilon=1e-5)
            assert report.max_rel_error < 1e-4, (seed, report)


# ---------------------------------------------------------------------------
# 2. Bellman contraction
# ---------------------------------------------------------------------------

def test_criterion_02_bellman_contraction():
    with criterion(2, "exact Bellman operator contracts at gamma=0.9 "
                      "(100 random pairs; constant shifts hit gamma)",
                   budget_s=1):
        mdp = ag.toy_mdp(gamma=0.9)
        rng = np.random.default_rng(0)
        for _ in range(100):
            q1 = rng.normal(scale=rng.uniform(0.2, 5.0), size=(4, 4))
            q2 = rng.normal(scale=rng.uniform(0.2, 5.0), size=(4, 4))
            ratio = ag.empirical_contraction_ratio(mdp, q1, q2)
            assert ratio <= 0.9 + 1e-12
        for c in (1.0, 2.0, 0.5, 8.0):
            ratio = ag.empirical_contraction_ratio(mdp, q1, q1 + c)
            assert abs(ratio - 0.9) <= 1e-12  # analytic value, float slack


# ---------------------------------------------------------------------------
# 3. tabular convergence with Robbins-Monro steps
# ---------------------------------------------------------------------------

def test_criterion_03_tabular_convergence():
    with criterion(3, "Q-learning with eta_k = k^-0.6 reaches the "
                      "value-iteration fixed point within 1e-3; Lyapunov "
                      "series decreases (Mann-Kendall, 5%)", budget_s=30):
        mdp = ag.toy_mdp(gamma=0.9)
        q_star = mdp.value_iteration()
        q, diag = ag.q_learning_run(mdp, n_updates=200_000, p=0.6, seed=0,
                                    probe_every=500)
        assert np.max(np.abs(q - q_star)) < 1e-3
        series = np.asarray(diag.lyapunov)
        burn_in = len(series) // 4
        trend = ev.mann_kendall(series[burn_in:])
        assert trend.s_statistic < 0
        assert trend.p_decreasing < 0.05


# ---------------------------------------------------------------------------
# 4. sustainability bounds on simulator traces
# ---------------------------------------------------------------------------

def test_criterion_04_sustainability_bounds():
    with criterion(4, "10 seeded 1000-step episodes: zero ledger violations, "
                      "E <= P_max*dt and C <= kappa_max*E per step"):
        cfg = default_config("deepedge")
        limits = cfg.sustain.ledger_limits()
        for seed in range(10):
            env = EdgeGatewayEnv(cfg.env, seed=seed, resources=cfg.resources,
                                 limits=limits)
            policy_rng = np.random.default_rng(1000 + seed)
            for _ in range(cfg.env.episode_len):
                action = (ActionId(int(policy_rng.integers(4)))
                          if policy_rng.random() < 0.4 else None)
                env.step(action)
            assert env.ledger.check_bounds() == []
            _, dt, energy, _, carbon = env.ledger.records()[1].T
            assert len(energy) == cfg.env.episode_len
            assert np.all(energy <= limits.p_max * dt)
            assert np.all(carbon <= limits.kappa_max * energy)


# ---------------------------------------------------------------------------
# 5. Pareto front vs brute force
# ---------------------------------------------------------------------------

def _brute_force_front(points):
    arr = np.asarray(points, dtype=float)
    # per-coordinate [n, n] comparisons: the [n, n, 2] form is ~15x slower
    # and alone came close to the 5 s budget
    x, y = arr[:, 0], arr[:, 1]
    le = (x[:, None] <= x[None, :]) & (y[:, None] <= y[None, :])
    strict = (x[:, None] < x[None, :]) | (y[:, None] < y[None, :])
    dominates = le & strict  # [i, j]: i dominates j
    dominated = dominates.any(axis=0)
    return [points[i] for i in range(len(points)) if not dominated[i]]


def test_criterion_05_pareto_oracle():
    with criterion(5, "pareto_front equals O(n^2) brute-force dominance on "
                      "50 instances up to 2000 points", budget_s=5):
        rng = np.random.default_rng(42)
        for trial in range(50):
            n = int(rng.integers(1, 2001))
            # duplicated coordinates exercise the tie rules
            pts = [tuple(map(float, p))
                   for p in rng.uniform(0, 100, size=(n, 2)).round(1)]
            assert sustain.pareto_front(pts) == _brute_force_front(pts)


# ---------------------------------------------------------------------------
# 6. ANOVA reproduction of the reference tables
# ---------------------------------------------------------------------------

def test_criterion_06_anova_reproduction():
    with criterion(6, "from-sums ANOVA reproduces the internally consistent "
                      "reference tables and flags the inconsistent ones"):
        carbon = ev.anova_from_sums(8.5923, 8.9506, 1, 38)
        assert carbon.f_statistic == pytest.approx(36.47, abs=0.02)
        cpu = ev.anova_from_sums(20.1427, 78.2034, 1, 38)
        assert cpu.f_statistic == pytest.approx(9.78, abs=0.02)
        memory = ev.anova_from_sums(0.0124, 0.2163, 1, 38)
        assert memory.f_statistic == pytest.approx(2.18, abs=0.01)
        latency = ev.anova_from_sums(312.4, 228.5, 1, 58)
        assert latency.partial_eta_sq == pytest.approx(0.577, abs=0.001)

        rows = {r.metric: r for r in ev.reproduce_reference_tables()}
        # the two rows whose published F does not follow from their sums
        assert not rows["detection_probability"].consistent
        assert rows["detection_probability"].reported_f == 67.89
        assert rows["detection_probability"].result.f_statistic == \
            pytest.approx(151.06, abs=0.1)
        assert not rows["response_time"].consistent
        assert rows["response_time"].reported_f == 0.81
        assert rows["response_time"].result.f_statistic == \
            pytest.approx(1.478, abs=0.01)


# ---------------------------------------------------------------------------
# 7. closed-loop efficacy
# ---------------------------------------------------------------------------

def test_criterion_07_closed_loop_efficacy():
    with criterion(7, "trained agent passes <=20% of the attack packets a "
                      "no-op policy passes with >=90% benign throughput "
                      "(default syn_flood, 5 seeds)", budget_s=300):
        attack_ratios = []
        benign_keeps = []
        for seed in range(5):
            cfg = default_config("deepedge")
            cfg.seed = seed
            pipe = pl.DrlPipeline(cfg)
            pipe.warmup()
            pipe.train()
            trained = pl.rollout(pipe, seed=9000 + seed)
            baseline = pl.rollout(pipe, seed=9000 + seed, policy=pl.noop_policy)
            attack_ratios.append(trained.attack_passed
                                 / max(baseline.attack_passed, 1))
            keep = (trained.benign_passed / max(trained.benign_offered, 1)) \
                / (baseline.benign_passed / max(baseline.benign_offered, 1))
            benign_keeps.append(keep)
        assert np.mean(attack_ratios) <= 0.20, attack_ratios
        assert np.mean(benign_keeps) >= 0.90, benign_keeps


# ---------------------------------------------------------------------------
# 8. detection quality at desk scale
# ---------------------------------------------------------------------------

def _mixed_holdout_env(cfg):
    return replace(cfg.env, attacks=[
        AttackScenario("syn_flood", 5000.0, 120, 280, 20),
        AttackScenario("udp_flood", 5000.0, 400, 560, 20),
        AttackScenario("zero_day_mix", 6000.0, 650, 870, 20),
    ])


def test_criterion_08_detection_quality():
    with criterion(8, "anomaly-score ROC-AUC >= 0.90 on held-out mixed "
                      "traffic incl. zero-day; supervised step classifier "
                      "accuracy >= 0.90 on its trained family"):
        # unsupervised agent: benign-trained detector scored on mixed traffic
        cfg = default_config("deepedge")
        pipe = pl.DrlPipeline(cfg)
        pipe.warmup()
        scores, labels = [], []
        for seed in (3001, 3002, 3003):
            out = pl.rollout(pipe, seed=seed,
                             env_config=_mixed_holdout_env(cfg),
                             policy=pl.noop_policy)
            scores.extend(out.scores)
            labels.extend(out.attack_labels)
        auc = ev.roc_auc(scores, labels)
        assert auc >= 0.90, auc

        # supervised agent: classifier accuracy on fresh episodes of the
        # scenario family it was pre-trained on
        cfg2 = default_config("autodrl")
        pipe2 = pl.DrlPipeline(cfg2)
        pipe2.warmup()
        correct = total = 0
        for seed in (3101, 3102, 3103):
            out = pl.rollout(pipe2, seed=seed, policy=pl.noop_policy)
            correct += out.classifier_correct
            total += out.classifier_total
        accuracy = correct / total
        assert accuracy >= 0.90, accuracy


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_criterion_08_classifier_recipe_holds_at_other_seeds(seed):
    # criterion 8's classifier half for pipelines at seeds the gate does not
    # use, each held to the gate's bound on its own
    cfg = default_config("autodrl")
    cfg.seed = seed
    pipe = pl.DrlPipeline(cfg)
    pipe.warmup()
    correct = total = 0
    for rollout_seed in (3101, 3102, 3103):
        out = pl.rollout(pipe, seed=rollout_seed, policy=pl.noop_policy)
        correct += out.classifier_correct
        total += out.classifier_total
    assert correct / total >= 0.90, (seed, correct / total)


# ---------------------------------------------------------------------------
# 9. exploration sweep ordering
# ---------------------------------------------------------------------------

def test_criterion_09_epsilon_sweep_ordering():
    with criterion(9, "larger exploration settings converge slower "
                      "(AUC ordering over 5 seeds, both published sets)"):
        cfg = default_config("tabular")
        cfg.tabular.episodes = 60
        cfg.tabular.steps_per_episode = 100
        pipe = pl.TabularPipeline(cfg)

        def run_fn(eps, seed):
            start = min(1.0, eps * cfg.hyper.epsilon.unit)
            return pipe.episode_rewards(start, seed)

        for eps_set in ([0.5, 1.0, 2.0], [0.1, 0.4, 0.5]):
            result = ev.epsilon_sweep(run_fn, eps_set, seeds=range(5))
            aucs = [result.auc[e] for e in eps_set]
            assert all(a >= b for a, b in zip(aucs, aucs[1:])), (eps_set, aucs)


# ---------------------------------------------------------------------------
# 10. bit-identical reproducibility
# ---------------------------------------------------------------------------

def test_criterion_10_reproducibility(tmp_path):
    with criterion(10, "same (config, seed) produces bit-identical CSV "
                       "artifacts across two runs"):
        args = ["train", "--agent", "deepedge", "--seed", "33", "--quiet",
                "--episodes", "1",
                "--set", "env.episode_len=250",
                "--set", "warmup.steps=40",
                "--set", "neural.ae_epochs=30"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(args + ["--out", str(out_a)]) == 0
        assert cli.main(args + ["--out", str(out_b)]) == 0
        for name in ("episodes.csv", "trace.csv", "ledger.csv",
                     "config.json", "checkpoint.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


# ---------------------------------------------------------------------------
# 11. replay buffer configuration
# ---------------------------------------------------------------------------

def test_criterion_11_replay_buffer_configuration(capsys):
    with criterion(11, "replay buffer defaults: capacity 50,000 and batch 64, "
                       "verified by the config selftest"):
        hp = ag.AgentHyperparams()
        assert hp.buffer_capacity == 50_000
        assert hp.batch_size == 64
        buf = ag.ReplayBuffer()
        assert buf.capacity == 50_000
        assert buf.batch_size == 64
        cfg = default_config("deepedge")
        assert cfg.hyper.buffer_capacity == 50_000
        assert cfg.hyper.batch_size == 64
        assert cli.main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "PASS replay buffer defaults (50,000 / batch 64)" in out
