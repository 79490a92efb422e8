import errno
import gc
import math
import multiprocessing
import multiprocessing.connection
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from collections import deque
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeids import agent as ag
from edgeids import cli
from edgeids import features as ft
from edgeids import neural
from edgeids import pipeline as pl
from edgeids.agent import ActionId
from edgeids.config import default_config
from edgeids.evaluation import ConfusionCounts
from edgeids.gateway_env import (AttackScenario, EdgeGatewayEnv, FlowRecord,
                                 MitigationState)
import trace_reference
from reward_reference import RewardTracker


def quick_config(agent="deepedge", **kw):
    cfg = default_config(agent)
    cfg.episodes = kw.pop("episodes", 1)
    cfg.pretrain_episodes = 1
    cfg.warmup.steps = 50
    cfg.neural.ae_epochs = 40
    episode_len = kw.pop("episode_len", 400)
    cfg.env.episode_len = episode_len
    cfg.env.attacks = [AttackScenario("syn_flood", 5000.0,
                                      int(episode_len * 0.15),
                                      int(episode_len * 0.85), 20)]
    for key, value in kw.items():
        setattr(cfg, key, value)
    return cfg


@pytest.fixture(scope="module")
def trained_quick():
    cfg = quick_config(episodes=2)
    pipe = pl.DrlPipeline(cfg)
    pipe.warmup()
    outcome = pipe.train()
    return pipe, outcome


@pytest.fixture(scope="module")
def trained_autodrl():
    pipe = pl.DrlPipeline(quick_config("autodrl", episodes=1, episode_len=200))
    pipe.warmup()
    pipe.train()
    return pipe


def test_detector_separates_attack_steps(trained_quick):
    pipe, _ = trained_quick
    noop = pl.rollout(pipe, seed=777, policy=pl.noop_policy)
    assert noop.anomaly_auc() > 0.95
    # benign steps sit below the alarm threshold almost always
    benign_scores = [s for s, l in zip(noop.scores, noop.attack_labels) if l == 0]
    frac_alarms = np.mean([s > pipe.detector.tau_step for s in benign_scores])
    assert frac_alarms < 0.10


def test_training_produces_updates_and_finite_rewards(trained_quick):
    _, outcome = trained_quick
    assert outcome.q_updates > 0
    for stats in outcome.episode_stats:
        assert np.isfinite(stats.reward_total)
        assert 0.0 <= stats.detection_rate <= 1.0
        assert 0.0 <= stats.false_rate <= 1.0


def test_trained_policy_beats_noop(trained_quick):
    pipe, _ = trained_quick
    ev = pl.rollout(pipe, seed=555)
    noop = pl.rollout(pipe, seed=555, policy=pl.noop_policy)
    assert ev.attack_passed < 0.5 * noop.attack_passed
    benign_keep = (ev.benign_passed / max(ev.benign_offered, 1)) \
        / (noop.benign_passed / max(noop.benign_offered, 1))
    assert benign_keep > 0.8


def test_ledger_bounds_hold_during_training(trained_quick):
    _, outcome = trained_quick
    for ledger in outcome.ledgers:
        assert ledger.check_bounds() == []


def test_response_time_measured_from_onset(trained_quick):
    pipe, _ = trained_quick
    ev = pl.rollout(pipe, seed=321)
    assert len(ev.response_times) >= 1
    assert all(t >= 1.0 for t in ev.response_times)  # cannot react before onset+1


def test_rollout_detection_probability_none_without_attacks(trained_quick):
    pipe, _ = trained_quick
    cfg = pipe.cfg
    out = pl.rollout(pipe, seed=1, env_config=replace(cfg.env, attacks=[]))
    assert out.detection_prob is None
    assert out.anomaly_auc() is None
    assert out.attack_offered == 0


def test_detector_dict_round_trip(trained_quick):
    pipe, _ = trained_quick
    data = pl.detector_to_dict(pipe.detector)
    clone = pl.detector_from_dict(data, pipe.detector.autoencoder)
    assert clone.tau_flow == pipe.detector.tau_flow
    assert clone.tau_step == pipe.detector.tau_step
    rng = np.random.default_rng(0)
    v = rng.uniform(size=8)
    assert np.array_equal(clone.normalizer.transform(v),
                          pipe.detector.normalizer.transform(v))


def test_training_is_deterministic():
    def run():
        cfg = quick_config(episodes=1, episode_len=120)
        pipe = pl.DrlPipeline(cfg)
        pipe.warmup()
        out = pipe.train()
        return out.trace_rows, [s.reward_total for s in out.episode_stats]

    rows_a, rewards_a = run()
    rows_b, rewards_b = run()
    assert rewards_a == rewards_b
    assert rows_a == rows_b


def hand_result(attack_offered, attack_dropped, benign_offered, benign_dropped):
    """A StepResult with these packets, as trace_row and the reference's
    delay read it; its mitigation is active and every other figure 0."""
    offered = {"attack": attack_offered, "benign": benign_offered}
    dropped = {"attack": attack_dropped, "benign": benign_dropped}
    return SimpleNamespace(
        step=1, action=None, offered_pkts=offered, dropped_pkts=dropped,
        passed_pkts={label: offered[label] - dropped[label] for label in offered},
        attack_active=attack_offered > 0,
        mitigation=SimpleNamespace(any_active=lambda: True, rate_cap=None,
                                   syn_cap=None, drop_filter_active=False,
                                   blacklist={}),
        resource=SimpleNamespace(cpu_pct=0.0, power_w=0.0),
        ledger_entry=SimpleNamespace(m_util=0.0, energy_j=0.0, carbon_g=0.0))


def trace_ints(steps):
    """The int rows of a Trace of (StepResult, verdict) pairs."""
    trace = pl.Trace(len(steps))
    for result, verdict in steps:
        pl.trace_row(trace, 0, result, 0.0, False, verdict)
    return trace.ints


def test_episode_rates_suppression_and_collateral():
    rows = trace_ints([(hand_result(1000, 900, 500, 50), None),
                       (hand_result(1000, 800, 500, 0), None)])
    assert pl.episode_rates("deepedge", rows) == (1700 / 2000, 50 / 1000)
    # nothing offered: both rates are 0
    assert pl.episode_rates("deepedge", np.zeros((3, len(pl.TRACE_INTS)), int)) == \
        (0.0, 0.0)


def test_episode_rates_autodrl_miss_rate():
    rows = trace_ints([(hand_result(100, 0, 100, 0), True),
                       (hand_result(100, 0, 100, 0), False),
                       (hand_result(0, 0, 100, 0), False),
                       (hand_result(100, 0, 100, 0), None)])
    # 1 miss of the 2 attack steps the classifier judged
    assert pl.episode_rates("autodrl", rows)[1] == 0.5


@st.composite
def count_sequences(draw):
    """(steps, window): per-step (StepResult fields, verdict) pairs, among
    them steps with nothing offered, benign-only steps, and attack steps
    the classifier judged, missed or did not see, and a reward window
    from 1 to 5 steps longer than the episode."""
    steps = []
    for _ in range(draw(st.integers(1, 40))):
        attack = draw(st.sampled_from([0, 0, 1, 7, 5000]))
        benign = draw(st.sampled_from([0, 3, 40, 800]))
        steps.append((hand_result(attack, draw(st.integers(0, attack)), benign,
                                  draw(st.integers(0, benign))),
                      draw(st.sampled_from([None, True, False]))))
    return steps, draw(st.integers(1, len(steps) + 5))


@settings(max_examples=300, deadline=None)
@given(count_sequences(), st.sampled_from(["deepedge", "autodrl"]))
def test_episode_rates_match_the_reward_tracker(sequence, agent):
    steps, window = sequence
    oracle = RewardTracker(window, agent)
    whole = RewardTracker(len(steps), agent)
    rows = trace_ints(steps)
    for t, (result, classified) in enumerate(steps):
        oracle.push(result, classified)
        whole.push(result, classified)
        assert pl.episode_rates(agent, rows[max(t + 1 - window, 0):t + 1]) == \
            (oracle.detection_rate(), min(oracle.false_rate(), 1.0))
    assert pl.episode_rates(agent, rows) == (whole.detection_rate(),
                                             whole.false_rate())


def test_unmitigated_attack_delay_adds_to_the_latency(trained_quick):
    pipe, _ = trained_quick
    dt = 0.5
    steps = []
    pipe.run_episode(pipe._make_env(31, replace(pipe.cfg.env, dt=dt)),
                     lambda prev: (None, False, 0.0),
                     lambda prev, step: steps.append(step), rollout=True)
    delays, run = [], 0
    for step in steps:
        result = step.result
        # a no-op rollout never mitigates, so each attack step adds one
        run = run + 1 if result.attack_active else 0
        delays.append(run)
        assert step.reward.components.latency_s == (
            pl.BASE_LATENCY_S + pl.LATENCY_PER_CPU * result.resource.cpu_pct
            + run * dt)
    attack = pipe.cfg.env.attacks[0]
    # the delay grows through the whole attack and resets when it ends
    assert max(delays) == attack.end_step - attack.start_step
    assert delays[attack.end_step - 1] == 0


def test_load_models_rejects_a_classifier_the_config_cannot_feed():
    rng = np.random.default_rng(0)
    pipe = pl.DrlPipeline(default_config("autodrl"))
    autoencoder = neural.autoencoder_init(rng, input_dim=len(ft.FEATURE_NAMES))
    normalizer = ft.Normalizer().fit(rng.uniform(size=(10, len(ft.FEATURE_NAMES))))
    detector_data = pl.detector_to_dict(
        pl.AnomalyDetector(normalizer, autoencoder, 1.0, 0.5))
    q_layers = ag.qnetwork_init(pipe.state_dim(), rng).layers
    n_features, hidden = len(ft.FEATURE_NAMES), pipe.cfg.neural.lstm_hidden
    for clf, named in ((neural.lstm_classifier_init(n_features, hidden, 3, rng),
                        "neural.lstm_window=8"),
                       (neural.lstm_classifier_init(5, hidden, 8, rng),
                        f"step features have {n_features}")):
        with pytest.raises(ValueError, match=named):
            pipe.load_models({"autoencoder": autoencoder, "q_network": q_layers,
                              "classifier": clf}, detector_data)
        assert pipe.q_net is None and pipe.classifier is None
        assert pipe.detector is None


def test_autodrl_classifier_quality(trained_autodrl):
    ev = pl.rollout(trained_autodrl, seed=99)
    assert ev.classifier_total > 0
    assert ev.classifier_accuracy > 0.85


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_short_pretraining_still_separates_attack_steps(seed):
    # 193 windows fill seven minibatches a pass; four passes of them left
    # the classifier at one verdict, 0.704 accuracy, at each of these seeds
    pipe = pl.DrlPipeline(quick_config("autodrl", episode_len=200, seed=seed))
    pipe.warmup()
    assert pl.rollout(pipe, seed=99, policy=pl.noop_policy).classifier_accuracy > 0.9


def reference_account(pipe, pairs):
    """The per-step accumulation rollout() kept before run_episode returned
    an EpisodeOutcome, over a rollout's recorded (prev, step) pairs, with
    the alert and trace row the runner then set on each step.  Packets and
    CPU also count step 0 here, as the outcome does."""
    confusion = ConfusionCounts()
    scores, labels, trace_rows, responses = [], [], [], []
    step0 = pairs[0][0].result
    attack_offered, attack_passed = step0.offered_pkts["attack"], step0.passed_pkts["attack"]
    benign_offered, benign_passed = step0.offered_pkts["benign"], step0.passed_pkts["benign"]
    cpu_pct_sum = step0.resource.cpu_pct
    clf_correct = clf_total = 0
    reward_total = 0.0
    onset = None
    responded = True

    for _, step in pairs:
        result, t = step.result, step.t
        alert = step.alarm or result.mitigation.any_active()
        reward_total += step.reward.total
        scores.append(step.a_s)
        labels.append(1 if result.attack_active else 0)
        if result.attack_active and alert:
            confusion.tp += 1
        elif result.attack_active:
            confusion.fn += 1
        elif alert:
            confusion.fp += 1
        else:
            confusion.tn += 1
        if step.classified is not None:
            clf_total += 1
            clf_correct += int(step.classified == result.attack_active)
        attack_offered += result.offered_pkts["attack"]
        attack_passed += result.passed_pkts["attack"]
        benign_offered += result.offered_pkts["benign"]
        benign_passed += result.passed_pkts["benign"]
        cpu_pct_sum += result.resource.cpu_pct

        if not result.attack_active:
            onset, responded = None, True
        elif onset is None:
            onset, responded = t, False
        if not responded and step.action is not None:
            responses.append((t - onset) * pipe.cfg.env.dt)
            responded = True

        trace_rows.append(trace_reference.trace_row(0, result, step.a_s, alert,
                                                    step.reward.total))

    attack_steps = confusion.tp + confusion.fn
    return dict(
        confusion=confusion,
        detection_prob=(confusion.tp / attack_steps) if attack_steps else None,
        response_times=responses, scores=scores, attack_labels=labels,
        classifier_correct=clf_correct, classifier_total=clf_total,
        attack_offered=attack_offered, attack_passed=attack_passed,
        benign_offered=benign_offered, benign_passed=benign_passed,
        cpu_pct_sum=cpu_pct_sum, reward_total=reward_total, trace_rows=trace_rows)


@pytest.mark.parametrize("agent, policy", [
    ("deepedge", None), ("autodrl", None), ("deepedge", pl.noop_policy)],
    ids=["deepedge", "autodrl", "noop"])
def test_episode_outcome_matches_the_reference_account(
        request, monkeypatch, agent, policy):
    pipe = request.getfixturevalue(
        "trained_autodrl" if agent == "autodrl" else "trained_quick")
    if agent == "deepedge":
        pipe = pipe[0]
    pairs = []
    run_episode = pipe.run_episode

    def recorded(env, decide, learn=None, episode=0, rollout=False):
        assert learn is None
        return run_episode(env, decide, lambda prev, step: pairs.append((prev, step)),
                           episode, rollout)

    monkeypatch.setattr(pipe, "run_episode", recorded)
    out = pl.rollout(pipe, seed=4321, policy=policy)
    steps = pipe.cfg.env.episode_len
    # the hook sees steps 1..L-1 in order, each after the step before it
    assert pairs[0][0].t == 0
    assert [step.t for _, step in pairs] == list(range(1, steps))
    assert all(prev is earlier for (prev, _), (_, earlier) in zip(pairs[1:], pairs))
    reference = reference_account(pipe, pairs)
    trace_rows = reference.pop("trace_rows")
    assert trace_reference.csv_text(pl.TRACE_COLUMNS, out.trace_rows) == \
        trace_reference.csv_text(pl.TRACE_COLUMNS, trace_rows)
    for name, expected in reference.items():
        assert getattr(out, name) == expected, name
    assert out.classifier_total == (steps - 1 if agent == "autodrl" else 0)
    assert len(out.ledger) == len(out.trace_rows) == steps
    # each reward reads the reference's sliding window and delay, and the
    # episode's rates its whole-episode window
    window = RewardTracker(pipe.cfg.sustain.reward_window, pipe.cfg.agent)
    whole = RewardTracker(steps, pipe.cfg.agent)
    for step in [pairs[0][0]] + [step for _, step in pairs]:
        result = step.result
        window.push(result, step.classified)
        whole.push(result, step.classified)
        if step.reward is None:
            continue
        c = step.reward.components
        assert (c.detection_rate, c.false_rate) == \
            (window.detection_rate(), min(window.false_rate(), 1.0))
        assert c.latency_s == (pl.BASE_LATENCY_S
                               + pl.LATENCY_PER_CPU * result.resource.cpu_pct
                               + window.pending_delay * result.ledger_entry.dt_s)
    assert pl.episode_rates(pipe.cfg.agent, out.trace_rows.ints) == \
        (whole.detection_rate(), whole.false_rate())


def test_training_joins_its_episodes_traces(trained_quick):
    pipe, outcome = trained_quick
    steps = pipe.cfg.env.episode_len
    trace = outcome.trace_rows
    assert len(trace) == 2 * steps
    assert trace.column("episode").tolist() == [0] * steps + [1] * steps
    assert trace.column("step").tolist() == 2 * list(range(steps))


# a step of the gateway as trace_row reads it, with every cell drawn
any_float = st.floats(allow_nan=True, allow_infinity=True) | st.just(-0.0)
packets = st.integers(0, 2 ** 40)


@st.composite
def traced_steps(draw):
    def pkts():
        return {"benign": draw(packets), "attack": draw(packets)}

    cap = st.none() | st.floats(min_value=0.0, exclude_min=True)
    result = SimpleNamespace(
        step=draw(st.integers(0, 10 ** 6)),
        attack_active=draw(st.booleans()),
        action=draw(st.none() | st.sampled_from(ActionId) | st.integers(0, 3)),
        offered_pkts=pkts(), passed_pkts=pkts(), dropped_pkts=pkts(),
        mitigation=MitigationState(
            rate_cap=draw(cap), syn_cap=draw(cap),
            drop_filter_active=draw(st.booleans()),
            blacklist=dict.fromkeys(range(draw(st.integers(0, 300))), 0)),
        resource=SimpleNamespace(cpu_pct=draw(any_float), power_w=draw(any_float)),
        ledger_entry=SimpleNamespace(m_util=draw(any_float),
                                     energy_j=draw(any_float),
                                     carbon_g=draw(any_float)))
    return (result, draw(any_float | st.integers(-10, 10).map(np.float64)),
            draw(st.booleans() | st.sampled_from([np.True_, np.False_])),
            draw(any_float | st.sampled_from([-1.5, -0.0, 0.0])),
            draw(st.none() | st.booleans()))


@settings(max_examples=100, deadline=None)
@given(episodes=st.lists(st.lists(traced_steps(), max_size=6), max_size=3))
def test_trace_csv_matches_the_reference_rows(tmp_path_factory, episodes):
    traces, expected, verdicts = [], [], []
    for episode, steps in enumerate(episodes):
        trace = pl.Trace(len(steps))
        for result, score, alert, reward, verdict in steps:
            pl.trace_row(trace, episode, result, score, alert, verdict)
            trace.floats[trace.n - 1, pl.REWARD] = reward
            verdicts.append(pl.NO_VERDICT if verdict is None else int(verdict))
            # no action reaches step 0, and trace.csv leaves it out
            if result.step:
                expected.append(trace_reference.trace_row(episode, result, score,
                                                          alert, reward))
        traces.append(trace)
    joined = pl.Trace.join(traces)
    path = tmp_path_factory.mktemp("trace") / "trace.csv"
    pl.write_trace_csv(path, joined)
    with open(path, newline="") as f:
        assert f.read() == trace_reference.csv_text(pl.TRACE_COLUMNS, expected)
    assert len(joined) == len(verdicts)
    assert joined.column("verdict").tolist() == verdicts
    # equality is bitwise and a bool, as a fingerprint compares it
    twin = pl.Trace.join([joined])
    assert (joined == twin) is True
    if len(twin):
        twin.floats[-1, -1] = -twin.floats[-1, -1]
        assert (joined == twin) is False
        assert (joined != twin) is True


def test_empty_traces_write_only_the_header(tmp_path):
    for rows in ([], pl.Trace(0), pl.Trace(5), pl.Trace.join([])):
        pl.write_trace_csv(tmp_path / "trace.csv", rows)
        assert (tmp_path / "trace.csv").read_bytes() == \
            ",".join(pl.TRACE_COLUMNS).encode() + b"\r\n"


def test_rollout_outcome_keeps_columns_not_objects_per_step(trained_quick):
    """What a rollout's outcome and ledger keep grows by its per-step
    columns alone: a trace row of 14 int64 and 9 float64 cells (184
    bytes) and the ledger's step and 5 floats (48 bytes, its capacity
    doubling), 224 bytes a step as measured here.  The bound leaves 26
    bytes of margin, less than a list of scores would add (32 bytes a
    step); Python objects per step grew it by about 1.2 KB a step."""
    pipe, _ = trained_quick

    def kept_bytes(steps):
        env = replace(pipe.cfg.env, episode_len=steps)
        # the same episode just before, so the caches it fills end as they start
        pl.rollout(pipe, seed=3, env_config=env)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = pl.rollout(pipe, seed=3, env_config=env)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(out.ledger) == steps
        return kept

    per_step = (kept_bytes(400) - kept_bytes(200)) / 200
    assert 0 < per_step < 250, per_step


def test_episode_rates_cover_the_whole_episode():
    cfg = default_config("deepedge")
    cfg.episodes = 1
    stats, = pl.DrlPipeline(cfg).train().episode_stats
    # the default flood runs from step 200 to 700 of 1000, so a rate read
    # off the last reward window alone would be 0
    assert stats.attack_offered > 0 and stats.attack_passed < stats.attack_offered
    assert stats.detection_rate == \
        (stats.attack_offered - stats.attack_passed) / stats.attack_offered
    assert stats.false_rate == \
        (stats.benign_offered - stats.benign_passed) / stats.benign_offered


def test_tabular_pipeline_episode_rewards_deterministic():
    cfg = default_config("tabular")
    cfg.tabular.episodes = 10
    cfg.tabular.steps_per_episode = 50
    pipe = pl.TabularPipeline(cfg)
    a = pipe.episode_rewards(0.5, seed=3)
    b = pipe.episode_rewards(0.5, seed=3)
    assert a == b
    assert len(a) == 10


@pytest.mark.parametrize("agent, owner, method", [
    ("deepedge", neural.AutoencoderModel, "encode"),
    ("autodrl", neural.LstmClassifier, "hidden"),
])
def test_drl_state_built_at_most_once_per_step(monkeypatch, agent, owner, method):
    cfg = quick_config(agent, episodes=1, episode_len=200)
    pipe = pl.DrlPipeline(cfg)
    pipe.warmup()
    calls = []
    original = getattr(owner, method)

    def counted(self, *args):
        calls.append(1)
        return original(self, *args)

    monkeypatch.setattr(owner, method, counted)
    out = pipe.train()
    assert out.q_updates > 0
    assert 0 < len(calls) <= cfg.episodes * cfg.env.episode_len


def per_flow_reference(detector, flows):
    """Flags and (x, score) of one step, one flow at a time."""
    rows = [detector.normalizer.transform(ft.extract_features(f)) for f in flows]
    flags = [detector.autoencoder.anomaly_score(z) > detector.tau_flow
             for z in rows]
    if not rows:
        return flags, np.zeros(len(ft.FEATURE_NAMES)), 0.0
    x = np.stack(rows).mean(axis=0)
    return flags, x, detector.autoencoder.anomaly_score(x)


def test_batch_detector_matches_per_flow_reference(trained_quick):
    pipe, _ = trained_quick
    detector = pipe.detector
    env = EdgeGatewayEnv(pipe.cfg.env, seed=4242)
    steps = [[]] + [env.step(None).offered
                    for _ in range(pipe.cfg.env.episode_len)]
    flagged = 0
    for flows in steps:
        ref_flags, ref_x, ref_score = per_flow_reference(detector, flows)
        features = ft.features_matrix(flows)
        flags = detector.flow_flag(features)
        x, score = detector.step_profile(features)
        assert flags.dtype == bool and flags.tolist() == ref_flags
        assert np.array_equal(x, ref_x)
        assert score == ref_score
        flagged += int(flags.sum())
    assert 0 < flagged < sum(len(flows) for flows in steps)


def test_flow_flag_runs_once_per_env_step(monkeypatch):
    cfg = quick_config(episodes=1, episode_len=200)
    pipe = pl.DrlPipeline(cfg)
    pipe.warmup()
    calls = []
    original = pl.AnomalyDetector.flow_flag

    def counted(self, flows):
        calls.append(1)
        return original(self, flows)

    monkeypatch.setattr(pl.AnomalyDetector, "flow_flag", counted)
    pipe.train()
    assert len(calls) == cfg.episodes * cfg.env.episode_len


@pytest.mark.parametrize("pretrain_episodes", [0, 2])
def test_autodrl_setup_steps_each_planned_env_step_and_flags_none(
        monkeypatch, pretrain_episodes):
    """An autodrl warm-up steps the env once per warm-up step and once per
    pre-training step, and never runs the detector's per-flow flags."""
    cfg = quick_config("autodrl", episode_len=60, pretrain_episodes=pretrain_episodes)
    steps, flags = [], []
    step, flow_flag = EdgeGatewayEnv.step, pl.AnomalyDetector.flow_flag

    def counted_step(self, *args, **kwargs):
        steps.append(1)
        return step(self, *args, **kwargs)

    def counted_flow_flag(self, features):
        flags.append(1)
        return flow_flag(self, features)

    monkeypatch.setattr(EdgeGatewayEnv, "step", counted_step)
    monkeypatch.setattr(pl.AnomalyDetector, "flow_flag", counted_flow_flag)
    pl.DrlPipeline(cfg).warmup()
    assert len(steps) == (cfg.warmup.steps
                          + max(cfg.pretrain_episodes, 1) * cfg.env.episode_len)
    assert len(flags) == 0


def test_pretraining_visits_every_window_once_a_pass_in_minibatches(monkeypatch):
    """200 steps give 193 windows: six minibatches of 32 and a last of one
    a pass, in one order, with the window count running on across them.
    Seven minibatches a pass take 36 passes to reach PRETRAIN_MIN_STEPS."""
    cfg = quick_config("autodrl", episode_len=200)
    calls = []
    step = pl.classifier_minibatch_step

    def recorded(cfg, clf, work, windows, labels, k):
        calls.append((k, windows.copy(), labels.copy()))
        return step(cfg, clf, work, windows, labels, k)

    monkeypatch.setattr(pl, "classifier_minibatch_step", recorded)
    normalizer = pl.benign_warmup(cfg, cfg.seed + 7919)[0]
    _, seen = pl.pretrain_step_classifier(cfg, normalizer, cfg.seed + 104729)
    n = cfg.env.episode_len - cfg.neural.lstm_window + 1
    assert n % pl.PRETRAIN_BATCH == 1
    sizes = [len(windows) for _, windows, _ in calls]
    per_pass = [pl.PRETRAIN_BATCH] * (n // pl.PRETRAIN_BATCH) + [1]
    n_passes = 36
    assert len(per_pass) * (n_passes - 1) < pl.PRETRAIN_MIN_STEPS <= len(sizes)
    assert sizes == per_pass * n_passes
    assert [k for k, _, _ in calls] == np.cumsum([0] + sizes[:-1]).tolist()
    assert seen == n * n_passes
    passes = np.split(np.concatenate([windows for _, windows, _ in calls]), n_passes)
    labels = np.split(np.concatenate([y for _, _, y in calls]), n_passes)
    assert len({window.tobytes() for window in passes[0]}) == n
    assert set(labels[0]) == {0, 1}
    for windows, y in zip(passes[1:], labels[1:]):
        assert np.array_equal(windows, passes[0]) and np.array_equal(y, labels[0])


def test_episodes_shorter_than_a_window_pretrain_nothing(tmp_path, capsys):
    cfg = quick_config("autodrl", episode_len=5)
    assert cfg.env.episode_len < cfg.neural.lstm_window
    pipe = pl.DrlPipeline(cfg)
    pipe.warmup()
    assert pipe._classifier_updates == 0
    untrained = neural.lstm_classifier_init(
        len(ft.FEATURE_NAMES), cfg.neural.lstm_hidden, cfg.neural.lstm_window,
        np.random.default_rng(cfg.seed + 104729))
    for (_, got), (_, init) in zip(neural.iter_params(pipe.classifier),
                                   neural.iter_params(untrained)):
        assert np.array_equal(got, init)
    out = tmp_path / "run"
    assert cli.main(["train", "--agent", "autodrl", "--episodes", "1", "--quiet",
                     "--out", str(out), "--set", "env.episode_len=5"]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    assert (out / "checkpoint.txt").exists()


def test_hot_path_builds_no_flow_records(monkeypatch):
    """Warm-up and training work on FlowBatch columns only: no FlowRecord
    row is built and no flow is featurized on its own."""
    cfg = quick_config(episodes=1, episode_len=200)
    records, extracts, offered = [], [], []
    init, extract, step = FlowRecord.__init__, ft.extract_features, EdgeGatewayEnv.step

    def counted_init(self, *args, **kwargs):
        records.append(1)
        init(self, *args, **kwargs)

    def counted_extract(flow):
        extracts.append(1)
        return extract(flow)

    def counted_step(self, *args, **kwargs):
        result = step(self, *args, **kwargs)
        offered.append(len(result.offered))
        return result

    monkeypatch.setattr(FlowRecord, "__init__", counted_init)
    monkeypatch.setattr(ft, "extract_features", counted_extract)
    monkeypatch.setattr(EdgeGatewayEnv, "step", counted_step)
    pipe = pl.DrlPipeline(cfg)
    pipe.warmup()
    pipe.train()
    assert len(offered) == cfg.warmup.steps + cfg.env.episode_len
    assert sum(offered) > 0
    assert len(records) == 0 and len(extracts) == 0


def test_target_net_forward_once_per_update(monkeypatch):
    cfg = quick_config(episodes=1, episode_len=200)
    pipe = pl.DrlPipeline(cfg)
    pipe.warmup()
    inside, forwards = [], []
    update, q_values = ag.q_update_network, ag.QNetwork.q_values

    def counted_update(*args, **kwargs):
        inside.append(1)
        try:
            return update(*args, **kwargs)
        finally:
            inside.pop()

    def counted_q_values(self, s):
        if inside:
            forwards.append(np.shape(s))
        return q_values(self, s)

    monkeypatch.setattr(ag, "q_update_network", counted_update)
    monkeypatch.setattr(ag.QNetwork, "q_values", counted_q_values)
    outcome = pipe.train()
    assert outcome.q_updates > 0
    assert len(forwards) == outcome.q_updates
    assert set(forwards) == {(cfg.hyper.batch_size, pipe.state_dim())}


@pytest.mark.parametrize("agent", ["deepedge", "autodrl"])
def test_each_step_is_normalized_once(monkeypatch, agent):
    cfg = quick_config(agent, episodes=1, episode_len=200)
    calls = []
    transform = ft.Normalizer.transform

    def counted(self, v):
        calls.append(1)
        return transform(self, v)

    monkeypatch.setattr(ft.Normalizer, "transform", counted)
    pipe = pl.DrlPipeline(cfg)
    pipe.warmup()
    # one pass over the warm-up matrix, then one per LSTM pre-training step
    pretrain_steps = cfg.env.episode_len if agent == "autodrl" else 0
    assert len(calls) == 1 + pretrain_steps
    calls.clear()
    pipe.train()
    assert len(calls) == cfg.env.episode_len


def test_td_loss_mean_per_episode(trained_quick):
    _, outcome = trained_quick
    for stats in outcome.episode_stats:
        assert stats.updates > 0
        assert np.isfinite(stats.td_loss_mean) and stats.td_loss_mean > 0.0
    quiet = quick_config(episodes=1, episode_len=100)
    quiet.env.attacks = []
    assert pl.DrlPipeline(quiet).train().episode_stats[0].td_loss_mean == 0.0


def test_td_loss_ceiling_is_twice_the_return_bound_squared(trained_quick):
    # kappa_max 500 g/kWh over 5 W for one 1 s step
    c_cap = 500.0 / 3.6e6 * 5.0 * 1.0
    # alpha + beta + lambda * L_cap + delta * E_cap + eps_m + zeta * C_cap, over 1 - gamma
    bound = (1.0 + 0.5 + 0.1 * 5.0 + 0.01 * 5.0 + 0.1 + 0.05 * c_cap) / (1.0 - 0.9)
    assert pl.td_loss_ceiling(default_config("deepedge")) == \
        pytest.approx((2.0 * bound) ** 2, rel=1e-12)
    # autodrl's carbon_weight of 1 adds one step's carbon to the bound
    assert pl.td_loss_ceiling(default_config("autodrl")) == \
        pytest.approx((2.0 * (bound + c_cap)) ** 2, rel=1e-12)
    _, outcome = trained_quick
    ceiling = pl.td_loss_ceiling(quick_config())
    assert all(s.td_loss_mean < ceiling for s in outcome.episode_stats)


# ---------------------------------------------------------------------------
# the warm-up: the autoencoder's halves in a forked worker (deepedge), and
# the autoencoder in a forked child (autodrl), against the serial order
# ---------------------------------------------------------------------------

def serial_train_detector(cfg, rng_seed, full_batch=False):
    """The warm-up detector fitted serially in one process, each epoch on
    the two halves of the warm-up matrix: the reference that
    benign_warmup then fit_autoencoder, forked or not, must match bit for
    bit.  With full_batch, each epoch's gradient is the full batch's."""
    rng = np.random.default_rng(rng_seed)
    env = EdgeGatewayEnv(replace(cfg.env, episode_len=cfg.warmup.steps, attacks=[]),
                         seed=rng_seed, resources=cfg.resources)
    step_rows = [env.step(None).features for _ in range(cfg.warmup.steps)]
    row_counts = [len(rows) for rows in step_rows]
    raw = np.concatenate(step_rows)
    normalizer = ft.Normalizer().fit(raw)
    data = normalizer.transform(raw)
    model = neural.autoencoder_init(
        rng, input_dim=len(ft.FEATURE_NAMES),
        hidden_dim=cfg.neural.ae_hidden, latent_dim=cfg.neural.latent_dim)
    work = (neural.DenseWork if full_batch else neural.HalvesWork)(
        model.layers, data.shape[0])
    for _ in range(cfg.neural.ae_epochs):
        neural.autoencoder_train_step(model, data, cfg.neural.ae_lr, work)
    tau_flow = float(np.percentile(pl._row_errors(model, data),
                                   cfg.warmup.tau_percentile))
    bounds = np.cumsum(row_counts)[:-1]
    step_scores = []
    for rows in np.split(data, bounds):
        if len(rows):
            x = rows.mean(axis=0)
            step_scores.append(model.anomaly_score(x))
    tau_step = float(np.percentile(step_scores, cfg.warmup.tau_percentile))
    return pl.AnomalyDetector(normalizer, model, tau_flow, tau_step)


def serial_pretrain_step_classifier(cfg, detector, seed):
    """LSTM pre-training that reads each step's mean row from the full
    detector's step_profile and discards its score: the reference for
    pretrain_step_classifier."""
    clf_rng = np.random.default_rng(seed)
    clf = neural.lstm_classifier_init(
        len(ft.FEATURE_NAMES), cfg.neural.lstm_hidden,
        cfg.neural.lstm_window, clf_rng)
    windows, labels = [], []
    for episode in range(max(cfg.pretrain_episodes, 1)):
        env = EdgeGatewayEnv(cfg.env, seed=seed + 101 + episode,
                             resources=cfg.resources)
        history = deque(maxlen=cfg.neural.lstm_window)
        for _ in range(cfg.env.episode_len):
            result = env.step(None)
            x, _ = detector.step_profile(result.features)
            history.append(x)
            if len(history) == cfg.neural.lstm_window:
                windows.append(np.stack(history))
                labels.append(1 if result.attack_active else 0)
    order = clf_rng.permutation(len(windows))
    k = 0
    for _ in range(pretrain_passes(len(order))):
        for at in range(0, len(order), pl.PRETRAIN_BATCH):
            idx = order[at:at + pl.PRETRAIN_BATCH]
            work = neural.LstmWork(clf.cell, cfg.neural.lstm_window, len(idx))
            k = pl.classifier_minibatch_step(
                cfg, clf, work, np.stack([windows[i] for i in idx]),
                np.array([labels[i] for i in idx]), k)
    return clf, k


def pretrain_passes(windows):
    """The passes pre-training makes over this many windows: at least
    PRETRAIN_PASSES, and enough for PRETRAIN_MIN_STEPS minibatches."""
    batches = math.ceil(windows / pl.PRETRAIN_BATCH)
    if batches == 0:
        return 0
    return max(pl.PRETRAIN_PASSES, math.ceil(pl.PRETRAIN_MIN_STEPS / batches))


def detector_arrays(det):
    return [det.normalizer.low, det.normalizer.scale, det.tau_flow, det.tau_step,
            *(a for layer in det.autoencoder.layers for a in (layer.w, layer.b))]


def warmup_bits(pipe):
    """Every warm-up result of a pipeline, as raw bytes."""
    arrays = detector_arrays(pipe.detector)
    clf = pipe.classifier
    if clf is not None:
        arrays += [clf.cell.w, clf.cell.b, clf.head_w, clf.head_b]
    return [np.asarray(a).tobytes() for a in arrays], pipe._classifier_updates


@pytest.fixture
def forked_calls(monkeypatch):
    """Every ForkedCall the pipeline starts, in order."""
    calls = []

    class Recorded(pl.ForkedCall):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            calls.append(self)

    monkeypatch.setattr(pl, "ForkedCall", Recorded)
    return calls


def no_fork(*args, **kwargs):
    raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")


FORK_CASES = ["fork", "one-cpu", "without-fork", "fork-fails"]


def fork_case(monkeypatch, case):
    """Meets the warm-up with one of FORK_CASES: "fork" leaves this process
    as it is (under a one-CPU affinity it forks nothing), "one-cpu" leaves
    one CPU usable, "without-fork" takes the fork start method away, and
    "fork-fails" fails every fork with EAGAIN on two CPUs.  Returns
    whether the warm-up should fork."""
    if case == "one-cpu":
        monkeypatch.setattr(pl, "usable_cpus", lambda: 1)
    elif case == "without-fork":
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn", "forkserver"])
    elif case == "fork-fails":
        monkeypatch.setattr(pl, "usable_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", no_fork)
    return (case == "fork" and "fork" in multiprocessing.get_all_start_methods()
            and pl.usable_cpus() >= 2)


@pytest.mark.parametrize("case", FORK_CASES)
def test_forked_warmup_is_bit_identical_to_the_serial_one(
        monkeypatch, tmp_path, forked_calls, case):
    cfg = quick_config("autodrl", episodes=1, episode_len=200)
    reference = pl.DrlPipeline(cfg)
    reference.detector = serial_train_detector(cfg, cfg.seed + 7919)
    reference.classifier, reference._classifier_updates = \
        serial_pretrain_step_classifier(cfg, reference.detector, cfg.seed + 104729)
    # without a fork, the autoencoder trains in this process
    forks = fork_case(monkeypatch, case)
    pipe = pl.DrlPipeline(cfg)
    pipe.warmup()
    assert len(forked_calls) == forks
    assert warmup_bits(pipe) == warmup_bits(reference)
    assert multiprocessing.active_children() == []
    for name, p in (("reference", reference), ("warmup", pipe)):
        p.train()
        neural.save_checkpoint(p.models(), tmp_path / name)
    assert (tmp_path / "warmup").read_bytes() == (tmp_path / "reference").read_bytes()


@pytest.mark.parametrize("case", FORK_CASES)
def test_deepedge_forked_warmup_is_bit_identical_to_the_serial_one(
        monkeypatch, forked_calls, case):
    cfg = quick_config("deepedge")
    reference = pl.DrlPipeline(cfg)
    reference.detector = serial_train_detector(cfg, cfg.seed + 7919)
    # without a fork, this process computes both halves
    forks = fork_case(monkeypatch, case)
    pipe = pl.DrlPipeline(cfg)
    pipe.warmup()
    assert len(forked_calls) == forks
    assert warmup_bits(pipe) == warmup_bits(reference)
    assert multiprocessing.active_children() == []


def test_deepedge_warmup_computes_both_halves_where_fork_fails(monkeypatch):
    cfg = quick_config("deepedge")
    reference = pl.DrlPipeline(cfg)
    reference.detector = serial_train_detector(cfg, cfg.seed + 7919)
    monkeypatch.setattr(pl, "usable_cpus", lambda: 2)
    monkeypatch.setattr(pl, "ForkedCall", no_fork)
    pipe = pl.DrlPipeline(cfg)
    pipe.warmup()
    assert warmup_bits(pipe) == warmup_bits(reference)
    # the parameters are back in the layers' own arrays, out of the shared map
    assert all(p.base is None for layer in pipe.detector.autoencoder.layers
               for p in (layer.w, layer.b))


def small_autoencoder():
    return neural.autoencoder_init(np.random.default_rng(0), input_dim=4,
                                   hidden_dim=4, latent_dim=2)


def test_forked_call_that_cannot_fork_closes_its_pipe(monkeypatch):
    ends = []
    pipe = multiprocessing.connection.Pipe

    def recorded(*args, **kwargs):
        pair = pipe(*args, **kwargs)
        ends.extend(pair)
        return pair

    monkeypatch.setattr(multiprocessing.connection, "Pipe", recorded)
    monkeypatch.setattr(os, "fork", no_fork)
    with pytest.raises(BlockingIOError):
        pl.ForkedCall(abs, -1)
    layers = small_autoencoder().layers
    with pytest.raises(BlockingIOError):
        pl.HalfWorker(layers, np.zeros((6, 4)))
    assert len(ends) == 4 and all(end.closed for end in ends)
    assert all(p.base is None for layer in layers for p in (layer.w, layer.b))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts descriptors in /proc/self/fd")
def test_forks_that_fail_leave_no_descriptor_open(monkeypatch):
    monkeypatch.setattr(os, "fork", no_fork)
    before = sorted(os.listdir("/proc/self/fd"))
    for _ in range(3):
        assert pl.forked(pl.ForkedCall, abs, -1) is None
    assert pl.forked(pl.HalfWorker, small_autoencoder().layers, np.zeros((6, 4))) is None
    assert sorted(os.listdir("/proc/self/fd")) == before


def test_two_half_detector_matches_the_full_batch_fit():
    # the halves' sum adds what the full batch adds, in another order: every
    # array agrees within 1e-12 of its largest magnitude.  Both agents share
    # the default warm-up.
    cfg = default_config("deepedge")
    seed = cfg.seed + 7919
    halves = serial_train_detector(cfg, seed)
    full = serial_train_detector(cfg, seed, full_batch=True)
    for a, b in zip(detector_arrays(halves), detector_arrays(full)):
        a, b = np.asarray(a), np.asarray(b)
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
    x = halves.normalizer.transform(np.ones((1, len(ft.FEATURE_NAMES))))[0]
    assert halves.autoencoder.anomaly_score(x) == pytest.approx(
        full.autoencoder.anomaly_score(x), rel=1e-12)


def epoch_hook(epoch, action):
    """neural.autoencoder_train_step that runs action() before epoch
    `epoch` (from 0) of every fit."""
    real_step = neural.autoencoder_train_step
    calls = []

    def step(model, batch, lr, work):
        if len(calls) == epoch:
            action()
        calls.append(None)
        return real_step(model, batch, lr, work)

    return step


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the second half trains in a worker only where fork exists")
def test_deepedge_warmup_leaves_no_child_process(monkeypatch, forked_calls, capfd):
    monkeypatch.setattr(pl, "usable_cpus", lambda: 2)
    cfg = quick_config("deepedge")
    diverging = quick_config("deepedge")
    diverging.neural.ae_lr = 1e6
    diverging.neural.ae_epochs = 5

    def reaped():
        return (multiprocessing.active_children() == []
                and all(c._proc.exitcode is not None for c in forked_calls))

    def warmup_with(action):
        with monkeypatch.context() as patch:
            patch.setattr(neural, "autoencoder_train_step", epoch_hook(3, action))
            pl.DrlPipeline(cfg).warmup()

    pl.DrlPipeline(cfg).warmup()
    assert reaped()
    # the worker's gradient diverges as well; the finite check fails the fit
    with pytest.raises(ValueError, match="autoencoder diverged"):
        pl.DrlPipeline(diverging).warmup()
    assert reaped()

    def fail():
        raise RuntimeError("the parent failed")

    with pytest.raises(RuntimeError, match="the parent failed"):
        warmup_with(fail)
    assert reaped()

    def interrupt():
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        warmup_with(interrupt)
    assert reaped()

    # a Ctrl-C reaches the whole process group; the worker ignores it
    warmup_with(lambda: os.kill(forked_calls[-1]._proc.pid, signal.SIGINT))
    assert reaped()

    # a worker that dies mid-fit fails the next epoch, with one line
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="forked child exited with code -9") as info:
        warmup_with(lambda: os.kill(forked_calls[-1]._proc.pid, signal.SIGKILL))
    assert time.monotonic() - start < 10
    assert "\n" not in str(info.value)
    assert reaped()
    assert len(forked_calls) == 6
    # no process printed anything
    assert capfd.readouterr() == ("", "")


LOCKSTEP_PARENT_DIES = """
import os, signal, sys, time
import numpy as np
from edgeids import neural, pipeline as pl

def gradient(work, layers, x, n):
    time.sleep(0.3)
    if sys.argv[1] == "raises":
        raise ValueError("the round failed")
    return 0.0

neural.DenseWork.reconstruction_gradient = gradient
model = neural.autoencoder_init(np.random.default_rng(0), input_dim=4,
                                hidden_dim=4, latent_dim=2)
worker = pl.HalfWorker(model.layers, np.zeros((6, 4)))
worker.start()
time.sleep(0.1)
os.kill(os.getpid(), signal.SIGKILL)
"""


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="a lockstep child runs only where fork exists")
@pytest.mark.parametrize("round_ends", ["returns", "raises"])
def test_lockstep_child_of_a_dead_parent_exits_quietly(round_ends):
    # the parent dies mid-round; the child finishes the round, finds its
    # parent gone and exits.  The child holds the parent's stdout and
    # stderr, so run returns once the child has exited too.
    src = str(Path(pl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", LOCKSTEP_PARENT_DIES, round_ends],
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == -signal.SIGKILL
    assert (proc.stdout, proc.stderr) == ("", "")


FORKED_PARENT_DIES = """
import os, signal, time
import numpy as np
from edgeids import pipeline as pl

def fit():
    time.sleep(0.3)
    return np.zeros(10 ** 6)  # more than a pipe holds

call = pl.ForkedCall(fit)
time.sleep(0.1)
os.kill(os.getpid(), signal.SIGKILL)
"""


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="a forked child runs only where fork exists")
def test_forked_child_of_a_dead_parent_exits_quietly():
    # the parent dies before the child's result is sent; a child that kept
    # the parent's end of the pipe open would block on the send for ever
    src = str(Path(pl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", FORKED_PARENT_DIES],
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == -signal.SIGKILL
    assert (proc.stdout, proc.stderr) == ("", "")


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="a lockstep worker runs only where fork exists")
def test_lockstep_round_that_raises_fails_the_fit_with_one_line(
        monkeypatch, forked_calls, capfd):
    def failing(*args):
        raise ValueError("the round failed")

    # the worker forks with the patched method; this process never calls it
    monkeypatch.setattr(neural.DenseWork, "reconstruction_gradient", failing)
    layers = small_autoencoder().layers
    finished = False
    start = time.monotonic()
    with pytest.raises(ValueError, match="the round failed") as info:
        with pl.HalfWorker(layers, np.zeros((6, 4))) as worker:
            worker.start()
            worker.finish()
            finished = True
    # finish() raised, not the exit that reaps the worker
    assert not finished
    assert time.monotonic() - start < 10
    assert "\n" not in str(info.value)
    assert len(forked_calls) == 1 and forked_calls[0]._proc.exitcode is not None
    assert multiprocessing.active_children() == []
    assert capfd.readouterr() == ("", "")
    # the parameters are back in the layers' own arrays, out of the shared map
    assert all(p.base is None for layer in layers for p in (layer.w, layer.b))


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the autoencoder trains in a child only where fork exists")
def test_autodrl_warmup_leaves_no_child_process(monkeypatch, forked_calls):
    monkeypatch.setattr(pl, "usable_cpus", lambda: 2)
    cfg = quick_config("autodrl", episode_len=100)
    diverging = quick_config("autodrl", episode_len=100)
    diverging.neural.ae_lr = 1e6
    diverging.neural.ae_epochs = 5

    def reaped():
        return (multiprocessing.active_children() == []
                and all(c._proc.exitcode is not None for c in forked_calls))

    pl.DrlPipeline(cfg).warmup()
    assert reaped()
    # the child's error is raised here, and the child prints nothing
    with pytest.raises(ValueError, match="autoencoder diverged"):
        pl.DrlPipeline(diverging).warmup()
    assert reaped()

    def failing_pretrain(*args):
        raise RuntimeError("pre-training failed")

    monkeypatch.setattr(pl, "pretrain_step_classifier", failing_pretrain)
    with pytest.raises(RuntimeError, match="pre-training failed"):
        pl.DrlPipeline(cfg).warmup()
    assert reaped()
    # both fail: the autoencoder's error comes first, as in the serial order
    with pytest.raises(ValueError, match="autoencoder diverged"):
        pl.DrlPipeline(diverging).warmup()
    assert reaped()

    def interrupted_pretrain(*args):
        raise KeyboardInterrupt

    # an interrupt ends the child rather than waiting for it
    monkeypatch.setattr(pl, "pretrain_step_classifier", interrupted_pretrain)
    with pytest.raises(KeyboardInterrupt):
        pl.DrlPipeline(cfg).warmup()
    assert reaped()
    assert len(forked_calls) == 5
