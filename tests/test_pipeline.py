import csv
import errno
import gc
import math
import multiprocessing
import os
import tracemalloc
from collections import deque
from dataclasses import replace
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
from edgeids import sustain
from edgeids.agent import ActionId
from edgeids.config import default_config
from edgeids.evaluation import ConfusionCounts
from edgeids.gateway_env import (AttackScenario, EdgeGatewayEnv, FlowBatch,
                                 FlowRecord, MitigationState)
import trace_reference
from reward_reference import RewardTracker


def quick_config(agent="deepedge", **kw):
    cfg = default_config(agent)
    cfg.episodes = kw.pop("episodes", 1)
    cfg.pretrain_episodes = 1
    cfg.warmup.steps = 50
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


def ratio(part, whole):
    return part / whole if whole else 0.0


@pytest.mark.parametrize("agent", ["deepedge", "autodrl"])
def test_episodes_csv_reduces_each_episodes_trace_and_ledger(
        tmp_path, monkeypatch, agent):
    cfg = quick_config(agent, episodes=3, episode_len=200)
    pipe = pl.DrlPipeline(cfg)
    losses, ends = [], []    # every update's TD loss; each episode's last
    update, run_episode = ag.q_update_network, pipe.run_episode

    def recorded_update(*args):
        loss, td_errors = update(*args)
        losses.append(loss)
        return loss, td_errors

    def recorded_episode(*args):
        out = run_episode(*args)
        ends.append(len(losses))
        return out

    monkeypatch.setattr(ag, "q_update_network", recorded_update)
    monkeypatch.setattr(pipe, "run_episode", recorded_episode)
    outcome = pipe.train()
    pl.write_episode_csv(tmp_path / "episodes.csv", outcome.episode_stats)
    with open(tmp_path / "episodes.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert list(rows[0]) == pl.EPISODE_COLUMNS
    assert losses and outcome.q_updates == len(losses) == \
        sum(int(row["updates"]) for row in rows)

    trace, eps = outcome.trace_rows, cfg.hyper.epsilon
    energy, carbon = (sustain.LEDGER_COLUMNS.index(c) for c in ("energy_j", "carbon_g"))
    epsilon = eps.start_probability()
    assert len(rows) == len(outcome.ledgers) == cfg.episodes
    for episode, (row, ledger) in enumerate(zip(rows, outcome.ledgers)):
        mine = trace.column("episode") == episode

        def col(name):
            return trace.column(name)[mine]

        def total(name):
            return int(col(name).sum())

        if agent == "autodrl":
            verdicts = col("verdict")[col("attack_active") != 0]
            false_rate = ratio(np.count_nonzero(verdicts == 0),
                               np.count_nonzero(verdicts != pl.NO_VERDICT))
        else:
            false_rate = ratio(total("dropped_benign"), total("offered_benign"))
        episode_losses = losses[ends[episode - 1] if episode else 0:ends[episode]]
        for _ in episode_losses:
            epsilon = max(eps.floor, epsilon * eps.decay)
        _, values = ledger.records()
        # float sums run in step order, as np.cumsum adds
        expected = {
            "episode": episode,
            "reward_total": np.cumsum(col("reward"))[-1],
            "detection_rate": ratio(total("dropped_attack"), total("offered_attack")),
            "false_rate": false_rate,
            "attack_offered": total("offered_attack"),
            "attack_passed": total("passed_attack"),
            "benign_offered": total("offered_benign"),
            "benign_passed": total("passed_benign"),
            "energy_j": np.cumsum(values[:, energy])[-1],
            "carbon_g": np.cumsum(values[:, carbon])[-1],
            "cpu_mean": np.cumsum(col("cpu_pct"))[-1] / cfg.env.episode_len,
            "epsilon_end": epsilon,
            "updates": len(episode_losses),
            "td_loss_mean": ratio(np.cumsum(episode_losses)[-1]
                                  if episode_losses else 0.0, len(episode_losses)),
        }
        assert {c: float(cell) for c, cell in row.items()} == expected, episode


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
    steps = [FlowBatch.from_records([])] + [env.step(None).offered
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
# the warm-up: benign steps, the minibatch autoencoder fit, then (autodrl)
# the classifier's pre-training, all in this process
# ---------------------------------------------------------------------------

def serial_train_detector(cfg, rng_seed):
    """The warm-up detector fitted step by step: the reference that
    benign_warmup then fit_autoencoder must match bit for bit.  Each pass
    draws a new order of the rows and steps on each AE_BATCH of it in a
    fresh DenseWork; the row errors are scored AE_BATCH rows at a time."""
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
    for _ in range(cfg.neural.ae_epochs):
        order = rng.permutation(len(data))
        for at in range(0, len(data), pl.AE_BATCH):
            batch = data[order[at:at + pl.AE_BATCH]]
            neural.autoencoder_train_step(model, batch, cfg.neural.ae_lr,
                                          neural.DenseWork(model.layers, len(batch)))
    errors = [e for at in range(0, len(data), pl.AE_BATCH)
              for e in pl._row_errors(model, data[at:at + pl.AE_BATCH])]
    tau_flow = float(np.percentile(errors, cfg.warmup.tau_percentile))
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


def forks_attempted(monkeypatch):
    """Fails every os.fork with EAGAIN and returns the list of attempts."""
    attempts = []

    def no_fork(*args, **kwargs):
        attempts.append(args)
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    return attempts


FORK_CASES = ["fork", "one-cpu", "without-fork", "fork-fails"]


def fork_case(monkeypatch, case):
    """Meets the warm-up with one of FORK_CASES: "fork" leaves this process
    as it is, "one-cpu" leaves one CPU usable, "without-fork" takes the fork
    start method away, and "fork-fails" fails every fork with EAGAIN.  The
    warm-up runs in this process, so none of them may change its bits."""
    if case == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    elif case == "without-fork":
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn", "forkserver"])
    elif case == "fork-fails":
        forks_attempted(monkeypatch)


@pytest.mark.parametrize("case", FORK_CASES)
def test_forked_warmup_is_bit_identical_to_the_serial_one(monkeypatch, tmp_path, case):
    cfg = quick_config("autodrl", episodes=1, episode_len=200)
    reference = pl.DrlPipeline(cfg)
    reference.detector = serial_train_detector(cfg, cfg.seed + 7919)
    reference.classifier, reference._classifier_updates = \
        serial_pretrain_step_classifier(cfg, reference.detector, cfg.seed + 104729)
    fork_case(monkeypatch, case)
    pipe = pl.DrlPipeline(cfg)
    pipe.warmup()
    assert warmup_bits(pipe) == warmup_bits(reference)
    assert multiprocessing.active_children() == []
    for name, p in (("reference", reference), ("warmup", pipe)):
        p.train()
        neural.save_checkpoint(p.models(), tmp_path / name)
    assert (tmp_path / "warmup").read_bytes() == (tmp_path / "reference").read_bytes()


@pytest.mark.parametrize("case", FORK_CASES)
def test_deepedge_forked_warmup_is_bit_identical_to_the_serial_one(monkeypatch, case):
    cfg = quick_config("deepedge")
    reference = pl.DrlPipeline(cfg)
    reference.detector = serial_train_detector(cfg, cfg.seed + 7919)
    fork_case(monkeypatch, case)
    pipe = pl.DrlPipeline(cfg)
    pipe.warmup()
    assert warmup_bits(pipe) == warmup_bits(reference)
    assert multiprocessing.active_children() == []


def warmup_matrix(rows, seed=0):
    """A normalized-looking [rows, features] matrix whose first column
    tells its rows apart, as one warm-up step."""
    data = np.random.default_rng(seed).uniform(size=(rows, len(ft.FEATURE_NAMES)))
    data[:, 0] = np.arange(rows) / rows
    return data, [rows]


def test_autoencoder_fit_repeats_to_the_bit():
    cfg = default_config("deepedge")
    data, row_counts = warmup_matrix(3 * pl.AE_BATCH + 11)
    kept = data.copy()
    bits = []
    for _ in range(2):
        model, tau_flow, tau_step = pl.fit_autoencoder(cfg, 5, data, row_counts)
        bits.append([np.asarray(a).tobytes() for a in (
            tau_flow, tau_step, *(p for _, p in neural.iter_params(model)))])
    assert bits[0] == bits[1]
    # the fit reads the matrix and leaves it as it was
    assert np.array_equal(data, kept)


@pytest.mark.parametrize("rows", [5, pl.AE_BATCH, 2 * pl.AE_BATCH + 37])
def test_autoencoder_fit_visits_every_row_once_per_pass(monkeypatch, rows):
    cfg = default_config("deepedge")
    cfg.neural.ae_epochs = 3
    data, row_counts = warmup_matrix(rows)
    seen = []
    real_step = neural.autoencoder_train_step

    def recorded(model, batch, lr, work):
        assert work.shape == batch.shape
        seen.append(np.rint(batch[:, 0] * rows).astype(int))
        return real_step(model, batch, lr, work)

    monkeypatch.setattr(neural, "autoencoder_train_step", recorded)
    pl.fit_autoencoder(cfg, 5, data, row_counts)
    full, last = divmod(rows, pl.AE_BATCH)
    per_pass = full + (last > 0)
    assert len(seen) == cfg.neural.ae_epochs * per_pass
    orders = []
    for p in range(cfg.neural.ae_epochs):
        batches = seen[p * per_pass:(p + 1) * per_pass]
        # full minibatches first, then the pass's partial last one
        assert [len(b) for b in batches] == [pl.AE_BATCH] * full + [last] * (last > 0)
        order = np.concatenate(batches)
        assert sorted(order.tolist()) == list(range(rows))
        orders.append(order.tolist())
    # each pass draws its own order
    assert rows < 6 or orders[0] != orders[1] != orders[2]


def diverging_config(agent):
    cfg = quick_config(agent, episode_len=100)
    cfg.neural.ae_lr = 1e6
    cfg.neural.ae_epochs = 5
    return cfg


@pytest.mark.parametrize("agent", ["deepedge", "autodrl"])
def test_diverging_autoencoder_fails_the_warmup(agent):
    pipe = pl.DrlPipeline(diverging_config(agent))
    with pytest.raises(ValueError, match="autoencoder diverged") as info:
        pipe.warmup()
    assert "lower neural.ae_lr" in str(info.value)
    assert pipe.detector is None and pipe.classifier is None


def test_failing_autoencoder_raises_before_pretraining(monkeypatch):
    calls = []
    monkeypatch.setattr(pl, "pretrain_step_classifier",
                        lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="autoencoder diverged"):
        pl.DrlPipeline(diverging_config("autodrl")).warmup()
    assert calls == []


def step_hook(step, action):
    """neural.autoencoder_train_step that runs action() before minibatch
    step `step` (from 0) of every fit."""
    real_step = neural.autoencoder_train_step
    calls = []

    def hooked(model, batch, lr, work):
        if len(calls) == step:
            action()
        calls.append(None)
        return real_step(model, batch, lr, work)

    return hooked


def test_deepedge_warmup_leaves_no_child_process(monkeypatch, capfd):
    attempts = forks_attempted(monkeypatch)
    cfg = quick_config("deepedge")

    def warmup_with(action):
        with monkeypatch.context() as patch:
            patch.setattr(neural, "autoencoder_train_step", step_hook(3, action))
            pl.DrlPipeline(cfg).warmup()

    pipe = pl.DrlPipeline(cfg)
    pipe.warmup()
    assert pipe.detector is not None and pipe.classifier is None
    assert multiprocessing.active_children() == []
    with pytest.raises(ValueError, match="autoencoder diverged"):
        pl.DrlPipeline(diverging_config("deepedge")).warmup()
    assert multiprocessing.active_children() == []

    def fail():
        raise RuntimeError("the fit failed")

    with pytest.raises(RuntimeError, match="the fit failed"):
        warmup_with(fail)
    assert multiprocessing.active_children() == []

    def interrupt():
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        warmup_with(interrupt)
    assert multiprocessing.active_children() == []
    assert attempts == []
    assert capfd.readouterr() == ("", "")


def test_autodrl_warmup_leaves_no_child_process(monkeypatch):
    attempts = forks_attempted(monkeypatch)
    cfg = quick_config("autodrl", episode_len=100)
    pipe = pl.DrlPipeline(cfg)
    pipe.warmup()
    assert pipe.detector is not None and pipe.classifier is not None
    assert multiprocessing.active_children() == []
    with pytest.raises(ValueError, match="autoencoder diverged"):
        pl.DrlPipeline(diverging_config("autodrl")).warmup()
    assert multiprocessing.active_children() == []

    def failing_pretrain(*args):
        raise RuntimeError("pre-training failed")

    monkeypatch.setattr(pl, "pretrain_step_classifier", failing_pretrain)
    with pytest.raises(RuntimeError, match="pre-training failed"):
        pl.DrlPipeline(cfg).warmup()
    assert multiprocessing.active_children() == []
    # both fail: the autoencoder's error comes first
    with pytest.raises(ValueError, match="autoencoder diverged"):
        pl.DrlPipeline(diverging_config("autodrl")).warmup()

    def interrupted_pretrain(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(pl, "pretrain_step_classifier", interrupted_pretrain)
    with pytest.raises(KeyboardInterrupt):
        pl.DrlPipeline(cfg).warmup()
    assert multiprocessing.active_children() == []
    assert attempts == []
