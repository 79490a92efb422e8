import numpy as np
import pytest

from edgeids import features as ft
from edgeids import neural
from edgeids import pipeline as pl
from edgeids.agent import ActionId
from edgeids.config import default_config
from edgeids.gateway_env import AttackScenario, EdgeGatewayEnv


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
    benign = cfg.env.traffic_config()
    benign.attacks = []
    out = pl.rollout(pipe, seed=1, traffic=benign)
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


def test_reward_tracker_suppression_and_collateral():
    class Result:
        def __init__(self, ao, ad, bo, bd, attack, mitig):
            self.offered_pkts = {"attack": ao, "benign": bo}
            self.dropped_pkts = {"attack": ad, "benign": bd}
            self.attack_active = attack
            self.mitigation = type("M", (), {"any_active": lambda self_: mitig})()

    tracker = pl.RewardTracker(window=10, variant="deepedge")
    tracker.push(Result(1000, 900, 500, 50, True, True))
    tracker.push(Result(1000, 800, 500, 0, True, True))
    assert tracker.detection_rate() == pytest.approx(1700 / 2000)
    assert tracker.false_rate() == pytest.approx(50 / 1000)
    assert tracker.pending_delay == 0.0
    # unmitigated attack accumulates response delay
    tracker.push(Result(1000, 0, 500, 0, True, False))
    tracker.push(Result(1000, 0, 500, 0, True, False))
    assert tracker.pending_delay == 2.0


def test_reward_tracker_autodrl_miss_rate():
    class Result:
        def __init__(self, attack, classified):
            self.offered_pkts = {"attack": 100 if attack else 0, "benign": 100}
            self.dropped_pkts = {"attack": 0, "benign": 0}
            self.attack_active = attack
            self.classified = classified
            self.mitigation = type("M", (), {"any_active": lambda self_: True})()

    tracker = pl.RewardTracker(window=10, variant="autodrl")
    tracker.push(Result(True, True), classified_attack=True)
    tracker.push(Result(True, False), classified_attack=False)
    tracker.push(Result(False, False), classified_attack=False)
    assert tracker.false_rate() == pytest.approx(0.5)  # 1 miss of 2 attack steps


def test_autodrl_classifier_quality():
    cfg = quick_config("autodrl", episodes=1, episode_len=200)
    pipe = pl.DrlPipeline(cfg)
    pipe.warmup()
    pipe.train()
    ev = pl.rollout(pipe, seed=99)
    assert ev.classifier_total > 0
    assert ev.classifier_accuracy > 0.85


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
    env = EdgeGatewayEnv(pipe.cfg.env.traffic_config(), seed=4242,
                         params=pipe.cfg.env.env_params())
    steps = [[]] + [env.step(None).offered
                    for _ in range(pipe.cfg.env.episode_len)]
    flagged = 0
    for flows in steps:
        ref_flags, ref_x, ref_score = per_flow_reference(detector, flows)
        features = ft.features_matrix(flows)
        flags = detector.flow_flag(features)
        x, score = detector.step_profile(features)
        assert flags == ref_flags
        assert np.array_equal(x, ref_x)
        assert score == ref_score
        flagged += sum(flags)
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


def test_each_offered_flow_is_featurized_once(monkeypatch):
    cfg = quick_config(episodes=1, episode_len=200)
    calls, offered = [], []
    extract, step = ft.extract_features, EdgeGatewayEnv.step

    def counted_extract(flow):
        calls.append(1)
        return extract(flow)

    def counted_step(self, *args, **kwargs):
        result = step(self, *args, **kwargs)
        offered.append(len(result.offered))
        return result

    monkeypatch.setattr(ft, "extract_features", counted_extract)
    monkeypatch.setattr(EdgeGatewayEnv, "step", counted_step)
    pipe = pl.DrlPipeline(cfg)
    pipe.warmup()
    pipe.train()
    assert len(offered) == cfg.warmup.steps + cfg.env.episode_len
    assert len(calls) == sum(offered) > 0
