"""Closed-loop training and evaluation pipelines.

Two learners share one loop shape: observe a step of gateway traffic,
score it for anomaly, and when the score crosses the alarm threshold ask
the DQN for a mitigation, paying a multi-objective reward that mixes
attack suppression, benign collateral, latency, and the sustainability
ledger.  The unsupervised agent scores traffic with an autoencoder
trained on a benign warm-up window; the supervised agent adds an LSTM
step classifier pre-trained on labeled simulator traces and keeps
refining it on a slower timescale than the DQN while both run.
"""

from __future__ import annotations

import csv
from collections import deque
from dataclasses import dataclass, fields

import numpy as np

from . import agent as ag
from . import features as ft
from . import neural
from .agent import ReplayBuffer, Transition
from .config import ExperimentConfig
from .evaluation import ConfusionCounts, roc_auc
from .gateway_env import EdgeGatewayEnv, TrafficConfig
from .sustain import KappaProvider, RewardComponents, compute_reward

RATE_SCALE = 5000.0     # state scaling so Q-net inputs sit near [0, 1]
SCORE_SCALE = 10.0      # anomaly score enters as min(a_s / tau, SCORE_SCALE)
BASE_LATENCY_S = 0.2
LATENCY_PER_CPU = 0.002  # seconds of inference latency per CPU percent


# ---------------------------------------------------------------------------
# reward bookkeeping
# ---------------------------------------------------------------------------

class RewardTracker:
    """Sliding-window reward components for the closed mitigation loop.

    detection_rate is the windowed attack-suppression rate (attack packets
    dropped over attack packets offered); the false rate is benign
    collateral (deepedge) or the step classifier's miss rate (autodrl).
    The alert-based detection metrics reported by evaluation runs are
    computed separately and are not fed back into rewards.
    """

    def __init__(self, window, variant):
        self.window = deque(maxlen=window)
        self.variant = variant
        self.pending_delay = 0.0

    def push(self, result, classified_attack=None):
        self.window.append(dict(
            attack_offered=result.offered_pkts["attack"],
            attack_dropped=result.dropped_pkts["attack"],
            benign_offered=result.offered_pkts["benign"],
            benign_dropped=result.dropped_pkts["benign"],
            attack_step=result.attack_active,
            classified_attack=classified_attack,
        ))
        if result.attack_active and not result.mitigation.any_active():
            self.pending_delay += 1.0
        else:
            self.pending_delay = 0.0

    def detection_rate(self):
        offered = sum(w["attack_offered"] for w in self.window)
        if offered == 0:
            return 0.0
        return sum(w["attack_dropped"] for w in self.window) / offered

    def false_rate(self):
        if self.variant == "autodrl":
            attacks = [w for w in self.window
                       if w["attack_step"] and w["classified_attack"] is not None]
            if not attacks:
                return 0.0
            return sum(1 for w in attacks if not w["classified_attack"]) / len(attacks)
        offered = sum(w["benign_offered"] for w in self.window)
        if offered == 0:
            return 0.0
        return sum(w["benign_dropped"] for w in self.window) / offered

    def latency_s(self, cpu_pct, dt):
        return BASE_LATENCY_S + LATENCY_PER_CPU * cpu_pct + self.pending_delay * dt

    def components(self, result):
        entry = result.ledger_entry
        return RewardComponents(
            detection_rate=self.detection_rate(),
            false_rate=min(self.false_rate(), 1.0),
            latency_s=self.latency_s(result.resource.cpu_pct, entry.dt_s),
            energy_j=entry.energy_j,
            memory_util=entry.m_util,
            carbon_g=entry.carbon_g,
        )


# ---------------------------------------------------------------------------
# per-step trace rows
# ---------------------------------------------------------------------------

TRACE_COLUMNS = [
    "episode", "step", "attack_active", "anomaly_score", "alert", "action",
    "offered_benign", "offered_attack", "passed_benign", "passed_attack",
    "dropped_benign", "dropped_attack", "rate_cap", "syn_cap", "drop_filter",
    "blacklist_size", "cpu_pct", "power_w", "mem_util", "energy_j",
    "carbon_g", "reward",
]


def trace_row(episode, result, anomaly_score, alert, reward_total):
    m = result.mitigation
    e = result.ledger_entry
    return [
        episode, result.step, int(result.attack_active), repr(float(anomaly_score)),
        int(alert), "" if result.action is None else int(result.action),
        result.offered_pkts["benign"], result.offered_pkts["attack"],
        result.passed_pkts["benign"], result.passed_pkts["attack"],
        result.dropped_pkts["benign"], result.dropped_pkts["attack"],
        "" if m.rate_cap is None else repr(float(m.rate_cap)),
        "" if m.syn_cap is None else repr(float(m.syn_cap)),
        int(m.drop_filter_active), len(m.blacklist),
        repr(float(result.resource.cpu_pct)), repr(float(result.resource.power_w)),
        repr(float(e.m_util)), repr(float(e.energy_j)), repr(float(e.carbon_g)),
        repr(float(reward_total)),
    ]


def write_trace_csv(path, rows):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(TRACE_COLUMNS)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# detectors
# ---------------------------------------------------------------------------

@dataclass
class AnomalyDetector:
    """Benign-calibrated autoencoder scoring plus its two alarm thresholds.

    Detection taps the traffic arriving at the gateway (pre-filter), so an
    ongoing attack keeps the alarm raised even while mitigation is
    suppressing it; mitigation effects show up in rewards and metrics, not
    in the detector's input.
    """

    normalizer: ft.Normalizer
    autoencoder: neural.AutoencoderModel
    tau_flow: float   # per-flow flag threshold (p99 of benign flow errors)
    tau_step: float   # step-score alarm threshold (p99 of benign step scores)

    def flow_flag(self, features):
        """One flag per feature row: its reconstruction error exceeds
        tau_flow."""
        return (_row_errors(self.autoencoder, self.normalizer.transform(features))
                > self.tau_flow).tolist()

    def step_profile(self, features):
        """(normalized mean feature vector, anomaly score) of one step's
        feature matrix."""
        if not len(features):
            return np.zeros(len(ft.FEATURE_NAMES)), 0.0
        return _step_score(self.autoencoder, self.normalizer.transform(features))


def _row_errors(autoencoder, rows):
    """Summed squared reconstruction error of each normalized flow row."""
    _, recon = autoencoder.reconstruct(rows)
    return ((rows - recon) ** 2).sum(axis=1)


def _step_score(autoencoder, rows):
    """(mean row, its anomaly score) for one step's normalized flow rows."""
    x = rows.mean(axis=0)
    return x, autoencoder.anomaly_score(x)


def detector_to_dict(detector):
    """JSON-able thresholds and normalizer statistics (the autoencoder
    itself travels in the model checkpoint)."""
    return {
        "kind": detector.normalizer.kind,
        "low": [float(v) for v in detector.normalizer.low],
        "scale": [float(v) for v in detector.normalizer.scale],
        "tau_flow": detector.tau_flow,
        "tau_step": detector.tau_step,
    }


def detector_from_dict(data, autoencoder=None):
    """The inverse of detector_to_dict; DrlPipeline.load_models wires the
    checkpoint's autoencoder in when none is given."""
    normalizer = ft.Normalizer(data["kind"])
    normalizer.low = np.asarray(data["low"], dtype=float)
    normalizer.scale = np.asarray(data["scale"], dtype=float)
    normalizer.fitted = True
    return AnomalyDetector(normalizer, autoencoder,
                           float(data["tau_flow"]), float(data["tau_step"]))


def train_detector(cfg, rng_seed):
    """Benign warm-up: fit the normalizer, train the autoencoder, and set
    both alarm thresholds at the configured benign percentile."""
    rng = np.random.default_rng(rng_seed)
    benign_traffic = TrafficConfig(
        benign_rate=cfg.env.benign_rate,
        benign_sources=cfg.env.benign_sources,
        dt=cfg.env.dt,
        episode_len=cfg.warmup.steps,
        attacks=[],
    )
    env = EdgeGatewayEnv(benign_traffic, seed=rng_seed,
                         params=cfg.env.env_params(),
                         resources=cfg.resources)
    # no mitigation acts during warm-up, so every offered flow passes
    step_rows = [env.step(None).features for _ in range(cfg.warmup.steps)]
    raw = np.concatenate(step_rows)
    normalizer = ft.Normalizer("minmax").fit(raw)
    data = normalizer.transform(raw)

    model = neural.autoencoder_init(
        rng, input_dim=len(ft.FEATURE_NAMES),
        hidden_dim=cfg.neural.ae_hidden, latent_dim=cfg.neural.latent_dim)
    # a diverging autoencoder overflows here; the finite check below fails it
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.neural.ae_epochs):
            neural.autoencoder_train_step(model, data, cfg.neural.ae_lr)
        tau_flow = float(np.percentile(_row_errors(model, data),
                                       cfg.warmup.tau_percentile))
        # each step's rows of the normalized matrix, in generation order
        bounds = np.cumsum([len(rows) for rows in step_rows])[:-1]
        step_scores = [_step_score(model, rows)[1]
                       for rows in np.split(data, bounds) if len(rows)]
        if not step_scores:
            raise ValueError("warm-up produced no traffic; raise benign_rate")
        tau_step = float(np.percentile(step_scores, cfg.warmup.tau_percentile))
    if not np.isfinite([tau_flow, tau_step]).all():
        raise ValueError(f"warm-up autoencoder diverged (tau_flow={tau_flow}, "
                         f"tau_step={tau_step}); lower neural.ae_lr")
    return AnomalyDetector(normalizer, model, tau_flow, tau_step)


def pretrain_step_classifier(cfg, detector, seed):
    """Supervised phase: label simulator steps and fit the LSTM classifier.

    Windows of consecutive per-step aggregate features are labeled by the
    last step's ground truth.  The step-size schedule decays slowly
    (k^-0.55), leaving room for the faster-decaying DQN updates during the
    joint phase."""
    clf_rng = np.random.default_rng(seed)
    clf = neural.lstm_classifier_init(
        len(ft.FEATURE_NAMES), cfg.neural.lstm_hidden,
        cfg.neural.lstm_window, clf_rng)

    windows = []
    labels = []
    for episode in range(max(cfg.pretrain_episodes, 1)):
        env = EdgeGatewayEnv(cfg.env.traffic_config(), seed=seed + 101 + episode,
                             params=cfg.env.env_params(), resources=cfg.resources,
                             flow_flagger=detector.flow_flag)
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
    for _ in range(2):
        for i in order:
            k += 1
            eta = cfg.neural.lstm_lr * k ** -0.55
            _, grads = neural.backward(clf, windows[i], labels[i])
            neural.apply_gradients(clf, grads, eta)
    return clf, k


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass
class PacketCounts:
    attack_offered: int = 0
    attack_passed: int = 0
    benign_offered: int = 0
    benign_passed: int = 0

    def add(self, result):
        self.attack_offered += result.offered_pkts["attack"]
        self.attack_passed += result.passed_pkts["attack"]
        self.benign_offered += result.offered_pkts["benign"]
        self.benign_passed += result.passed_pkts["benign"]


@dataclass
class EpisodeStats:
    episode: int
    reward_total: float
    detection_rate: float
    false_rate: float
    attack_offered: int
    attack_passed: int
    benign_offered: int
    benign_passed: int
    energy_j: float
    carbon_g: float
    cpu_mean: float
    epsilon_end: float
    updates: int


EPISODE_COLUMNS = [f.name for f in fields(EpisodeStats)]
_FLOAT_COLUMNS = {f.name for f in fields(EpisodeStats) if f.type == "float"}


def write_episode_csv(path, stats):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(EPISODE_COLUMNS)
        for s in stats:
            writer.writerow([repr(float(getattr(s, c))) if c in _FLOAT_COLUMNS
                             else getattr(s, c) for c in EPISODE_COLUMNS])


@dataclass
class TrainOutcome:
    models: dict
    episode_stats: list
    detector: AnomalyDetector
    ledgers: list
    trace_rows: list
    q_updates: int


@dataclass
class EvalOutcome:
    confusion: ConfusionCounts        # step-level alert vs ground truth
    detection_prob: float             # None when the scenario had no attacks
    response_times: list
    scores: list                      # per-step anomaly scores
    attack_labels: list               # per-step ground truth
    classifier_correct: int
    classifier_total: int
    attack_offered: int
    attack_passed: int
    benign_offered: int
    benign_passed: int
    reward_total: float
    ledger: object
    trace_rows: list

    @property
    def classifier_accuracy(self):
        if self.classifier_total == 0:
            return None
        return self.classifier_correct / self.classifier_total

    def anomaly_auc(self):
        if len(set(self.attack_labels)) < 2:
            return None
        return roc_auc(self.scores, self.attack_labels)


# ---------------------------------------------------------------------------
# episode steps, as DrlPipeline.run_episode yields them
# ---------------------------------------------------------------------------

@dataclass
class EpisodeStep:
    """One observed step of an episode; reward, alert and trace stay unset
    at step 0."""

    pipeline: DrlPipeline
    t: int
    action: object          # the action taken into this step; None = monitor
    result: object          # the gateway's StepResult
    x_step: np.ndarray      # normalized mean feature vector
    a_s: float              # step anomaly score
    window: np.ndarray      # stacked LSTM window (autodrl), else None
    classified: object      # the classifier's verdict (autodrl), else None
    reward: object = None   # RewardBreakdown
    alert: bool = False     # the alert the trace row records
    trace: list = None
    _state: np.ndarray = None

    @property
    def alarm(self):
        return self.a_s > self.pipeline.detector.tau_step

    def state(self):
        """The DRL state, built once.  A transition's s_next at step t is
        the decision state at t + 1, and both requests come after the
        step's classifier update."""
        if self._state is None:
            self._state = self.pipeline.state_vector(
                self.result, self.x_step, self.a_s, self.window)
        return self._state


# ---------------------------------------------------------------------------
# the DRL pipeline (both agents)
# ---------------------------------------------------------------------------

class DrlPipeline:
    """Warm-up, training and the shared episode runner for the two
    detection agents."""

    def __init__(self, cfg: ExperimentConfig):
        if cfg.agent not in ("deepedge", "autodrl"):
            raise ValueError(f"unsupported agent kind {cfg.agent!r}")
        self.cfg = cfg
        self.detector = None
        self.classifier = None
        self.q_net = None
        self._classifier_updates = 0

    # -- model plumbing ----------------------------------------------------

    def state_dim(self):
        latent = (self.cfg.neural.lstm_hidden if self.cfg.agent == "autodrl"
                  else self.cfg.neural.latent_dim)
        return 4 + latent

    def models(self):
        out = {"autoencoder": self.detector.autoencoder,
               "q_network": self.q_net.layers}
        if self.classifier is not None:
            out["classifier"] = self.classifier
        return out

    def load_models(self, models):
        """Wire checkpointed models into the pipeline; every check runs
        before anything is wired."""
        needed = ["autoencoder", "q_network"]
        if self.cfg.agent == "autodrl":
            needed.append("classifier")
        for name in needed:
            if name not in models:
                raise ValueError(f"checkpoint lacks model {name!r}")
        if self.detector is None:
            raise ValueError("detector thresholds missing; run warm-up first")
        q_net = ag.QNetwork(list(models["q_network"]))
        if q_net.input_dim != self.state_dim():
            raise ValueError(
                f"q_network layer 0 expects input {q_net.input_dim}, "
                f"config needs {self.state_dim()}")
        self.q_net = q_net
        self.classifier = models.get("classifier")
        self.detector.autoencoder = models["autoencoder"]

    # -- state assembly ----------------------------------------------------

    def _latent(self, x_step, window):
        if self.cfg.agent == "autodrl":
            return self.classifier.hidden(window)
        return self.detector.autoencoder.encode(x_step)

    def state_vector(self, result, x_step, a_s, window):
        """[offered packet rate, SYN and ACK counts, clipped a_s / tau_step,
        latent], the first three over RATE_SCALE."""
        p_rate = sum(result.offered_pkts.values()) / self.cfg.env.dt
        syn = float(sum(f.syn_packets for f in result.offered))
        ack = float(sum(f.ack_packets for f in result.offered))
        return np.concatenate([
            [p_rate / RATE_SCALE, syn / RATE_SCALE, ack / RATE_SCALE,
             min(a_s / max(self.detector.tau_step, 1e-9), SCORE_SCALE) / SCORE_SCALE],
            self._latent(x_step, window),
        ])

    # -- training ----------------------------------------------------------

    def warmup(self):
        self.detector = train_detector(self.cfg, self.cfg.seed + 7919)
        if self.cfg.agent == "autodrl":
            self.classifier, self._classifier_updates = pretrain_step_classifier(
                self.cfg, self.detector, self.cfg.seed + 104729)

    def train(self):
        cfg = self.cfg
        if self.detector is None:
            self.warmup()
        init_rng = np.random.default_rng(cfg.seed + 1299709)
        self.q_net = ag.qnetwork_init(self.state_dim(), init_rng,
                                      hidden=tuple(cfg.neural.q_hidden))
        target_net = self.q_net.copy()
        buffer = ReplayBuffer(cfg.hyper.buffer_capacity, cfg.hyper.batch_size)
        action_rng = np.random.default_rng(cfg.seed + 15485863)
        epsilon = cfg.hyper.epsilon.start_probability()

        def decide(prev, history):
            """epsilon-greedy above the alarm threshold"""
            fill = len(buffer) / buffer.capacity
            if not prev.alarm:
                return None, False, fill
            action = ag.select_action(self.q_net, prev.state(), epsilon, action_rng)
            return action, len(buffer) >= cfg.hyper.batch_size, fill

        episode_stats = []
        ledgers = []
        trace_rows = []
        q_updates = 0
        clf_updates = self._classifier_updates

        for episode in range(cfg.episodes):
            env = self._make_env(cfg.seed + 1000 * (episode + 1))
            tracker = self.reward_tracker()
            steps = self.run_episode(env, decide, tracker, episode)
            prev = next(steps)
            # training counts step 0's packets and CPU
            counts = PacketCounts()
            counts.add(prev.result)
            cpu_sum = prev.result.resource.cpu_pct
            reward_sum = 0.0
            episode_updates = 0

            for step in steps:
                if step.classified is not None:
                    clf_updates += 1
                    eta_s = cfg.neural.lstm_lr * clf_updates ** -0.55
                    _, grads = neural.backward(
                        self.classifier, step.window,
                        1 if step.result.attack_active else 0)
                    neural.apply_gradients(self.classifier, grads, eta_s)
                reward_sum += step.reward.total
                cpu_sum += step.result.resource.cpu_pct

                if step.action is not None:
                    buffer.store(Transition(
                        s=prev.state(), a=step.action, r=step.reward.total,
                        s_next=step.state(), step_index=step.t,
                        r_breakdown=step.reward,
                        terminal=step.t == cfg.env.episode_len - 1))
                    if len(buffer) >= cfg.hyper.batch_size:
                        q_updates += 1
                        episode_updates += 1
                        ag.q_update_network(
                            self.q_net, buffer.sample_minibatch(action_rng),
                            target_net, cfg.hyper.gamma, self._q_lr(q_updates),
                            cfg.hyper.carbon_weight)
                        epsilon = ag.decay_epsilon(epsilon, cfg.hyper.epsilon.decay,
                                                   cfg.hyper.epsilon.floor)
                        if q_updates % cfg.hyper.target_sync_every == 0:
                            target_net.sync_from(self.q_net)

                trace_rows.append(step.trace)
                counts.add(step.result)
                prev = step

            episode_stats.append(EpisodeStats(
                episode=episode,
                reward_total=reward_sum,
                detection_rate=tracker.detection_rate(),
                false_rate=tracker.false_rate(),
                **vars(counts),
                energy_j=env.ledger.cumulative_energy_j,
                carbon_g=env.ledger.cumulative_carbon_g,
                cpu_mean=cpu_sum / cfg.env.episode_len,
                epsilon_end=epsilon,
                updates=episode_updates,
            ))
            ledgers.append(env.ledger)

        return TrainOutcome(self.models(), episode_stats, self.detector,
                            ledgers, trace_rows, q_updates)

    def _q_lr(self, k):
        # Robbins-Monro style decay; the supervised agent's DQN uses the
        # faster-decaying exponent so eta_fast/eta_slow -> 0 against the
        # classifier's k^-0.55 schedule
        if self.cfg.agent == "autodrl":
            return self.cfg.hyper.lr * k ** -0.8
        return self.cfg.hyper.lr * k ** -0.6

    def run_episode(self, env, decide, tracker, episode=0, rollout=False):
        """The step loop that training and rollout share.

        Yields one EpisodeStep per simulator step, step 0 first.  Each step
        is scored, its LSTM window classified (autodrl), pushed to
        ``tracker``, paid its reward and traced.  ``decide(prev, history)``
        returns ``(action, learning, buffer_fill)`` for ``env.step``; the
        caller learns from a step before it asks for the next one.  A
        rollout records an active mitigation as an alert too."""
        cfg = self.cfg
        history = deque(maxlen=cfg.neural.lstm_window)

        def observe(t, action, result):
            x_step, a_s = self.detector.step_profile(result.features)
            history.extend([x_step] * (history.maxlen if t == 0 else 1))
            window = classified = None
            if cfg.agent == "autodrl" and self.classifier is not None:
                window = np.stack(history)
                classified = self.classifier.classify(window) > 0.5
            tracker.push(result, classified)
            return EpisodeStep(self, t, action, result, x_step, a_s, window,
                               classified)

        step = observe(0, None, env.step(None))
        yield step
        for t in range(1, env.traffic.episode_len):
            action, learning, buffer_fill = decide(step, history)
            result = env.step(action, learning=learning, buffer_fill=buffer_fill)
            step = observe(t, action, result)
            step.reward = compute_reward(cfg.sustain.weights,
                                         tracker.components(result))
            step.alert = step.alarm or (rollout and result.mitigation.any_active())
            step.trace = trace_row(episode, result, step.a_s, step.alert,
                                   step.reward.total)
            yield step

    def reward_tracker(self):
        return RewardTracker(self.cfg.sustain.reward_window,
                             self.cfg.sustain.weights.variant)

    def _make_env(self, seed, traffic=None):
        return EdgeGatewayEnv(traffic or self.cfg.env.traffic_config(), seed=seed,
                              params=self.cfg.env.env_params(),
                              resources=self.cfg.resources,
                              limits=self.cfg.sustain.ledger_limits(),
                              kappa=self._kappa(),
                              flow_flagger=self.detector.flow_flag)

    def _kappa(self):
        from .sustain import load_kappa_schedule
        schedule = None
        if self.cfg.sustain.kappa_schedule_file:
            schedule = load_kappa_schedule(self.cfg.sustain.kappa_schedule_file)
        return KappaProvider(self.cfg.sustain.kappa_g_per_j(), schedule)


def rollout(pipeline, seed, traffic=None, policy=None):
    """Frozen-policy episode; returns alert metrics, counts, and the ledger.

    Without a ``policy(result, x_step, a_s, history)`` the learned Q-network
    acts greedily above the alarm threshold."""
    def decide(prev, history):
        if policy is not None:
            action = policy(prev.result, prev.x_step, prev.a_s, history)
        elif prev.alarm:
            action = ag.select_action(pipeline.q_net, prev.state(), 0.0,
                                      np.random.default_rng(0))
        else:
            action = None
        return action, False, 0.0

    env = pipeline._make_env(seed, traffic)
    steps = pipeline.run_episode(env, decide, pipeline.reward_tracker(),
                                 rollout=True)
    next(steps)  # the rollout's outputs start at step 1

    confusion = ConfusionCounts()
    scores, labels, trace_rows, responses = [], [], [], []
    counts = PacketCounts()
    clf_correct = clf_total = 0
    reward_total = 0.0
    onset = None
    responded = True

    for step in steps:
        result, t = step.result, step.t
        reward_total += step.reward.total
        scores.append(step.a_s)
        labels.append(1 if result.attack_active else 0)
        if result.attack_active and step.alert:
            confusion.tp += 1
        elif result.attack_active:
            confusion.fn += 1
        elif step.alert:
            confusion.fp += 1
        else:
            confusion.tn += 1
        if step.classified is not None:
            clf_total += 1
            clf_correct += int(step.classified == result.attack_active)
        counts.add(result)

        if not result.attack_active:
            onset, responded = None, True
        elif onset is None:
            onset, responded = t, False
        if not responded and step.action is not None:
            responses.append((t - onset) * pipeline.cfg.env.dt)
            responded = True

        trace_rows.append(step.trace)

    attack_steps = confusion.tp + confusion.fn
    detection = (confusion.tp / attack_steps) if attack_steps else None
    return EvalOutcome(
        confusion=confusion, detection_prob=detection,
        response_times=responses, scores=scores, attack_labels=labels,
        classifier_correct=clf_correct, classifier_total=clf_total,
        **vars(counts),
        reward_total=reward_total, ledger=env.ledger, trace_rows=trace_rows)


def noop_policy(result, x_step, a_s, history):
    return None


# ---------------------------------------------------------------------------
# tabular pipeline
# ---------------------------------------------------------------------------

class TabularPipeline:
    """Toy-MDP twin used for convergence diagnostics and epsilon sweeps."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.mdp = ag.toy_mdp(cfg.hyper.gamma)

    def train(self):
        q, diag = ag.q_learning_run(
            self.mdp, self.cfg.tabular.n_updates,
            p=self.cfg.tabular.eta_exponent, seed=self.cfg.seed,
            probe_every=self.cfg.tabular.probe_every)
        return q, diag

    def episode_rewards(self, epsilon_start, seed):
        """Per-episode return of epsilon-greedy Q-learning on the toy MDP."""
        cfg = self.cfg.tabular
        rng = np.random.default_rng(seed)
        q = np.zeros((self.mdp.n_states, self.mdp.n_actions))
        counts = np.zeros_like(q, dtype=int)
        eps = epsilon_start
        rewards = []
        s = 0
        for _ in range(cfg.episodes):
            total = 0.0
            for _ in range(cfg.steps_per_episode):
                if rng.random() < eps:
                    a = int(rng.integers(self.mdp.n_actions))
                else:
                    a = int(np.argmax(q[s]))
                s_next, r = self.mdp.step(s, a, rng)
                counts[s, a] += 1
                eta = ag.robbins_monro_eta(counts[s, a], cfg.eta_exponent)
                ag.q_update_tabular(q, s, a,
                                    r + self.mdp.gamma * float(q[s_next].max()),
                                    eta)
                total += r
                s = s_next
            rewards.append(total)
            eps = ag.decay_epsilon(eps, self.cfg.hyper.epsilon.decay,
                                   self.cfg.hyper.epsilon.floor)
        return rewards

