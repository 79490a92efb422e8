"""Workloads, phases and output checks of the edgeids benchmark.

A cycle drives the public edgeids API in one process as a closed loop
with one caller: ``DrlPipeline.warmup()`` (set-up), ``DrlPipeline.train()``
for one 1000-step episode, and ``pipeline.rollout()`` of the frozen
policy.  Each simulator step starts only after the agent's decision and
any learning update for the previous step have finished, because the
pipeline's own loop runs them in that order.  An untraced run repeats the
cycle, so every timing is sampled at several points of the run.

The monitor installed here is on for every run, traced or not.  It stamps
the start of every simulator step (the step clock behind the per-step
percentiles) and checks every step's outputs: packets and bytes are
conserved per label, anomaly scores are finite, TD losses and errors are
finite, and each phase's ledgers report no bound violations.  The time
spent in these per-step checks is measured and taken out of every
reported duration.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

from edgeids import agent, cli, neural
from edgeids import pipeline as pl
from edgeids.config import default_config
from edgeids.gateway_env import AttackScenario, EdgeGatewayEnv

from spans import Patcher, SpanRecorder, install_layer_spans, layer_metrics

EPISODE_LEN = 1000
MIN_CYCLES = 3           # an untraced run repeats its cycle at least this often
ROLLOUT_SEED_OFFSET = 9000


def _attack(kind, pps, start, end, episode_len):
    """A scenario placed on a 1000-step timeline, rescaled to episode_len."""
    scale = episode_len / EPISODE_LEN
    return AttackScenario(kind, pps, int(start * scale), int(end * scale), 20)


def make_config(workload, seed, episode_len=EPISODE_LEN):
    """The ExperimentConfig a workload hands to the program.

    deepedge_syn is the README quick-start path and the workload where the
    DQN learns; autodrl_mixed is the only one with LSTM work and with UDP
    and zero-day traffic; deepedge_dense quadruples the per-flow work and
    never updates the DQN.  bench/README.md says what each one should move.
    """
    if workload == "deepedge_syn":
        cfg = default_config("deepedge")
        cfg.env.attacks = [_attack("syn_flood", 5000.0, 200, 700, episode_len)]
    elif workload == "autodrl_mixed":
        cfg = default_config("autodrl")
        # acceptance criterion 8's held-out mix
        cfg.env.attacks = [_attack("syn_flood", 5000.0, 120, 280, episode_len),
                           _attack("udp_flood", 5000.0, 400, 560, episode_len),
                           _attack("zero_day_mix", 6000.0, 650, 870, episode_len)]
    elif workload == "deepedge_dense":
        cfg = default_config("deepedge")
        cfg.env.attacks = []
        cfg.env.benign_rate = 200.0
    else:
        raise ValueError(f"unknown workload {workload!r}")
    cfg.seed = seed
    cfg.episodes = 1
    cfg.env.episode_len = episode_len
    return cfg


def setup_steps(cfg):
    steps = cfg.warmup.steps
    if cfg.agent == "autodrl":
        steps += max(cfg.pretrain_episodes, 1) * cfg.env.episode_len
    return steps


# ---------------------------------------------------------------------------
# phases and the monitor
# ---------------------------------------------------------------------------

LABELS = ("benign", "attack")


def conserved(result):
    """Packets and bytes: offered = passed + dropped for each label, and
    the step's reported packet counts match its flows."""
    sums = {}
    for part in ("offered", "passed", "dropped"):
        pkts = dict.fromkeys(LABELS, 0)
        nbytes = dict.fromkeys(LABELS, 0)
        for f in getattr(result, part):
            pkts[f.label] += f.pkts_total
            nbytes[f.label] += f.bytes_total
        if pkts != getattr(result, f"{part}_pkts"):
            return False
        sums[part] = (pkts, nbytes)
    return all(sums["offered"][i][label]
               == sums["passed"][i][label] + sums["dropped"][i][label]
               for i in (0, 1) for label in LABELS)


class Phase:
    """One timed phase: its step clock, its failed steps and its flows."""

    def __init__(self, name, planned):
        self.name = name
        self.planned = planned
        self.starts = []       # perf_counter() at each simulator step
        self.checking = []     # seconds spent checking after each step
        self.failed = set()    # phase-local indexes of failed steps
        self.envs = {}         # id(env) -> (env, phase index of its step 0)
        self.offered_flows = 0
        self.dropped_flows = 0
        self.wall_s = 0.0      # wall time minus checking time
        self.error = None
        self._end = None

    @property
    def reached(self):
        return len(self.starts)

    @property
    def attempted(self):
        return max(self.planned, self.reached)

    @property
    def failed_steps(self):
        return len(self.failed) + max(self.planned - self.reached, 0)

    def step_ms(self):
        """Duration of every step, from its start to the next one's."""
        if not self.starts:
            return np.zeros(0)
        bounds = np.append(np.asarray(self.starts), self._end)
        checking = np.zeros(self.reached)
        checking[:len(self.checking)] = self.checking
        return 1e3 * (np.diff(bounds) - checking)


class Monitor:
    """Step clock and output checks around the simulator, the detector and
    the DQN update; installed for the whole run."""

    def __init__(self):
        self.phases = []
        self.phase = Phase("idle", 0)

    def install(self, patcher):
        patcher.wrap(EdgeGatewayEnv, "step", self._wrap_step)
        patcher.wrap(pl.AnomalyDetector, "step_profile", self._wrap_profile)
        patcher.wrap(agent, "q_update_network", self._wrap_update)

    def _fail_current(self):
        self.phase.failed.add(max(self.phase.reached - 1, 0))

    def _checked(self, ok, t0):
        """Records one check of the current step, begun at t0, and charges
        its time to the step's checking time."""
        if not ok:
            self._fail_current()
        if self.phase.checking:
            self.phase.checking[-1] += perf_counter() - t0

    def _wrap_step(self, step):
        def checked_step(env, *args, **kwargs):
            phase = self.phase
            phase.starts.append(perf_counter())
            result = step(env, *args, **kwargs)
            t0 = perf_counter()
            index = phase.reached - 1
            phase.envs.setdefault(id(env), (env, index - result.step))
            phase.offered_flows += len(result.offered)
            phase.dropped_flows += len(result.dropped)
            if not conserved(result):
                phase.failed.add(index)
            phase.checking.append(perf_counter() - t0)
            return result
        return checked_step

    def _wrap_profile(self, step_profile):
        def checked_profile(detector, flows):
            x, score = step_profile(detector, flows)
            t0 = perf_counter()
            self._checked(math.isfinite(score) and np.isfinite(x).all(), t0)
            return x, score
        return checked_profile

    def _wrap_update(self, q_update_network):
        def checked_update(*args, **kwargs):
            loss, td_errors = q_update_network(*args, **kwargs)
            t0 = perf_counter()
            self._checked(math.isfinite(loss) and np.isfinite(td_errors).all(), t0)
            return loss, td_errors
        return checked_update

    def run(self, name, planned, fn):
        """Runs one phase; a phase that raises fails the step it was on and
        every step it did not reach.  Returns fn's result or None."""
        phase = Phase(name, planned)
        self.phases.append(phase)
        if any(p.error for p in self.phases[:-1]):
            phase.error = "skipped: an earlier phase failed"
            return None
        self.phase = phase
        out = None
        t0 = perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a failing phase is a measured outcome
            phase.error = f"{type(exc).__name__}: {exc}"
            self._fail_current()
        phase._end = perf_counter()
        phase.wall_s = phase._end - t0 - sum(phase.checking)
        for env, offset in phase.envs.values():
            for violation in env.ledger.check_bounds():
                phase.failed.add(offset + violation.step)
        phase.envs.clear()
        self.phase = Phase("idle", 0)
        return out

    def named(self, name):
        return [p for p in self.phases if p.name == name]

    @property
    def attempted(self):
        return sum(p.attempted for p in self.phases)

    @property
    def failed(self):
        return sum(p.failed_steps for p in self.phases)


# ---------------------------------------------------------------------------
# the closed-loop passes
# ---------------------------------------------------------------------------

PHASES = ("setup", "train", "rollout")


class Cycle:
    """One cycle of a workload from a fresh pipeline: set-up, one training
    episode and one frozen-policy rollout, run through a monitor."""

    def __init__(self, cfg, monitor):
        self.cfg = cfg
        self.monitor = monitor
        self.pipe = pl.DrlPipeline(cfg)
        self.trained = None
        self.rolled = None

    def setup(self):
        self.monitor.run("setup", setup_steps(self.cfg), self.pipe.warmup)

    def train(self):
        self.trained = self.monitor.run(
            "train", self.cfg.episodes * self.cfg.env.episode_len, self.pipe.train)

    def rollout(self):
        seed = self.cfg.seed + ROLLOUT_SEED_OFFSET
        self.rolled = self.monitor.run("rollout", self.cfg.env.episode_len,
                                       lambda: pl.rollout(self.pipe, seed=seed))

    def complete(self):
        return self.trained is not None and self.rolled is not None

    def fingerprint(self):
        """Everything the cycle computed that must repeat exactly."""
        t, r = self.trained, self.rolled
        return (t.q_updates, t.trace_rows, r.trace_rows, r.scores,
                r.ledger.cumulative_energy_j, r.ledger.cumulative_carbon_g)


def measure(cfg, monitor, seconds):
    """The untraced run.  Repeats the cycle (set-up, training, rollout) at
    least MIN_CYCLES times and until ``seconds`` have passed, so that every
    timing is sampled across the whole run; each cycle must reproduce the
    first exactly.  Returns (the first cycle's quality metrics or None,
    whether the cycles agreed)."""
    quality = reference = None
    reproducible = True
    t0 = perf_counter()
    done = 0
    while done < MIN_CYCLES or perf_counter() - t0 < seconds:
        run = Cycle(cfg, monitor)
        for phase in PHASES:
            getattr(run, phase)()
        done += 1
        if not run.complete():
            break
        if reference is None:
            reference = run.fingerprint()
            quality = quality_metrics(run)
        elif run.fingerprint() != reference:
            reproducible = False
    return quality, reproducible


def quality_metrics(run):
    """Detector and ledger outcomes of the rollout, as {name: (value, unit)}.
    They are deterministic at a fixed seed and vary little between seeds.
    anomaly_auc is None without attacks.  deepedge has no classifier, so
    its classifier_accuracy is the accuracy of the tau_step alarm."""
    out = run.rolled
    tau = run.pipe.detector.tau_step
    alarms = np.asarray(out.scores) > tau
    attack = np.asarray(out.attack_labels, dtype=bool)
    accuracy = out.classifier_accuracy
    if accuracy is None:
        accuracy = float(np.mean(alarms == attack))
    return {
        "benign_quiet_frac": (float(np.mean(~alarms[~attack])), "fraction"),
        "anomaly_auc": (out.anomaly_auc(), "auc"),
        "classifier_accuracy": (accuracy, "fraction"),
        "rollout_energy_j": (out.ledger.cumulative_energy_j, "J"),
        "rollout_carbon_g": (out.ledger.cumulative_carbon_g, "g"),
    }


def policy_outcomes(rolled):
    """What the learned policy let through in the rollout.  These swing
    several-fold between training seeds of the autodrl agent, so they are
    reported by the traced run, without a bound."""
    return {
        "pipeline.rollout.attack_blocked_frac":
            1.0 - rolled.attack_passed / max(rolled.attack_offered, 1),
        "pipeline.rollout.benign_passed_frac":
            rolled.benign_passed / max(rolled.benign_offered, 1),
    }


def timing_metrics(monitor, peak_rss_mb):
    """Set-up, step-time and memory figures over every cycle of the run."""
    trains = monitor.named("train")
    train_ms = np.concatenate([p.step_ms() for p in trains])
    rollout_ms = np.concatenate([p.step_ms() for p in monitor.named("rollout")])
    return {
        "setup_s": (float(np.median([p.wall_s for p in monitor.named("setup")])), "s"),
        "train_steps_per_s":
            (sum(p.reached for p in trains) / sum(p.wall_s for p in trains), "1/s"),
        "train_step_ms_p50": (float(np.percentile(train_ms, 50)), "ms"),
        "train_step_ms_p99": (float(np.percentile(train_ms, 99)), "ms"),
        "rollout_step_ms_p50": (float(np.percentile(rollout_ms, 50)), "ms"),
        "rollout_step_ms_p99": (float(np.percentile(rollout_ms, 99)), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------


def write_artifacts(run, out_dir):
    """What ``edgeids train`` and ``edgeids evaluate`` write for this run."""
    trained, rollout = run.trained, run.rolled
    neural.save_checkpoint(trained.models, out_dir / "checkpoint.txt")
    cli.write_json(out_dir / "detector.json", pl.detector_to_dict(run.pipe.detector))
    pl.write_episode_csv(out_dir / "episodes.csv", trained.episode_stats)
    pl.write_trace_csv(out_dir / "trace.csv", trained.trace_rows)
    trained.ledgers[0].to_csv(out_dir / "ledger.csv")
    pl.write_trace_csv(out_dir / "eval_trace.csv", rollout.trace_rows)
    rollout.ledger.to_csv(out_dir / "eval_ledger.csv")


def traced_run(cfg, monitor, patcher, artifacts_dir):
    """One untraced and one traced cycle; the traced cycle also writes the
    run artifacts.  The untraced cycle only serves the tracing overhead,
    the traced phase wall time minus the untraced one.  Returns (recorder,
    per-layer metrics)."""
    plain = Cycle(cfg, monitor)
    for phase in PHASES:
        getattr(plain, phase)()
    plain_walls = {p.name: p.wall_s for p in monitor.phases}

    recorder = SpanRecorder()
    # the monitor stays outermost, so its checking time lies outside spans
    patcher.restore()
    span_patches = Patcher()
    install_layer_spans(span_patches, recorder)
    monitor.install(patcher)
    run = Cycle(cfg, monitor)
    first_phase = len(monitor.phases)
    bounds = {}
    try:
        for phase in PHASES:
            start = len(recorder)
            getattr(run, phase)()
            bounds[phase] = (start, len(recorder))
        artifacts_s = 0.0
        if run.complete():
            t0 = perf_counter()
            with recorder.span("cli.write_artifacts"):
                write_artifacts(run, artifacts_dir)
            artifacts_s = perf_counter() - t0
    finally:
        patcher.restore()
        span_patches.restore()

    traced_phases = {p.name: p for p in monitor.phases[first_phase:]}
    index = np.arange(len(recorder))

    def mask(*names):
        m = np.zeros(len(recorder), dtype=bool)
        for name in names:
            lo, hi = bounds.get(name, (0, 0))
            m |= (index >= lo) & (index < hi)
        return m

    loop = [traced_phases[n] for n in ("train", "rollout") if n in traced_phases]
    values = layer_metrics(
        recorder, mask("train", "rollout"), mask(*PHASES),
        loop_steps=sum(p.reached for p in loop),
        offered_flows=sum(p.offered_flows for p in loop),
        dropped_flows=sum(p.dropped_flows for p in loop),
        artifacts_s=artifacts_s,
        overhead_s={n: traced_phases[n].wall_s - plain_walls[n]
                    for n in PHASES if n in traced_phases and n in plain_walls})
    if run.complete():
        values.update(policy_outcomes(run.rolled))
    return recorder, values
