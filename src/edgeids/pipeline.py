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
import multiprocessing as mp
import os
import signal
import stat
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import agent as ag
from . import features as ft
from . import neural
from .config import ExperimentConfig, is_number, is_numbers
from .evaluation import ConfusionCounts, roc_auc
from .gateway_env import EdgeGatewayEnv
from .sustain import (KappaProvider, RewardComponents, compute_reward,
                      load_kappa_schedule)

RATE_SCALE = 5000.0     # state scaling so Q-net inputs sit near [0, 1]
SCORE_SCALE = 10.0      # anomaly score enters as min(a_s / tau, SCORE_SCALE)
BASE_LATENCY_S = 0.2
LATENCY_PER_CPU = 0.002  # seconds of inference latency per CPU percent


# ---------------------------------------------------------------------------
# the episode trace: one row per step
# ---------------------------------------------------------------------------

TRACE_COLUMNS = [
    "episode", "step", "attack_active", "anomaly_score", "alert", "action",
    "offered_benign", "offered_attack", "passed_benign", "passed_attack",
    "dropped_benign", "dropped_attack", "rate_cap", "syn_cap", "drop_filter",
    "blacklist_size", "cpu_pct", "power_w", "mem_util", "energy_j",
    "carbon_g", "reward",
]


# a trace row's integer and float columns; an action of NO_ACTION and a cap
# of NaN (a configured cap is positive) write as empty cells.  The verdict,
# the classifier's (1 attack, 0 benign, NO_VERDICT unjudged), is not written.
TRACE_INTS = (
    "episode", "step", "attack_active", "alert", "action", "offered_benign",
    "offered_attack", "passed_benign", "passed_attack", "dropped_benign",
    "dropped_attack", "drop_filter", "blacklist_size", "verdict",
)
TRACE_FLOATS = (
    "anomaly_score", "rate_cap", "syn_cap", "cpu_pct", "power_w", "mem_util",
    "energy_j", "carbon_g", "reward",
)
NO_ACTION = NO_VERDICT = -1
REWARD = TRACE_FLOATS.index("reward")


class Trace:
    """Per-step trace rows in two preallocated numpy columns, TRACE_INTS
    and TRACE_FLOATS; ``len`` counts the rows filled.  Iterating yields
    each row's cells in TRACE_COLUMNS order, as write_trace_csv writes
    them, but for step 0's rows, which no action can reach.  Two traces
    are equal when their rows are, to the bit."""

    def __init__(self, capacity):
        self.ints = np.zeros((capacity, len(TRACE_INTS)), dtype=np.int64)
        self.floats = np.zeros((capacity, len(TRACE_FLOATS)))
        self.n = 0

    @classmethod
    def join(cls, traces):
        """One trace of ``traces``' rows, in order."""
        joined = cls(sum(len(t) for t in traces))
        for t in traces:
            joined.ints[joined.n:joined.n + t.n] = t.ints[:t.n]
            joined.floats[joined.n:joined.n + t.n] = t.floats[:t.n]
            joined.n += t.n
        return joined

    def __len__(self):
        return self.n

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return (np.array_equal(self.ints[:self.n], other.ints[:other.n])
                and np.array_equal(self.floats[:self.n].view(np.int64),
                                   other.floats[:other.n].view(np.int64)))

    def __iter__(self):
        for ints, floats in zip(self.ints[:self.n].tolist(),
                                self.floats[:self.n].tolist()):
            episode, step, attack, alert, action, *packets, drop, blacklist, _ = ints
            if step == 0:
                continue
            score, rate_cap, syn_cap, *resources = floats
            yield [episode, step, attack, score, alert,
                   "" if action == NO_ACTION else action, *packets,
                   "" if rate_cap != rate_cap else rate_cap,
                   "" if syn_cap != syn_cap else syn_cap,
                   drop, blacklist, *resources]

    def column(self, name):
        """The filled rows' cells of column ``name``, of either kind."""
        if name in TRACE_INTS:
            return self.ints[:self.n, TRACE_INTS.index(name)]
        return self.floats[:self.n, TRACE_FLOATS.index(name)]


def trace_row(trace, episode, result, anomaly_score, alert, verdict):
    """Fill ``trace``'s next row with one step and the classifier's verdict
    on it, None if unjudged; its reward cell holds 0.0 until it is paid."""
    m = result.mitigation
    e = result.ledger_entry
    offered, passed, dropped = (result.offered_pkts, result.passed_pkts,
                                result.dropped_pkts)
    n = trace.n
    trace.ints[n] = (
        episode, result.step, result.attack_active, alert,
        NO_ACTION if result.action is None else result.action,
        offered["benign"], offered["attack"], passed["benign"], passed["attack"],
        dropped["benign"], dropped["attack"], m.drop_filter_active,
        len(m.blacklist), NO_VERDICT if verdict is None else verdict)
    trace.floats[n] = (
        anomaly_score, np.nan if m.rate_cap is None else m.rate_cap,
        np.nan if m.syn_cap is None else m.syn_cap, result.resource.cpu_pct,
        result.resource.power_w, e.m_util, e.energy_j, e.carbon_g, 0.0)
    trace.n = n + 1


def write_trace_csv(path, rows):
    """``rows``, a Trace or a list of rows, under the TRACE_COLUMNS header."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(TRACE_COLUMNS)
        writer.writerows(rows)


def episode_rates(agent, rows):
    """(attack suppression, false rate) over rows of a Trace's ints: the
    attack packets dropped over those offered, and benign collateral
    (deepedge) or the classifier's miss rate on the attack steps it judged
    (autodrl); a rate with nothing to count is 0.  These feed the rewards;
    the alert-based metrics of evaluation runs do not."""
    total = dict(zip(TRACE_INTS, rows.sum(axis=0).tolist()))
    offered, dropped = total["offered_attack"], total["dropped_attack"]
    if agent == "autodrl":
        attack = rows[:, TRACE_INTS.index("attack_active")] != 0
        verdicts = rows[attack, TRACE_INTS.index("verdict")].tolist()
        judged, missed = len(verdicts) - verdicts.count(NO_VERDICT), verdicts.count(0)
    else:
        judged, missed = total["offered_benign"], total["dropped_benign"]
    return (dropped / offered if offered else 0.0,
            missed / judged if judged else 0.0)


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
    _last: tuple = field(default=None, init=False, repr=False, compare=False)

    def _normalized(self, features):
        """The normalized rows of a feature matrix.  The gateway's flags
        and then the step profile ask for the same step's matrix, so the
        last one is kept."""
        if self._last is None or self._last[0] is not features:
            self._last = (features, self.normalizer.transform(features))
        return self._last[1]

    def flow_flag(self, features):
        """One flag per feature row, as a bool array: its reconstruction
        error exceeds tau_flow."""
        return (_row_errors(self.autoencoder, self._normalized(features))
                > self.tau_flow)

    def step_profile(self, features):
        """(normalized mean feature vector, anomaly score) of one step's
        feature matrix."""
        x = step_mean(self._normalized, features)
        return x, self.autoencoder.anomaly_score(x) if len(features) else 0.0


def step_mean(normalize, features):
    """The normalized mean feature vector of one step's feature matrix,
    zeros for a step without flows; ``normalize`` maps the matrix to its
    normalized rows."""
    if not len(features):
        return np.zeros(len(ft.FEATURE_NAMES))
    return normalize(features).mean(axis=0)


def _row_errors(autoencoder, rows):
    """Summed squared reconstruction error of each normalized flow row."""
    _, recon = autoencoder.reconstruct(rows)
    return ((rows - recon) ** 2).sum(axis=1)


def detector_to_dict(detector):
    """JSON-able thresholds and normalizer statistics (the autoencoder
    itself travels in the model checkpoint)."""
    return {
        "kind": "minmax",
        "low": [float(v) for v in detector.normalizer.low],
        "scale": [float(v) for v in detector.normalizer.scale],
        "tau_flow": detector.tau_flow,
        "tau_step": detector.tau_step,
    }


def detector_from_dict(data, autoencoder):
    """The inverse of detector_to_dict, around the checkpoint's
    autoencoder.  A ValueError names the first key that is missing or
    wrong: ``low`` and ``scale`` hold a finite number per feature,
    ``scale``'s above 0, and each threshold is a finite number."""
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind != "minmax":
        raise ValueError(f"detector.json: unknown normalizer kind {kind!r}, "
                         f"expected 'minmax'")
    n = len(ft.FEATURE_NAMES)
    for key, ok, want in (
            ("low", lambda v: is_numbers(v, n), f"a list of {n} finite numbers"),
            ("scale", lambda v: is_numbers(v, n) and min(v) > 0,
             f"a list of {n} finite numbers above 0"),
            ("tau_flow", is_number, "a finite number"),
            ("tau_step", is_number, "a finite number")):
        if key not in data:
            raise ValueError(f"detector.json: key {key!r} is missing, expected {want}")
        if not ok(data[key]):
            raise ValueError(f"detector.json: {key!r} must be {want}, got {data[key]!r}")
    normalizer = ft.Normalizer()
    normalizer.low = np.array(data["low"], dtype=float)
    normalizer.scale = np.array(data["scale"], dtype=float)
    normalizer.fitted = True
    return AnomalyDetector(normalizer, autoencoder,
                           float(data["tau_flow"]), float(data["tau_step"]))


def benign_warmup(cfg, rng_seed):
    """The detector's first half: run the benign warm-up steps and fit the
    normalizer.  Returns (normalizer, the normalized matrix of every
    warm-up flow in generation order, the number of flows of each step)."""
    env = EdgeGatewayEnv(replace(cfg.env, episode_len=cfg.warmup.steps, attacks=[]),
                         seed=rng_seed, resources=cfg.resources)
    # no mitigation acts during warm-up, so every offered flow passes
    step_rows = [env.step(None).features for _ in range(cfg.warmup.steps)]
    # of the per-step matrices only their row counts are kept, so they are
    # freed once concatenated
    row_counts = [len(rows) for rows in step_rows]
    raw = np.concatenate(step_rows)
    del step_rows
    if raw.shape[0] < 2:
        raise ValueError(f"warm-up produced {raw.shape[0]} flow(s), and fitting "
                         "needs two; raise env.benign_rate or warmup.steps")
    normalizer = ft.Normalizer().fit(raw)
    return normalizer, normalizer.transform(raw), row_counts


def fit_autoencoder(cfg, rng_seed, data, row_counts, fork_half=False):
    """The detector's second half: train the autoencoder on benign_warmup's
    normalized matrix and set both alarm thresholds at the configured
    benign percentile.  Returns (autoencoder, tau_flow, tau_step).

    Each epoch's gradient is the sum of the gradients over the matrix's
    two halves (neural.HalvesWork).  With fork_half, a worker forked for
    the fit computes the second half while this process computes the
    first; otherwise, or where no process can be forked, this process
    computes both, in the same order.  The results are the same to the
    bit either way, and differ from a full-batch fit only in low-order
    bits."""
    model = neural.autoencoder_init(
        np.random.default_rng(rng_seed), input_dim=len(ft.FEATURE_NAMES),
        hidden_dim=cfg.neural.ae_hidden, latent_dim=cfg.neural.latent_dim)
    second = forked(HalfWorker, model.layers, data) if fork_half else None
    # a diverging autoencoder overflows here; the finite check below fails it
    with np.errstate(over="ignore", invalid="ignore"):
        with second if second is not None else nullcontext():
            work = neural.HalvesWork(model.layers, data.shape[0], second)
            for _ in range(cfg.neural.ae_epochs):
                neural.autoencoder_train_step(model, data, cfg.neural.ae_lr, work)
        # free the buffers before the full-batch scoring below makes its own
        del work
        tau_flow = float(np.percentile(_row_errors(model, data),
                                       cfg.warmup.tau_percentile))
        # each step's rows of the normalized matrix, in generation order
        bounds = np.cumsum(row_counts)[:-1]
        step_scores = [model.anomaly_score(rows.mean(axis=0))
                       for rows in np.split(data, bounds) if len(rows)]
        tau_step = float(np.percentile(step_scores, cfg.warmup.tau_percentile))
    if not np.isfinite([tau_flow, tau_step]).all():
        raise ValueError(f"warm-up autoencoder diverged (tau_flow={tau_flow}, "
                         f"tau_step={tau_step}); lower neural.ae_lr")
    return model, tau_flow, tau_step


# a lockstep side spins this long for the other before it blocks: a
# blocked process wakes 100-300 us late on a busy 2-vCPU box, a fifth of a
# warm-up epoch, and a round's wait is rarely longer than the spin
_SPIN_S = 0.002
# how often a blocked lockstep side checks that the other still runs
_ALIVE_S = 0.1


def usable_cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call, as on macOS
        return os.cpu_count() or 1


def forked(start, *args):
    """start(*args), which forks a process, or None where no process can
    be forked: the caller then does the process's work itself."""
    try:
        return start(*args)
    except OSError:
        return None


def _meet(sem, alive):
    """Acquires the semaphore, spinning up to _SPIN_S before it blocks;
    False if alive() turns false while it waits."""
    deadline = time.perf_counter() + _SPIN_S
    while time.perf_counter() < deadline:
        if sem.acquire(False):
            return True
    while not sem.acquire(timeout=_ALIVE_S):
        if not alive():
            return sem.acquire(False)
    return True


class ForkedCall:
    """fn(*args) run once in a child process forked from this one.

    The child reads its arguments in the memory it shares with the
    parent as of the fork, so only the result is pickled, back through a
    one-way pipe.  ``fork`` rather than ``spawn`` or ``forkserver``: those
    re-import numpy in a fresh interpreter, and a forkserver stays
    running afterwards.  The child ignores SIGINT, so that a Ctrl-C
    reaches the parent alone, which ends the child, and a child whose
    parent has gone exits without a word.  A child that dies raises a
    one-line RuntimeError in the parent.  A fork that fails raises
    OSError and leaves no pipe open, its own or the ones multiprocessing
    made for the child."""

    def __init__(self, fn, *args):
        ctx = mp.get_context("fork")
        self._conn, child_end = ctx.Pipe(duplex=False)
        self._proc = ctx.Process(target=_serve_call, daemon=True,
                                 args=(self._conn, child_end, fn, args))
        before = _open_pipes()
        try:
            self._proc.start()
        except BaseException:
            self._conn.close()
            if self._proc.pid is None:
                # no child: the pipes Process.start makes for it before it
                # forks stay open, so close what this start opened
                for fd in _open_pipes() - before:
                    os.close(fd)
            raise
        finally:
            child_end.close()

    def ended(self):
        """Whether the child has replied or died; does not wait."""
        return self._conn.poll() or not self._proc.is_alive()

    def result(self):
        """Waits for the child and reaps it; returns fn's result or raises
        fn's exception."""
        try:
            value = self._reply()
        except BaseException:
            self.cancel()
            raise
        self._proc.join()
        self._conn.close()
        return value

    def cancel(self):
        """Ends the child, if it still runs, and reaps it."""
        self._proc.terminate()
        self._proc.join()
        self._conn.close()

    def _reply(self):
        try:
            ok, value = self._conn.recv()
        except (EOFError, OSError):
            # the child died before it could reply
            self._proc.join()
            raise RuntimeError(f"forked child exited with code "
                               f"{self._proc.exitcode} and no result") from None
        if not ok:
            raise value
        return value


def _open_pipes():
    """The pipe descriptors this process has open, where the system lists
    them; else none.  The warm-up starts no thread, so none opens a pipe
    while a ForkedCall compares two of these."""
    for listing in ("/proc/self/fd", "/dev/fd"):
        try:
            names = os.listdir(listing)
        except OSError:
            continue
        pipes = set()
        for name in names:
            try:
                if stat.S_ISFIFO(os.fstat(int(name)).st_mode):
                    pipes.add(int(name))
            except OSError:
                pass  # the listing's own descriptor, closed by now
        return pipes
    return set()


def _serve_call(parent_end, conn, fn, args):
    """A ForkedCall child: sends (True, fn's result) or (False, its
    exception), so that the parent raises it and the child prints
    nothing.  It first closes its copy of the parent's end, so that a
    send to a parent that has gone fails rather than blocking once the
    pipe is full."""
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        reply = True, fn(*args)
    except Exception as exc:
        reply = False, exc
    try:
        conn.send(reply)
    except OSError:
        return  # the parent has gone
    conn.close()


class HalfWorker:
    """The second half of a neural.HalvesWork's batch, computed by a worker
    forked for one fit (a ForkedCall of _half_gradient) while this process
    computes the first, in lockstep.

    The layers' parameters move into a shared memory map, where the
    worker reads each step's; the worker writes its gradient and the sum
    of its half's squared errors into two more, and reads a stop flag
    from a fourth.  start() begins a round and finish() waits for it.
    Rounds meet through two semaphores, go and done, on which each side
    spins briefly before it blocks (_meet).  A round that raises, or a
    worker that dies, ends the ForkedCall, and finish() then raises the
    round's exception or a one-line RuntimeError.  The worker allocates
    its DenseWork after the fork, so that no page of it is copied on
    write.  Leaving the worker as a context manager, however it is left,
    ends and reaps it and moves the parameters back into this process's
    own memory; left normally, it sets the stop flag and starts one more
    round, which the worker ends by returning.  A fork that fails raises
    and leaves the layers as they were."""

    def __init__(self, layers, batch):
        self._layers = layers
        params = neural.mapped_zeros(sum(p.size for layer in layers
                                         for p in (layer.w, layer.b)))
        at = 0
        for layer in layers:
            for name in ("w", "b"):
                value = getattr(layer, name)
                shared = params[at:at + value.size].reshape(value.shape)
                shared[...] = value
                setattr(layer, name, shared)
                at += value.size
        self._grads = neural.mapped_zeros(params.size)
        self._total = neural.mapped_zeros(1)
        self._stop = neural.mapped_zeros(1, dtype=np.int8)
        ctx = mp.get_context("fork")
        # the parent starts a round, the worker ends it
        self._go, self._done = ctx.Semaphore(0), ctx.Semaphore(0)
        try:
            self._call = ForkedCall(_half_gradient, layers, batch, self._grads,
                                    self._total, self._stop, self._go, self._done)
        except BaseException:
            self._unshare()
            raise

    def start(self):
        self._go.release()

    def finish(self):
        if not _meet(self._done, lambda: not self._call.ended()):
            self._call.result()  # raises the round's exception, or its death
        return self._grads, float(self._total[0])

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        try:
            if exc_type is None:
                self._stop[0] = 1
                self._go.release()
                self._call.result()
            else:
                self._call.cancel()
        finally:
            self._unshare()

    def _unshare(self):
        for layer in self._layers:
            layer.w, layer.b = layer.w.copy(), layer.b.copy()


def _half_gradient(layers, batch, grads, total, stop, go, done):
    """A HalfWorker's rounds, run in the forked worker: each writes the
    gradient over the batch's second half into grads and the sum of the
    half's squared errors into total.  Ends when the parent sets stop, or
    has gone; a round that raises ends it with that exception."""
    half = neural.HalvesWork.halves(batch)[1]
    work = neural.DenseWork(layers, len(half), grads)
    parent = os.getppid()
    while _meet(go, lambda: os.getppid() == parent) and not stop[0]:
        # as in fit_autoencoder, a diverging fit is failed by its caller
        with np.errstate(over="ignore", invalid="ignore"):
            total[0] = work.reconstruction_gradient(layers, half, len(batch))
        done.release()


def classifier_sgd_step(cfg, clf, window, label, k):
    """The k-th SGD step (k from 1) of the LSTM classifier, on one window,
    in the classifier's own work: the online steps of training.  The step
    size decays slowly (k^-0.55), leaving room for the faster-decaying DQN
    updates during the joint phase."""
    _, grads = neural.backward(clf, window, label)
    neural.apply_gradients(clf, grads, cfg.neural.lstm_lr * k ** -0.55)


def classifier_minibatch_step(cfg, clf, work, windows, labels, k):
    """One pre-training SGD step on a minibatch of [rows, window_len,
    input_dim] windows, run in work, an LstmWork for that many rows, after
    k windows seen.  Window j of the minibatch keeps the step size the
    online schedule gives the (k + j + 1)-th window, lstm_lr *
    (k + j + 1)^-0.55, and the step is the sum of the windows' gradients
    each weighted by its step size (the linear-scaling rule).  Returns the
    count of windows seen after it."""
    seen = np.arange(k + 1, k + len(windows) + 1)
    _, grads = neural.classifier_gradient(
        clf, windows, labels, cfg.neural.lstm_lr * seen ** -0.55, work)
    neural.apply_gradients(clf, grads, 1.0)
    return k + len(windows)


# pre-training runs PRETRAIN_PASSES passes over its windows, in
# minibatches of PRETRAIN_BATCH windows, or more where the windows fill
# so few minibatches that it would take fewer than PRETRAIN_MIN_STEPS
# steps: a few dozen steps leave the classifier at one verdict
PRETRAIN_BATCH = 32
PRETRAIN_PASSES = 4
PRETRAIN_MIN_STEPS = 250


def pretrain_step_classifier(cfg, normalizer, seed):
    """Supervised phase: label simulator steps and fit the LSTM classifier.

    Windows of consecutive per-step normalized mean features are labeled
    by the last step's ground truth; no anomaly score is needed, so only
    the warm-up's normalizer is.  Every action is None, so no mitigation
    acts and no flow flag reaches the traffic: the env keeps its default
    rate flagger.  Each step's mean features are kept in one [steps,
    input] array, and a minibatch's windows are gathered from it.  The
    windows are visited in one random order, PRETRAIN_PASSES times or
    enough more to take PRETRAIN_MIN_STEPS steps, in minibatches of
    PRETRAIN_BATCH windows, the last of a pass taking what is left, one
    classifier_minibatch_step each.  Returns the classifier
    and the number of windows it has seen, from which the online steps of
    training count on."""
    clf_rng = np.random.default_rng(seed)
    window = cfg.neural.lstm_window
    clf = neural.lstm_classifier_init(
        len(ft.FEATURE_NAMES), cfg.neural.lstm_hidden, window, clf_rng)

    episodes, steps = max(cfg.pretrain_episodes, 1), cfg.env.episode_len
    means = np.empty((episodes * steps, len(ft.FEATURE_NAMES)))
    attack = np.empty(episodes * steps, dtype=np.int64)
    for episode in range(episodes):
        env = EdgeGatewayEnv(cfg.env, seed=seed + 101 + episode,
                             resources=cfg.resources)
        for t in range(episode * steps, (episode + 1) * steps):
            result = env.step(None)
            means[t] = step_mean(normalizer.transform, result.features)
            attack[t] = result.attack_active
    # each episode's windows in step order, the episodes one after another
    starts = (np.arange(episodes)[:, None] * steps
              + np.arange(max(steps - window + 1, 0))).ravel()
    labels = attack[starts + window - 1]

    order = clf_rng.permutation(len(starts))
    batches = [order[at:at + PRETRAIN_BATCH]
               for at in range(0, len(order), PRETRAIN_BATCH)]
    # one work for full minibatches and one for a pass's last, if smaller
    works = {rows: neural.LstmWork(clf.cell, window, rows)
             for rows in {len(idx) for idx in batches}}
    k = 0
    passes = (max(PRETRAIN_PASSES, -(-PRETRAIN_MIN_STEPS // len(batches)))
              if batches else 0)
    for _ in range(passes):
        for idx in batches:
            k = classifier_minibatch_step(
                cfg, clf, works[len(idx)],
                means[starts[idx, None] + np.arange(window)], labels[idx], k)
    return clf, k


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

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
    td_loss_mean: float     # mean minibatch TD loss over the episode's updates


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
    ledgers: list
    trace_rows: Trace                 # every episode's, joined
    q_updates: int
    constant_verdict_episodes: list   # see EpisodeOutcome.constant_verdict


def carbon_weight(agent):
    """Weight of the carbon penalty in the DQN's TD target: the supervised
    agent's update is carbon-weighted, the unsupervised agent's is not."""
    return 1.0 if agent == "autodrl" else 0.0


def td_loss_ceiling(cfg):
    """(2B)^2: B = reward_bound(c_cap) / (1 - gamma) + carbon_weight * c_cap,
    with c_cap = kappa_max * p_max * dt, bounds every return and TD target,
    so a larger mean squared TD error means a DQN blowing up while finite."""
    limits = cfg.sustain.ledger_limits()
    c_cap = limits.kappa_max * limits.p_max * cfg.env.dt
    bound = (cfg.sustain.weights.reward_bound(c_cap) / (1.0 - cfg.hyper.gamma)
             + carbon_weight(cfg.agent) * c_cap)
    return (2.0 * bound) ** 2


@dataclass
class EpisodeOutcome:
    """What one episode did, read off its trace: run_episode fills a row
    per step, 0..L-1, as the ledger has.  Packet totals and the CPU sum
    cover every step; reward, alerts, scores, labels, verdicts and response
    times count from step 1, the first step an action can reach."""

    ledger: object
    trace_rows: Trace
    response_times: list = field(default_factory=list)

    def _acted(self, column):
        return self.trace_rows.column(column)[1:]

    def _sum(self, column):
        # in step order, as a running total adds: the builtin sum()
        # compensates float sums from Python 3.12 on, and np.sum pairs them
        return np.cumsum(self.trace_rows.column(column))[-1].item()

    attack_offered = property(lambda self: self._sum("offered_attack"))
    attack_passed = property(lambda self: self._sum("passed_attack"))
    benign_offered = property(lambda self: self._sum("offered_benign"))
    benign_passed = property(lambda self: self._sum("passed_benign"))
    cpu_pct_sum = property(lambda self: self._sum("cpu_pct"))
    reward_total = property(lambda self: self._sum("reward"))  # step 0's is 0.0
    scores = property(lambda self: self._acted("anomaly_score").tolist())
    attack_labels = property(lambda self: self._acted("attack_active").tolist())
    # alerts, and the classifier's verdicts where it judged, against truth
    confusion = property(lambda self: ConfusionCounts.of(
        self._acted("attack_active"), self._acted("alert")))

    @property
    def classifier(self):
        verdict = self._acted("verdict")
        judged = verdict != NO_VERDICT
        return ConfusionCounts.of(self._acted("attack_active")[judged],
                                  verdict[judged])

    @property
    def detection_prob(self):
        """The share of attack steps alerted on; None without attack steps."""
        c = self.confusion
        return c.tp / (c.tp + c.fn) if c.tp + c.fn else None

    classifier_correct = property(lambda self: self.classifier.tp + self.classifier.tn)
    classifier_total = property(lambda self: self.classifier.total)

    @property
    def classifier_accuracy(self):
        c = self.classifier
        return (c.tp + c.tn) / c.total if c.total else None

    @property
    def constant_verdict(self):
        """Whether the classifier gave every step one verdict although the
        episode had attack and benign steps: it has not learned to tell
        them apart, as one trained at too small a neural.lstm_lr does."""
        c = self.classifier
        return (c.tp + c.fn > 0 and c.tn + c.fp > 0
                and (c.tp + c.fp == 0 or c.tn + c.fn == 0))

    def anomaly_auc(self):
        if len(set(self.attack_labels)) < 2:
            return None
        return roc_auc(self.scores, self.attack_labels)


# ---------------------------------------------------------------------------
# episode steps, as DrlPipeline.run_episode observes them
# ---------------------------------------------------------------------------

@dataclass
class EpisodeStep:
    """One observed step of an episode; the reward stays unset at step 0."""

    pipeline: DrlPipeline
    t: int
    action: object          # the action taken into this step; None = monitor
    result: object          # the gateway's StepResult
    x_step: np.ndarray      # normalized mean feature vector
    a_s: float              # step anomaly score
    window: np.ndarray      # stacked LSTM window (autodrl), else None
    classified: object      # the classifier's verdict (autodrl), else None
    reward: object = None   # RewardBreakdown
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
        kappa_file = cfg.sustain.kappa_schedule_file
        # read once, so a bad file fails before the warm-up
        self._kappa_schedule = load_kappa_schedule(kappa_file) if kappa_file else None

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

    def load_models(self, models, detector_data):
        """Rebuild the trained detector, classifier and Q-network from a
        checkpoint's models and detector_to_dict's data; every check runs
        before anything is set."""
        for name in ("autoencoder", "q_network"):
            if name not in models:
                raise ValueError(f"checkpoint lacks model {name!r}")
        clf = models.get("classifier")
        if self.cfg.agent != "autodrl":
            if clf is not None:
                raise ValueError(f"checkpoint holds an autodrl classifier, and "
                                 f"agent {self.cfg.agent!r} cannot run it")
        elif clf is None:
            raise ValueError("checkpoint lacks model 'classifier'")
        elif clf.window_len != self.cfg.neural.lstm_window:
            raise ValueError(
                f"classifier runs {clf.window_len}-step windows, config "
                f"needs neural.lstm_window={self.cfg.neural.lstm_window}")
        elif clf.cell.input_dim != len(ft.FEATURE_NAMES):
            raise ValueError(
                f"classifier expects input {clf.cell.input_dim}, the step "
                f"features have {len(ft.FEATURE_NAMES)}")
        q_net = ag.QNetwork(list(models["q_network"]))
        if q_net.input_dim != self.state_dim():
            raise ValueError(
                f"q_network layer 0 expects input {q_net.input_dim}, "
                f"config needs {self.state_dim()}")
        detector = detector_from_dict(detector_data, models["autoencoder"])
        self.q_net = q_net
        self.classifier = clf
        self.detector = detector

    # -- state assembly ----------------------------------------------------

    def _latent(self, x_step, window):
        if self.cfg.agent == "autodrl":
            return self.classifier.hidden(window)
        return self.detector.autoencoder.encode(x_step)

    def state_vector(self, result, x_step, a_s, window):
        """[offered packet rate, SYN and ACK counts, clipped a_s / tau_step,
        latent], the first three over RATE_SCALE."""
        p_rate = sum(result.offered_pkts.values()) / self.cfg.env.dt
        return np.concatenate([
            [p_rate / RATE_SCALE, result.offered_syn / RATE_SCALE,
             result.offered_ack / RATE_SCALE,
             min(a_s / max(self.detector.tau_step, 1e-9), SCORE_SCALE) / SCORE_SCALE],
            self._latent(x_step, window),
        ])

    # -- training ----------------------------------------------------------

    def warmup(self):
        """Fit the detector, and for autodrl pre-train the classifier.

        The autoencoder fits on two half-batches (fit_autoencoder).  Both
        agents fork only where ``fork`` exists and two CPUs are usable: on
        one CPU the two processes would only take turns.  There deepedge
        computes one half in this process and the other in a HalfWorker,
        in lockstep.  The classifier needs only the detector's normalizer,
        so autodrl instead trains the autoencoder in a ForkedCall child,
        which computes both halves itself, while this process pre-trains.
        Where a fork fails, this process does the child's work itself.  The
        results are the same to the bit either way.  A failure raises
        here, the autoencoder's first, as in the serial order, and leaves
        no child running."""
        cfg = self.cfg
        seed = cfg.seed + 7919
        normalizer, data, row_counts = benign_warmup(cfg, seed)
        can_fork = "fork" in mp.get_all_start_methods() and usable_cpus() >= 2
        fit = (forked(ForkedCall, fit_autoencoder, cfg, seed, data, row_counts)
               if cfg.agent == "autodrl" and can_fork else None)
        if fit is None:
            self.detector = AnomalyDetector(normalizer, *fit_autoencoder(
                cfg, seed, data, row_counts, fork_half=can_fork))
            if cfg.agent == "autodrl":
                self.classifier, self._classifier_updates = \
                    pretrain_step_classifier(cfg, normalizer, cfg.seed + 104729)
            return
        # the child holds its own copy of the matrix from here on
        del data
        try:
            clf, updates = pretrain_step_classifier(cfg, normalizer,
                                                    cfg.seed + 104729)
        except Exception:
            fit.result()  # the autoencoder's error comes first
            raise
        except BaseException:
            fit.cancel()
            raise
        self.detector = AnomalyDetector(normalizer, *fit.result())
        self.classifier, self._classifier_updates = clf, updates

    def train(self):
        """Warm-up unless done, then cfg.episodes of DQN training; a
        diverging DQN raises ag.Diverged naming the learning rate."""
        try:
            return self._train()
        except ag.Diverged as exc:
            raise ag.Diverged(f"{exc}: the DQN diverged; lower hyper.lr") from exc

    def _train(self):
        cfg = self.cfg
        if self.detector is None:
            self.warmup()
        init_rng = np.random.default_rng(cfg.seed + 1299709)
        self.q_net = ag.qnetwork_init(self.state_dim(), init_rng,
                                      hidden=tuple(cfg.neural.q_hidden))
        target_net = self.q_net.copy()
        q_work = neural.DenseWork(self.q_net.layers, cfg.hyper.batch_size)
        buffer = ag.ReplayBuffer(cfg.hyper.buffer_capacity, cfg.hyper.batch_size)
        action_rng = np.random.default_rng(cfg.seed + 15485863)
        epsilon = cfg.hyper.epsilon.start_probability()

        def decide(prev):
            """epsilon-greedy above the alarm threshold"""
            fill = len(buffer) / buffer.capacity
            if not prev.alarm:
                return None, False, fill
            action = ag.select_action(self.q_net, prev.state(), epsilon, action_rng)
            return action, len(buffer) >= cfg.hyper.batch_size, fill

        q_updates = 0
        clf_updates = self._classifier_updates
        loss_sum = 0.0

        def learn(prev, step):
            """the classifier's SGD step, then the replay store and DQN update"""
            nonlocal epsilon, q_updates, clf_updates, loss_sum
            if step.classified is not None:
                clf_updates += 1
                classifier_sgd_step(cfg, self.classifier, step.window,
                                    int(step.result.attack_active), clf_updates)
            if step.action is None:
                return
            buffer.store(prev.state(), step.action, step.reward.total,
                         step.state(), step.reward.components.carbon_g,
                         terminal=step.t == cfg.env.episode_len - 1)
            if len(buffer) < cfg.hyper.batch_size:
                return
            q_updates += 1
            loss, _ = ag.q_update_network(
                self.q_net, q_work, buffer.sample_minibatch(action_rng),
                target_net, cfg.hyper.gamma, self._q_lr(q_updates),
                carbon_weight(cfg.agent))
            loss_sum += loss
            epsilon = ag.decay_epsilon(epsilon, cfg.hyper.epsilon.decay,
                                       cfg.hyper.epsilon.floor)
            if q_updates % cfg.hyper.target_sync_every == 0:
                target_net.sync_from(self.q_net)

        episode_stats, outcomes = [], []
        for episode in range(cfg.episodes):
            env = self._make_env(cfg.seed + 1000 * (episode + 1))
            updates_before, loss_sum = q_updates, 0.0
            out = self.run_episode(env, decide, learn, episode)
            updates = q_updates - updates_before
            detection_rate, false_rate = episode_rates(cfg.agent,
                                                       out.trace_rows.ints)
            episode_stats.append(EpisodeStats(
                episode=episode,
                reward_total=out.reward_total,
                detection_rate=detection_rate,
                false_rate=false_rate,
                attack_offered=out.attack_offered,
                attack_passed=out.attack_passed,
                benign_offered=out.benign_offered,
                benign_passed=out.benign_passed,
                energy_j=out.ledger.cumulative_energy_j,
                carbon_g=out.ledger.cumulative_carbon_g,
                cpu_mean=out.cpu_pct_sum / cfg.env.episode_len,
                epsilon_end=epsilon,
                updates=updates,
                td_loss_mean=loss_sum / updates if updates else 0.0,
            ))
            outcomes.append(out)
        return TrainOutcome(
            self.models(), episode_stats, [out.ledger for out in outcomes],
            Trace.join([out.trace_rows for out in outcomes]), q_updates,
            [e for e, out in enumerate(outcomes) if out.constant_verdict])

    def _q_lr(self, k):
        # Robbins-Monro style decay; the supervised agent's DQN uses the
        # faster-decaying exponent so eta_fast/eta_slow -> 0 against the
        # classifier's k^-0.55 schedule
        if self.cfg.agent == "autodrl":
            return self.cfg.hyper.lr * k ** -0.8
        return self.cfg.hyper.lr * k ** -0.6

    def run_episode(self, env, decide, learn=None, episode=0, rollout=False):
        """Run one episode of ``env``, the loop that training and rollout
        share, and return its EpisodeOutcome.

        Each step is scored, its LSTM window classified (autodrl) and its
        trace row written; from step 1 on it is then paid its reward, over
        the last sustain.reward_window trace rows, into that row.
        ``decide(prev)`` maps the previous EpisodeStep to ``(action,
        learning, buffer_fill)`` for ``env.step``, and ``learn(prev, step)``
        sees each step from step 1 on before the next decision.  A rollout
        records an active mitigation as an alert too."""
        cfg = self.cfg
        history = deque(maxlen=cfg.neural.lstm_window)
        out = EpisodeOutcome(env.ledger, Trace(env.config.episode_len))
        trace, reward_window = out.trace_rows, cfg.sustain.reward_window
        unmitigated = 0   # attack steps in a row, up to this one, unmitigated
        onset, responded = None, True
        for t in range(env.config.episode_len):
            action, learning, buffer_fill = decide(prev) if t else (None, False, 0.0)
            result = env.step(action, learning=learning, buffer_fill=buffer_fill)
            x_step, a_s = self.detector.step_profile(result.features)
            history.extend([x_step] * (history.maxlen if t == 0 else 1))
            window = classified = None
            if cfg.agent == "autodrl" and self.classifier is not None:
                window = np.stack(history)
                classified = self.classifier.classify(window) > 0.5
            unmitigated = (unmitigated + 1 if result.attack_active
                           and not result.mitigation.any_active() else 0)
            step = EpisodeStep(self, t, action, result, x_step, a_s, window,
                               classified)
            trace_row(trace, episode, result, a_s,
                      step.alarm or (rollout and result.mitigation.any_active()),
                      classified)
            if t == 0:  # no action reaches step 0: it is only the first prev
                prev = step
                continue
            entry = result.ledger_entry
            latency_s = (BASE_LATENCY_S + LATENCY_PER_CPU * result.resource.cpu_pct
                         + unmitigated * entry.dt_s)
            step.reward = compute_reward(cfg.sustain.weights, RewardComponents(
                *episode_rates(cfg.agent,
                               trace.ints[max(t + 1 - reward_window, 0):t + 1]),
                latency_s, entry.energy_j, entry.m_util, entry.carbon_g))
            trace.floats[t, REWARD] = step.reward.total
            if not result.attack_active:
                onset, responded = None, True
            elif onset is None:
                onset, responded = t, False
            if not responded and action is not None:
                out.response_times.append((t - onset) * env.config.dt)
                responded = True
            if learn is not None:
                learn(prev, step)
            prev = step
        return out

    def _make_env(self, seed, env_config=None):
        return EdgeGatewayEnv(env_config or self.cfg.env, seed=seed,
                              resources=self.cfg.resources,
                              limits=self.cfg.sustain.ledger_limits(),
                              kappa=KappaProvider(self.cfg.sustain.kappa_g_per_j(),
                                                  self._kappa_schedule),
                              flow_flagger=self.detector.flow_flag)


def rollout(pipeline, seed, env_config=None, policy=None):
    """Frozen-policy episode; returns its EpisodeOutcome.

    ``env_config``, an EnvConfig, replaces ``cfg.env`` for this episode.
    A ``policy(prev)`` maps the previous EpisodeStep to the action; without
    one the learned Q-network acts greedily above the alarm threshold."""
    greedy_rng = np.random.default_rng(0)  # epsilon 0 never draws from it

    def decide(prev):
        if policy is not None:
            action = policy(prev)
        elif prev.alarm:
            action = ag.select_action(pipeline.q_net, prev.state(), 0.0,
                                      greedy_rng)
        else:
            action = None
        return action, False, 0.0

    return pipeline.run_episode(pipeline._make_env(seed, env_config), decide,
                                rollout=True)


def noop_policy(prev):
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
        return ag.q_learning_run(
            self.mdp, self.cfg.tabular.n_updates,
            p=self.cfg.tabular.eta_exponent, seed=self.cfg.seed,
            probe_every=self.cfg.tabular.probe_every)

    def episode_rewards(self, epsilon_start, seed):
        """Per-episode return of epsilon-greedy Q-learning on the toy MDP,
        with epsilon decaying after each episode."""
        tab, eps = self.cfg.tabular, self.cfg.hyper.epsilon
        _, diag = ag.q_learning_run(
            self.mdp, tab.episodes * tab.steps_per_episode,
            p=tab.eta_exponent, seed=seed, probe_every=tab.steps_per_episode,
            epsilon=epsilon_start, decay=eps.decay, floor=eps.floor)
        return diag.returns
