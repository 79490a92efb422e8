"""Outside-in tracing of the edgeids layers.

The benchmark wraps the public functions and methods of each edgeids
module from here, records one span per call, and restores the originals
afterwards; nothing under ``src/`` knows it is traced.  A span holds its
name, start, end, parent span and the simulator step it belongs to.
Spans stay in compact in-memory arrays and are written out once, when the
run ends.
"""

from __future__ import annotations

import functools
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Patcher:
    """Replaces attributes of modules or classes and restores them in
    reverse order."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr, make_wrapper):
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class SpanRecorder:
    """Spans of one single-threaded run.

    A new simulator step starts whenever a span marked as a step boundary
    opens; every span opened until the next boundary (the step's traffic,
    detection, reward, learning update and the next decision) carries that
    step's id.  Spans opened before the first boundary carry step -1.
    """

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.step = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = []
        self.step_id = -1

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open_span(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.step.append(self.step_id)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close_span(self, idx):
        self.end[idx] = perf_counter()
        self._open.pop()

    def traced(self, name, fn, step_boundary=False):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if step_boundary:
                self.step_id += 1
            idx = self._open_span(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close_span(idx)

        return wrapper

    @contextmanager
    def span(self, name):
        """A span around code in the benchmark itself."""
        idx = self._open_span(self.name_id(name))
        try:
            yield
        finally:
            self._close_span(idx)

    def __len__(self):
        return len(self.start)

    def arrays(self):
        """The spans as numpy arrays (name ids, parents, steps, start, end)."""
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.step, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def save(self, path):
        name, parent, step, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 step=step, start=start, end=end)


def install_layer_spans(patcher, recorder):
    """Wraps every layer boundary the per-layer metrics are read from."""
    from edgeids import agent, features, gateway_env, neural, pipeline, sustain

    targets = [
        (gateway_env.EdgeGatewayEnv, "step", "gateway_env.step", True),
        (gateway_env, "generate_step_traffic", "gateway_env.generate_step_traffic", False),
        (gateway_env, "apply_mitigation", "gateway_env.apply_mitigation", False),
        (features, "extract_features", "features.extract_features", False),
        (features.Normalizer, "transform", "features.normalize", False),
        (neural.AutoencoderModel, "anomaly_score", "neural.ae_score", False),
        (neural, "autoencoder_train_step", "neural.ae_train_step", False),
        (neural.LstmClassifier, "classify", "neural.lstm_classify", False),
        (neural.LstmClassifier, "hidden", "neural.lstm_hidden", False),
        (neural, "backward", "neural.backward", False),
        (pipeline.AnomalyDetector, "flow_flag", "pipeline.flow_flag", False),
        (pipeline.AnomalyDetector, "step_profile", "pipeline.step_profile", False),
        (pipeline, "trace_row", "pipeline.trace_row", False),
        # pipeline imported compute_reward by name, so that is the binding
        # its loops call
        (pipeline, "compute_reward", "sustain.compute_reward", False),
        (sustain.SustainabilityLedger, "record", "sustain.ledger_record", False),
        (agent, "select_action", "agent.select_action", False),
        (agent, "q_update_network", "agent.q_update_network", False),
        (agent.ReplayBuffer, "sample_minibatch", "agent.sample_minibatch", False),
        (agent.QNetwork, "q_values", "agent.q_values", False),
    ]
    for owner, attr, name, boundary in targets:
        patcher.wrap(owner, attr,
                     lambda fn, name=name, boundary=boundary:
                     recorder.traced(name, fn, step_boundary=boundary))


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = [
    ("gateway_env.generate_step_traffic.ms_per_step", "ms/step"),
    ("gateway_env.apply_mitigation.ms_per_step", "ms/step"),
    ("gateway_env.step.self_ms_per_step", "ms/step"),
    ("gateway_env.flows_offered_per_step", "flows/step"),
    ("gateway_env.flows_dropped_per_step", "flows/step"),
    ("features.extract_features.ms_per_step", "ms/step"),
    ("features.extract_features.calls_per_offered_flow", "calls/flow"),
    ("features.normalize.ms_per_step", "ms/step"),
    ("neural.ae_score.calls_per_step", "calls/step"),
    ("neural.ae_score.ms_per_step", "ms/step"),
    ("neural.ae_train_step.ms_per_epoch", "ms/epoch"),
    ("neural.lstm.forwards_per_step", "calls/step"),
    ("neural.lstm.ms_per_step", "ms/step"),
    ("neural.backward.ms_per_call", "ms/call"),
    ("pipeline.flow_flag.ms_per_step", "ms/step"),
    ("pipeline.step_profile.ms_per_step", "ms/step"),
    ("pipeline.trace_row.ms_per_step", "ms/step"),
    ("pipeline.rollout.attack_blocked_frac", "fraction"),
    ("pipeline.rollout.benign_passed_frac", "fraction"),
    ("agent.q_update_network.updates", "count"),
    ("agent.q_update_network.ms_per_update", "ms/update"),
    ("agent.target_forwards_per_update", "calls/update"),
    ("agent.sample_minibatch.ms_per_update", "ms/update"),
    ("agent.select_action.ms_per_call", "ms/call"),
    ("sustain.compute_reward.ms_per_step", "ms/step"),
    ("sustain.ledger_record.ms_per_step", "ms/step"),
    ("cli.write_artifacts_ms", "ms"),
    ("trace.setup.overhead_s", "s"),
    ("trace.train.overhead_s", "s"),
    ("trace.rollout.overhead_s", "s"),
]

# counts that repeat exactly between traced runs of one seed
EXACT_COUNTS = (
    "features.extract_features.calls_per_offered_flow",
    "agent.target_forwards_per_update",
    "neural.lstm.forwards_per_step",
    "gateway_env.flows_offered_per_step",
    "agent.q_update_network.updates",
)


class SpanTable:
    """Per-name totals over selected spans of a recording."""

    def __init__(self, recorder, mask):
        name, parent, _, start, end = recorder.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self.recorder = recorder
        self.mask = mask
        self.name = name
        self.parent = parent
        self.dur = dur
        self.self_time = dur - child

    def _select(self, span_name):
        if span_name not in self.recorder._ids:
            return np.zeros(len(self.dur), dtype=bool)
        return self.mask & (self.name == self.recorder._ids[span_name])

    def calls(self, span_name):
        return int(self._select(span_name).sum())

    def total_s(self, span_name):
        return float(self.dur[self._select(span_name)].sum())

    def self_s(self, span_name):
        return float(self.self_time[self._select(span_name)].sum())

    def calls_under(self, span_name, ancestor_name):
        """Calls of span_name with ancestor_name somewhere above them."""
        ids = self.recorder._ids
        if span_name not in ids or ancestor_name not in ids:
            return 0
        target = ids[ancestor_name]
        count = 0
        for idx in np.flatnonzero(self._select(span_name)):
            p = self.parent[idx]
            while p >= 0 and self.name[p] != target:
                p = self.parent[p]
            count += p >= 0
        return count


def layer_metrics(recorder, loop_mask, all_mask, loop_steps, offered_flows,
                  dropped_flows, artifacts_s, overhead_s):
    """Per-layer figures from the spans.

    ``loop_mask`` selects the spans of the closed-loop phases (training
    and rollout), whose ``loop_steps`` simulator steps are the per-step
    denominator; ``all_mask`` adds the set-up phase, where the autoencoder
    and the LSTM are pre-trained.  Durations are inclusive of child spans
    unless the name says ``self``.
    """
    loop = SpanTable(recorder, loop_mask)
    every = SpanTable(recorder, all_mask)
    steps = max(loop_steps, 1)

    def per_step_ms(name):
        return 1e3 * loop.total_s(name) / steps

    def per_call_ms(table, name):
        calls = table.calls(name)
        return 1e3 * table.total_s(name) / calls if calls else 0.0

    lstm = ("neural.lstm_classify", "neural.lstm_hidden", "neural.backward")
    updates = loop.calls("agent.q_update_network")
    values = {
        "gateway_env.generate_step_traffic.ms_per_step":
            per_step_ms("gateway_env.generate_step_traffic"),
        "gateway_env.apply_mitigation.ms_per_step":
            per_step_ms("gateway_env.apply_mitigation"),
        # the ledger is the step's own work, though it has a span of its own
        "gateway_env.step.self_ms_per_step":
            1e3 * (loop.self_s("gateway_env.step")
                   + loop.total_s("sustain.ledger_record")) / steps,
        "gateway_env.flows_offered_per_step": offered_flows / steps,
        "gateway_env.flows_dropped_per_step": dropped_flows / steps,
        "features.extract_features.ms_per_step":
            per_step_ms("features.extract_features"),
        "features.extract_features.calls_per_offered_flow":
            loop.calls("features.extract_features") / max(offered_flows, 1),
        "features.normalize.ms_per_step": per_step_ms("features.normalize"),
        "neural.ae_score.calls_per_step": loop.calls("neural.ae_score") / steps,
        "neural.ae_score.ms_per_step": per_step_ms("neural.ae_score"),
        "neural.ae_train_step.ms_per_epoch":
            per_call_ms(every, "neural.ae_train_step"),
        "neural.lstm.forwards_per_step":
            sum(loop.calls(n) for n in lstm) / steps,
        "neural.lstm.ms_per_step": sum(per_step_ms(n) for n in lstm),
        "neural.backward.ms_per_call": per_call_ms(every, "neural.backward"),
        "pipeline.flow_flag.ms_per_step": per_step_ms("pipeline.flow_flag"),
        "pipeline.step_profile.ms_per_step": per_step_ms("pipeline.step_profile"),
        "pipeline.trace_row.ms_per_step": per_step_ms("pipeline.trace_row"),
        "agent.q_update_network.updates": updates,
        "agent.q_update_network.ms_per_update":
            per_call_ms(loop, "agent.q_update_network"),
        "agent.target_forwards_per_update":
            loop.calls_under("agent.q_values", "agent.q_update_network")
            / updates if updates else 0.0,
        "agent.sample_minibatch.ms_per_update":
            1e3 * loop.total_s("agent.sample_minibatch") / updates
            if updates else 0.0,
        "agent.select_action.ms_per_call": per_call_ms(loop, "agent.select_action"),
        "sustain.compute_reward.ms_per_step": per_step_ms("sustain.compute_reward"),
        "sustain.ledger_record.ms_per_step": per_step_ms("sustain.ledger_record"),
        "cli.write_artifacts_ms": 1e3 * artifacts_s,
    }
    for phase, seconds in overhead_s.items():
        values[f"trace.{phase}.overhead_s"] = seconds
    return values
