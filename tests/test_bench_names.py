"""The benchmark traces the package from outside: bench/spans.py and
bench/harness.py wrap edgeids functions and methods by name, and
bench/harness.py drives it through DrlPipeline and pipeline.rollout.
These tests install both sets of wrappers on the live package and
restore them, and run the bench's closed loop at a short episode length,
so renaming a wrapped name or changing a call the bench makes fails
here, not only in a benchmark run.  Nothing under bench/ is changed."""

from pathlib import Path

import numpy as np
import pytest

from edgeids import neural

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import harness
    import spans
    return harness, spans


def test_bench_wraps_live_names_and_restores_them(bench):
    harness, spans = bench
    patcher, recorder = spans.Patcher(), spans.SpanRecorder()
    try:
        spans.install_layer_spans(patcher, recorder)
        harness.Monitor().install(patcher)
        wrapped = list(patcher._saved)
        # the LSTM's layer metrics count these three calls, one span each
        clf = neural.lstm_classifier_init(3, 2, 4, np.random.default_rng(0))
        window = np.zeros((4, 3))
        clf.classify(window)
        clf.hidden(window)
        neural.backward(clf, window, 1)
    finally:
        patcher.restore()
    assert wrapped
    # a name wrapped twice (EdgeGatewayEnv.step) gets its first original back
    originals = {}
    for owner, attr, original in wrapped:
        originals.setdefault((owner, attr), original)
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original, attr
    assert [recorder.names[i] for i in recorder.name] == [
        "neural.lstm_classify", "neural.lstm_hidden", "neural.backward"]


@pytest.mark.parametrize("workload", ["deepedge_syn", "autodrl_mixed"])
def test_bench_cycle_completes_checked_and_repeats(bench, workload):
    # set-up, training and rollout under the monitor, which checks packet
    # and byte conservation, finite scores and TD losses, and ledger bounds
    harness, spans = bench
    cfg = harness.make_config(workload, seed=0, episode_len=60)
    monitor, patcher = harness.Monitor(), spans.Patcher()
    monitor.install(patcher)
    try:
        cycles = [harness.Cycle(cfg, monitor) for _ in range(2)]
        for cycle in cycles:
            for phase in harness.PHASES:
                getattr(cycle, phase)()
    finally:
        patcher.restore()
    assert [p.error for p in monitor.phases] == [None] * 6
    assert all(cycle.complete() for cycle in cycles)
    assert monitor.failed == 0
    assert cycles[0].fingerprint() == cycles[1].fingerprint()
