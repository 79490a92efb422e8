"""The benchmark traces the package from outside: bench/spans.py and
bench/harness.py wrap edgeids functions and methods by name.  These
tests install both sets of wrappers on the live package and restore
them, so renaming or deleting a wrapped name fails here, not only in a
traced benchmark run.  Nothing under bench/ is changed."""

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

