from types import SimpleNamespace

import numpy as np
import pytest

from edgeids import features as ft
from edgeids import neural
from edgeids import pipeline as pl
from edgeids.config import default_config
from edgeids.features import FEATURE_NAMES, Normalizer, extract_features
from edgeids.gateway_env import FLAG_ACK, FLAG_SYN, FlowRecord
from flow_reference import ack_packets, syn_packets


def flow(**overrides):
    base = dict(src_id="b000", pkts_total=10, bytes_total=1000, duration=2.0,
                pkts_in=6, pkts_out=4, flags=FLAG_SYN | FLAG_ACK,
                label="benign", protocol="tcp")
    base.update(overrides)
    return FlowRecord(**base)


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def test_extract_features_ratios():
    v = extract_features(flow())
    named = dict(zip(FEATURE_NAMES, v))
    assert named["pkt_rate"] == pytest.approx(5.0)
    assert named["bytes_per_pkt"] == pytest.approx(100.0)
    assert named["flags_encoded"] == 3.0  # SYN + ACK


def test_extract_features_zero_duration_guard():
    v = extract_features(flow(duration=0.0))
    named = dict(zip(FEATURE_NAMES, v))
    assert named["pkt_rate"] == pytest.approx(10 / 1e-3)
    assert np.all(np.isfinite(v))


def test_extract_features_matches_field_recomputation():
    rng = np.random.default_rng(0)
    for _ in range(50):
        pkts = int(rng.integers(1, 500))
        pin = int(rng.integers(0, pkts + 1))
        f = flow(pkts_total=pkts, pkts_in=pin, pkts_out=pkts - pin,
                 bytes_total=int(rng.integers(pkts, pkts * 1500)),
                 duration=float(rng.uniform(0, 5)),
                 flags=int(rng.integers(0, 16)))
        v = extract_features(f)
        dur = max(f.duration, 1e-3)
        expect = [f.pkts_total, f.bytes_total, f.duration, f.pkts_total / dur,
                  f.pkts_in, f.pkts_out,
                  f.bytes_total / f.pkts_total if f.pkts_total else 0.0,
                  (f.flags & 1) * 1 + ((f.flags >> 1) & 1) * 2
                  + ((f.flags >> 2) & 1) * 4 + ((f.flags >> 3) & 1) * 8]
        assert np.allclose(v, expect)
        assert np.all(np.isfinite(v))


def test_extract_features_total_on_degenerate_flows():
    degenerate = flow(pkts_total=0, pkts_in=0, pkts_out=0, bytes_total=0,
                      duration=0.0, flags=0)
    v = extract_features(degenerate)
    assert v.shape == (8,)
    assert np.all(np.isfinite(v))


# ---------------------------------------------------------------------------
# state assembly (DrlPipeline.state_vector)
# ---------------------------------------------------------------------------

def state_pipeline(agent):
    cfg = default_config(agent)
    cfg.env.dt = 2.0
    pipe = pl.DrlPipeline(cfg)
    rng = np.random.default_rng(0)
    ae = neural.autoencoder_init(rng, latent_dim=cfg.neural.latent_dim)
    pipe.detector = pl.AnomalyDetector(ft.Normalizer(), ae, 1.0, 0.5)
    if agent == "autodrl":
        pipe.classifier = neural.lstm_classifier_init(
            len(FEATURE_NAMES), cfg.neural.lstm_hidden,
            cfg.neural.lstm_window, rng)
    return pipe


def hand_step():
    flows = [flow(pkts_total=4, pkts_in=2, pkts_out=2),
             FlowRecord("a000", 6, 600, 1.0, 6, 0, FLAG_SYN, "attack", "tcp"),
             FlowRecord("b001", 5, 500, 1.0, 3, 2, FLAG_ACK, "benign", "tcp")]
    # SYN: handshake=1, syn-only=6, ack-only=0 -> 7; ACK: 3 + 0 + 5 -> 8
    return SimpleNamespace(offered=flows, offered_pkts={"benign": 9, "attack": 6},
                           offered_syn=7, offered_ack=8)


def test_build_state_hand_counts():
    pipe = state_pipeline("deepedge")
    x = np.full(len(FEATURE_NAMES), 0.5)
    step = hand_step()
    assert sum(syn_packets(f) for f in step.offered) == step.offered_syn
    assert sum(ack_packets(f) for f in step.offered) == step.offered_ack
    v = pipe.state_vector(step, x, a_s=2.0, window=None)
    assert np.array_equal(v[:3], np.array([15 / 2, 7, 8]) / pl.RATE_SCALE)
    assert v[3] == min(2.0 / 0.5, pl.SCORE_SCALE) / pl.SCORE_SCALE
    assert v.shape == (pipe.state_dim(),)


def test_build_state_with_latent():
    x = np.full(len(FEATURE_NAMES), 0.5)
    deepedge = state_pipeline("deepedge")
    v = deepedge.state_vector(hand_step(), x, a_s=2.0, window=None)
    assert np.array_equal(v[4:], deepedge.detector.autoencoder.encode(x))
    autodrl = state_pipeline("autodrl")
    # the classifier only runs windows of its own lstm_window steps
    window = np.tile(x, (autodrl.cfg.neural.lstm_window, 1))
    v = autodrl.state_vector(hand_step(), x, a_s=2.0, window=window)
    assert np.array_equal(v[4:], autodrl.classifier.hidden(window))
    assert v.shape == (autodrl.state_dim(),)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_minmax_endpoints_and_clamp():
    data = np.array([[0.0, 10.0], [2.0, 30.0], [1.0, 20.0]])
    nrm = Normalizer().fit(data)
    assert np.allclose(nrm.transform([0.0, 10.0]), [0.0, 0.0])
    assert np.allclose(nrm.transform([2.0, 30.0]), [1.0, 1.0])
    assert np.allclose(nrm.transform([-5.0, 99.0]), [0.0, 1.0])  # clamped


def test_minmax_idempotent_on_fitted_range():
    rng = np.random.default_rng(2)
    data = rng.uniform(0, 9, size=(100, 3))
    first = Normalizer().fit(data)
    once = np.stack([first.transform(row) for row in data])
    second = Normalizer().fit(once)
    twice = np.stack([second.transform(row) for row in once])
    assert np.max(np.abs(twice - once)) < 1e-12


def test_unfitted_normalizer_raises():
    with pytest.raises(ValueError):
        Normalizer().transform([1.0])
