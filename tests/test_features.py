import json
from types import SimpleNamespace

import numpy as np
import pytest

from edgeids import features as ft
from edgeids import neural
from edgeids import pipeline as pl
from edgeids.config import default_config
from edgeids.features import (
    FEATURE_NAMES,
    IDENTITY_MAPPING,
    Normalizer,
    export_flow_csv,
    extract_features,
    ingest_flow_csv,
    mutual_information_scores,
    pearson_filter,
    run_selection,
    saliency_rfe,
    variance_filter,
)
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


# ---------------------------------------------------------------------------
# selection pipeline
# ---------------------------------------------------------------------------

def test_variance_filter():
    data = np.array([[1.0, 5.0, 0.0], [1.0, 6.0, 2.0], [1.0, 7.0, -2.0]])
    kept = variance_filter(data, ["const", "drift", "wide"], threshold=1e-6)
    assert kept == ["drift", "wide"]


def test_pearson_filter_drops_duplicates():
    rng = np.random.default_rng(3)
    x = rng.normal(size=500)
    y = rng.normal(size=500)
    data = np.column_stack([x, x.copy(), y, -y])
    kept = pearson_filter(data, ["x", "x_dup", "y", "neg_y"])
    assert kept == ["x", "y"]


def test_pearson_filter_keeps_independent():
    rng = np.random.default_rng(4)
    data = rng.normal(size=(1000, 2))
    assert pearson_filter(data, ["a", "b"]) == ["a", "b"]


def test_pearson_filter_rejects_constant():
    data = np.column_stack([np.ones(10), np.arange(10.0)])
    with pytest.raises(ValueError):
        pearson_filter(data, ["const", "ramp"])


def test_mutual_information_identity_and_independence():
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 2, size=10_000)
    noise = rng.normal(size=10_000)
    scores = mutual_information_scores(
        np.column_stack([labels.astype(float), noise]), ["copy", "noise"], labels)
    p1 = labels.mean()
    h_label = -(p1 * np.log(p1) + (1 - p1) * np.log(1 - p1))
    assert scores["copy"] == pytest.approx(h_label, rel=0.01)
    assert scores["noise"] < 0.01


def test_mutual_information_closed_form_2x2():
    # joint distribution over (x in {0,1}, y in {0,1}):
    # p(0,0)=0.4, p(0,1)=0.1, p(1,0)=0.1, p(1,1)=0.4
    n = 40_000
    x = np.array([0] * 16_000 + [0] * 4_000 + [1] * 4_000 + [1] * 16_000, dtype=float)
    y = np.array([0] * 16_000 + [1] * 4_000 + [0] * 4_000 + [1] * 16_000)
    expected = sum(p * np.log(p / (px * py))
                   for p, px, py in [(0.4, 0.5, 0.5), (0.1, 0.5, 0.5),
                                     (0.1, 0.5, 0.5), (0.4, 0.5, 0.5)])
    scores = mutual_information_scores(x[:, None], ["x"], y)
    assert scores["x"] == pytest.approx(expected, rel=1e-6)


def test_mutual_information_single_class_rejected():
    with pytest.raises(ValueError):
        mutual_information_scores(np.zeros((10, 1)), ["a"], np.zeros(10, dtype=int))


def test_saliency_rfe_no_op_at_target():
    rng = np.random.default_rng(6)
    data = rng.normal(size=(200, 8))
    labels = rng.integers(0, 2, size=200)
    names = [f"f{i}" for i in range(8)]
    ranking, final = saliency_rfe(data, names, labels, target_count=8)
    assert final == names
    assert len(ranking) == 8


def test_saliency_rfe_eliminates_noise_column():
    # 8 informative columns + 1 pure-noise column; the noise column should
    # be eliminated first in at least 80% of seeds
    hits = 0
    seeds = 10
    for seed in range(seeds):
        rng = np.random.default_rng(100 + seed)
        n = 600
        labels = rng.integers(0, 2, size=n)
        informative = np.stack([
            labels + rng.normal(scale=0.8, size=n) * (1.0 + 0.1 * j)
            for j in range(8)
        ], axis=1)
        noise = rng.normal(size=(n, 1))
        data = np.hstack([informative, noise])
        names = [f"f{i}" for i in range(8)] + ["noise"]
        ranking, final = saliency_rfe(data, names, labels, target_count=8,
                                      seed=seed)
        assert len(ranking) == 9
        if ranking[0] == "noise":
            hits += 1
    assert hits >= 0.8 * seeds


def test_run_selection_nesting():
    rng = np.random.default_rng(7)
    n = 800
    labels = rng.integers(0, 2, size=n)
    base = np.stack([labels + rng.normal(scale=1.0 + 0.2 * j, size=n)
                     for j in range(9)], axis=1)
    extra = np.column_stack([
        np.full(n, 3.14),              # constant: variance filter
        base[:, 0] * 2.0 + 1e-6 * rng.normal(size=n),  # duplicate: pearson
        rng.normal(size=n),            # noise: RFE
    ])
    data = np.hstack([base, extra])
    names = [f"f{i}" for i in range(9)] + ["const", "dup0", "noise"]
    report = run_selection(data, names, labels, target_count=8)
    assert len(report.final) == 8
    assert set(report.final) <= set(report.pearson_kept) <= set(report.variance_kept)
    assert "const" not in report.variance_kept
    assert "dup0" not in report.pearson_kept


def test_selection_report_json(tmp_path):
    report = ft.SelectionReport(["a", "b"], ["a"], {"a": 0.5}, ["b", "a"], ["a"])
    path = tmp_path / "report.json"
    report.to_json(path)
    loaded = json.loads(path.read_text())
    assert loaded["final"] == ["a"]


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

CSV_TEXT = """src_id,pkts_total,bytes_total,duration,pkts_in,pkts_out,flags,label,protocol
b000,10,1000,2.0,6,4,3,benign,tcp
a001,50,2500,1.0,50,0,1,attack,tcp
b002,4,900,0.5,2,2,0,benign,udp
"""


def test_ingest_well_formed_fixture(tmp_path):
    path = tmp_path / "flows.csv"
    path.write_text(CSV_TEXT)
    result = ingest_flow_csv(path, IDENTITY_MAPPING)
    assert result.rows_in == 3
    assert result.rows_skipped == 0
    assert len(result.records) == 3
    assert result.records[1].src_id == "a001"
    assert result.records[1].label == "attack"
    assert result.records[2].protocol == "udp"


def test_ingest_skips_malformed_rows(tmp_path):
    path = tmp_path / "flows.csv"
    path.write_text(CSV_TEXT + "b003,not_a_number,1000,1.0,5,5,0,benign,tcp\n")
    result = ingest_flow_csv(path, IDENTITY_MAPPING)
    assert result.rows_in == 4
    assert result.rows_skipped == 1
    assert len(result.records) == 3
    assert result.rows_in == len(result.records) + result.rows_skipped


def test_ingest_rejects_unmapped_column(tmp_path):
    path = tmp_path / "flows.csv"
    path.write_text(CSV_TEXT)
    mapping = dict(IDENTITY_MAPPING)
    mapping["pkts_total"] = "absent_header"
    with pytest.raises(ValueError):
        ingest_flow_csv(path, mapping)
    with pytest.raises(ValueError):
        ingest_flow_csv(path, {"src_id": "src_id"})


def test_ingest_export_round_trip(tmp_path):
    path = tmp_path / "flows.csv"
    path.write_text(CSV_TEXT)
    first = ingest_flow_csv(path, IDENTITY_MAPPING)
    out = tmp_path / "re-export.csv"
    export_flow_csv(out, first.records)
    second = ingest_flow_csv(out, IDENTITY_MAPPING)
    assert second.records == first.records
    assert second.rows_skipped == 0
