"""Flow features, their normalization, and the selection pipeline.

Eight flow-level metrics are extracted per flow (counts, sizes, rates, and
an encoded flag set).  A selection pipeline mirrors the usual reduction
chain on wide inputs: near-zero-variance columns go first, then pairwise
Pearson filtering at |r| > 0.85, then mutual-information scoring and a
saliency-guided recursive elimination down to the final eight columns.
A CSV adapter ingests external flow datasets through a user-supplied
column mapping.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

FEATURE_NAMES = (
    "pkts_total",
    "bytes_total",
    "duration",
    "pkt_rate",
    "pkts_in",
    "pkts_out",
    "bytes_per_pkt",
    "flags_encoded",
)

EPS_DURATION = 1e-3  # guard for instantaneous flows

# flags_encoded = SYN*1 + ACK*2 + FIN*4 + RST*8, the flag word's low bits
_FLAG_BITS = 0b1111


def features_matrix(flows):
    """One fixed-order 8-feature row per flow, in order, built column by
    column; (0, 8) for none.  Takes a FlowBatch or a list of FlowRecords;
    total on any valid flow."""
    from .gateway_env import FlowBatch
    batch = FlowBatch.of(flows)
    pkts, nbytes, duration = batch.pkts_total, batch.bytes_total, batch.duration
    out = np.empty((len(batch), len(FEATURE_NAMES)))
    out[:, 0] = pkts
    out[:, 1] = nbytes
    out[:, 2] = duration
    out[:, 3] = pkts / np.where(duration >= EPS_DURATION, duration, EPS_DURATION)
    out[:, 4] = batch.pkts_in
    out[:, 5] = batch.pkts_out
    out[:, 6] = np.divide(nbytes, pkts, out=np.zeros(len(batch)), where=pkts > 0)
    out[:, 7] = batch.flags & _FLAG_BITS
    return out


def extract_features(flow):
    """features_matrix's row for one flow."""
    return features_matrix([flow])[0]


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

class Normalizer:
    """Min-max scaling, clipped to [0, 1], with statistics fitted on the
    benign warm-up."""

    def __init__(self):
        self.fitted = False

    def fit(self, data):
        data = np.atleast_2d(np.asarray(data, dtype=float))
        if data.shape[0] < 2:
            raise ValueError("need at least two rows to fit")
        self.low = data.min(axis=0)
        span = data.max(axis=0) - self.low
        self.scale = np.where(span > 0, span, 1.0)
        self.fitted = True
        return self

    def transform(self, v):
        if not self.fitted:
            raise ValueError("normalizer not fitted")
        v = np.asarray(v, dtype=float)
        return np.clip((v - self.low) / self.scale, 0.0, 1.0)


# ---------------------------------------------------------------------------
# selection pipeline
# ---------------------------------------------------------------------------

def variance_filter(data, names, threshold=1e-6):
    """Keep columns whose sample variance exceeds the threshold."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.shape[0] < 2:
        raise ValueError("need at least two rows")
    variances = data.var(axis=0, ddof=1)
    return [n for n, v in zip(names, variances) if v > threshold]


def pearson_filter(data, names, rho_max=0.85):
    """Greedy scan in column order: drop a column when its |r| with any
    already-kept column exceeds rho_max."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    kept = []
    kept_cols = []
    for j, name in enumerate(names):
        col = data[:, j]
        if col.std() == 0:
            raise ValueError(f"zero-variance column {name!r}; variance-filter first")
        redundant = False
        for other in kept_cols:
            r = np.corrcoef(col, other)[0, 1]
            if abs(r) > rho_max:
                redundant = True
                break
        if not redundant:
            kept.append(name)
            kept_cols.append(col)
    return kept


def mutual_information_scores(data, names, labels, bins=16):
    """Histogram-estimated MI (nats) between each column and a binary label."""
    labels = np.asarray(labels)
    classes = np.unique(labels)
    if classes.size < 2:
        raise ValueError("labels contain a single class")
    data = np.atleast_2d(np.asarray(data, dtype=float))
    n = data.shape[0]
    scores = {}
    for j, name in enumerate(names):
        col = data[:, j]
        edges = np.histogram_bin_edges(col, bins=bins)
        binned = np.clip(np.digitize(col, edges[1:-1]), 0, bins - 1)
        mi = 0.0
        for b in range(bins):
            in_bin = binned == b
            p_b = in_bin.mean()
            if p_b == 0:
                continue
            for cls in classes:
                p_joint = np.mean(in_bin & (labels == cls))
                if p_joint == 0:
                    continue
                p_cls = np.mean(labels == cls)
                mi += p_joint * np.log(p_joint / (p_b * p_cls))
        scores[name] = max(float(mi), 0.0)
    return scores


def _default_saliency_hook(data, labels, rng):
    """Train a small sigmoid probe and return per-column input saliency.

    Weight decay keeps columns that carry no gradient support (pure noise)
    shrinking toward zero even when the probe separates the classes
    perfectly and the error residuals vanish."""
    data = np.asarray(data, dtype=float)
    labels = np.asarray(labels, dtype=float)
    mu = data.mean(axis=0)
    sd = data.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    x = (data - mu) / sd
    n, d = x.shape
    w = rng.normal(scale=0.1, size=d)
    b = 0.0
    lr = 0.5
    decay = 1e-2
    for _ in range(300):
        p = 1.0 / (1.0 + np.exp(-(x @ w + b)))
        err = p - labels
        w -= lr * ((x.T @ err) / n + decay * w)
        b -= lr * float(err.mean())
    p = 1.0 / (1.0 + np.exp(-(x @ w + b)))
    # decision sensitivity per standardized unit; raw-unit scaling would
    # bury large-magnitude columns regardless of their usefulness
    gate = np.maximum(p * (1.0 - p), 1e-3)
    return gate.mean() * np.abs(w)


def saliency_rfe(data, names, labels, target_count=8, hook=None, seed=0):
    """Recursive elimination: drop the lowest-saliency column until
    target_count remain.  Returns (ranking, final_names); the ranking lists
    every input column, eliminated first to kept last."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if target_count > len(names):
        raise ValueError("target_count exceeds available columns")
    hook = hook or _default_saliency_hook
    rng = np.random.default_rng(seed)
    active = list(range(len(names)))
    eliminated = []
    while len(active) > target_count:
        sal = np.asarray(hook(data[:, active], labels, rng), dtype=float)
        drop = active[int(np.argmin(sal))]
        eliminated.append(drop)
        active.remove(drop)
    ranking = [names[i] for i in eliminated] + [names[i] for i in active]
    return ranking, [names[i] for i in active]


@dataclass
class SelectionReport:
    variance_kept: list
    pearson_kept: list
    mi_scores: dict
    rfe_ranking: list
    final: list

    def to_json(self, path):
        with open(path, "w") as f:
            json.dump({
                "variance_kept": self.variance_kept,
                "pearson_kept": self.pearson_kept,
                "mi_scores": self.mi_scores,
                "rfe_ranking": self.rfe_ranking,
                "final": self.final,
            }, f, indent=2, sort_keys=True)


def run_selection(data, names, labels, target_count=8, variance_threshold=1e-6,
                  rho_max=0.85, seed=0):
    """Full pipeline; guarantees final <= pearson-kept <= variance-kept."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    v_kept = variance_filter(data, names, variance_threshold)
    idx = [names.index(n) for n in v_kept]
    p_kept = pearson_filter(data[:, idx], v_kept, rho_max)
    idx = [names.index(n) for n in p_kept]
    mi = mutual_information_scores(data[:, idx], p_kept, labels)
    ranking, final = saliency_rfe(data[:, idx], p_kept, labels, target_count,
                                  seed=seed)
    return SelectionReport(v_kept, p_kept, mi, ranking, final)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

REQUIRED_COLUMNS = ("src_id", "pkts_total", "bytes_total", "duration",
                    "pkts_in", "pkts_out", "flags")
OPTIONAL_COLUMNS = ("label", "protocol")


@dataclass
class IngestResult:
    records: list
    rows_in: int
    rows_skipped: int


def ingest_flow_csv(path, mapping):
    """Parse flows from a CSV; malformed rows are counted and skipped."""
    from .gateway_env import FlowRecord
    missing = [c for c in REQUIRED_COLUMNS if c not in mapping]
    if missing:
        raise ValueError(f"column mapping lacks required entries: {missing}")
    records = []
    rows_in = 0
    skipped = 0
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        headers = reader.fieldnames or []
        for canonical, header in mapping.items():
            if header not in headers:
                raise ValueError(f"mapped column {header!r} absent from CSV")
        for row in reader:
            rows_in += 1
            try:
                kwargs = dict(
                    src_id=str(row[mapping["src_id"]]),
                    pkts_total=int(row[mapping["pkts_total"]]),
                    bytes_total=int(row[mapping["bytes_total"]]),
                    duration=float(row[mapping["duration"]]),
                    pkts_in=int(row[mapping["pkts_in"]]),
                    pkts_out=int(row[mapping["pkts_out"]]),
                    flags=int(row[mapping["flags"]]),
                )
                if "label" in mapping:
                    kwargs["label"] = str(row[mapping["label"]])
                if "protocol" in mapping:
                    kwargs["protocol"] = str(row[mapping["protocol"]])
                records.append(FlowRecord(**kwargs))
            except (KeyError, TypeError, ValueError):
                skipped += 1
    return IngestResult(records, rows_in, skipped)


def export_flow_csv(path, flows):
    """Write flows back out in canonical column order (round-trip aid)."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(list(REQUIRED_COLUMNS) + list(OPTIONAL_COLUMNS))
        for flow in flows:
            writer.writerow([
                flow.src_id, flow.pkts_total, flow.bytes_total,
                repr(float(flow.duration)), flow.pkts_in, flow.pkts_out, flow.flags,
                flow.label, flow.protocol,
            ])


IDENTITY_MAPPING = {c: c for c in REQUIRED_COLUMNS + OPTIONAL_COLUMNS}
