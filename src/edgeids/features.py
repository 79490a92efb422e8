"""Flow features and their normalization.

Eight flow-level metrics are extracted per flow (counts, sizes, rates, and
an encoded flag set), one row per flow of a FlowBatch, and min-max scaled
with statistics fitted on the benign warm-up.
"""

from __future__ import annotations

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


def features_matrix(batch):
    """One fixed-order 8-feature row per flow of a FlowBatch, in order,
    built column by column; (0, 8) for none.  Total on any valid flow."""
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
    """features_matrix's row for one FlowRecord."""
    from .gateway_env import FlowBatch
    return features_matrix(FlowBatch.from_records([flow]))[0]


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
