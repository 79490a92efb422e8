"""The feature-selection pipeline on a widened simulator corpus.

The eight flow metrics are augmented with engineered junk: a constant
column (removed by the variance filter), a rescaled duplicate (removed by
the |r| > 0.85 Pearson filter), and pure noise (eliminated first by the
saliency-guided recursive elimination).  Mutual-information scores against
the ground-truth label are reported along the way.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from edgeids import features as ft
from edgeids import pipeline as pl
from edgeids.config import default_config
from edgeids.gateway_env import EdgeGatewayEnv, default_syn_flood

cfg = default_config("deepedge")
gateway = replace(cfg.env, episode_len=300,
                  attacks=[default_syn_flood(intensity=2000.0, start=50, end=200)])
env = EdgeGatewayEnv(gateway, seed=9)

flows = []
for _ in range(gateway.episode_len):
    flows.extend(env.step(None).offered)
data = ft.features_matrix(flows)
labels = np.array([1 if f.label == "attack" else 0 for f in flows])
print(f"collected {len(flows)} flows ({labels.mean():.1%} attack)")

n = len(flows)
rng = np.random.default_rng(0)
widened = np.column_stack([
    data,
    data[:, 4] / (data[:, 5] + 1.0),                # in/out balance
    data[:, 2] / data[:, 0],                        # mean inter-packet gap
    np.log1p(data[:, 1]),                           # log flow size
    (data[:, 7] % 2 >= 1).astype(float),            # SYN flag bit
    np.full(n, 42.0),                               # constant
    data[:, 0] * 3.0 + rng.normal(scale=1e-6, size=n),  # rescaled duplicate
    rng.normal(size=n),                             # pure noise
])
names = list(ft.FEATURE_NAMES) + ["in_out_balance", "pkt_gap", "log_bytes",
                                  "syn_flag", "constant", "pkts_rescaled",
                                  "noise"]

report = ft.run_selection(widened, names, labels, target_count=8)
print("\nvariance filter kept:", report.variance_kept)
print("pearson filter kept: ", report.pearson_kept)
print("\nmutual information with the label (nats):")
for name, score in sorted(report.mi_scores.items(), key=lambda kv: -kv[1]):
    print(f"  {name:<15} {score:.4f}")
print("\nRFE elimination order (first out -> kept):", report.rfe_ranking)
print("final feature set:", report.final)

out = Path("demo_output")
out.mkdir(exist_ok=True)
report.to_json(out / "selection_report.json")

csv_path = out / "flows.csv"
ft.export_flow_csv(csv_path, flows[:500])
again = ft.ingest_flow_csv(csv_path, ft.IDENTITY_MAPPING)
print(f"\nCSV round trip: exported 500 flows, re-ingested "
      f"{len(again.records)} ({again.rows_skipped} skipped), "
      f"identical: {again.records == flows[:500]}")
