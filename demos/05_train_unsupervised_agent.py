"""Train the unsupervised (autoencoder + DQN) agent on a short scenario.

The warm-up fits the normalizer and the autoencoder on benign traffic and
sets the alarm thresholds; the DQN then learns which mitigation to apply
whenever the step anomaly score crosses the alarm.  A frozen-policy
rollout is compared against a no-op baseline at the end.
"""

import time

from edgeids import pipeline as pl
from edgeids.config import default_config
from edgeids.gateway_env import AttackScenario

cfg = default_config("deepedge")
cfg.episodes = 3
cfg.env.episode_len = 500
cfg.env.attacks = [AttackScenario("syn_flood", 5000.0, 80, 420, 20)]
cfg.warmup.steps = 80

start = time.time()
pipe = pl.DrlPipeline(cfg)
pipe.warmup()
print(f"warm-up done ({time.time() - start:.0f}s): "
      f"flow alarm {pipe.detector.tau_flow:.4f}, "
      f"step alarm {pipe.detector.tau_step:.5f}")

outcome = pipe.train()
print(f"trained {cfg.episodes} episodes, {outcome.q_updates} Q updates "
      f"({time.time() - start:.0f}s)")
for s in outcome.episode_stats:
    print(f"  episode {s.episode}: reward {s.reward_total:8.1f}  "
          f"attack suppressed {s.detection_rate:.3f}  epsilon {s.epsilon_end:.2f}  "
          f"updates {s.updates}")

trained = pl.rollout(pipe, seed=777)
baseline = pl.rollout(pipe, seed=777, policy=pl.noop_policy)
attack_ratio = trained.attack_passed / max(baseline.attack_passed, 1)
benign_keep = (trained.benign_passed / max(trained.benign_offered, 1)) \
    / (baseline.benign_passed / max(baseline.benign_offered, 1))
print(f"\nfrozen policy vs no-op: attack packets passed ratio {attack_ratio:.3f}, "
      f"benign throughput kept {benign_keep:.3f}")
print(f"detection probability {trained.detection_prob:.3f}, "
      f"response times {trained.response_times} s")
print(f"energy {trained.ledger.cumulative_energy_j:.1f} J vs "
      f"no-op {baseline.ledger.cumulative_energy_j:.1f} J")
