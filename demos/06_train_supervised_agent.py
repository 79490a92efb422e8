"""Train the supervised (LSTM + DQN) agent.

A labeled pre-training phase fits the LSTM step classifier on simulator
traces; the DQN then fine-tunes on a faster-decaying step size while the
classifier keeps refining on its slower schedule.  The carbon-weighted
TD penalty is active for this agent.
"""

import time

from edgeids import pipeline as pl
from edgeids.config import default_config
from edgeids.gateway_env import AttackScenario

cfg = default_config("autodrl")
cfg.episodes = 2
cfg.pretrain_episodes = 1
cfg.env.episode_len = 500
cfg.env.attacks = [AttackScenario("syn_flood", 5000.0, 80, 420, 20)]
cfg.warmup.steps = 80

print(f"carbon-weighted TD penalty xi = {pl.carbon_weight(cfg.agent)}")
start = time.time()
pipe = pl.DrlPipeline(cfg)
pipe.warmup()
print(f"warm-up + supervised pre-training done ({time.time() - start:.0f}s, "
      f"{pipe._classifier_updates} classifier updates)")

outcome = pipe.train()
print(f"DRL fine-tuning done: {outcome.q_updates} Q updates "
      f"({time.time() - start:.0f}s)")

rollout = pl.rollout(pipe, seed=2024)
print(f"\nstep classifier accuracy on a fresh episode: "
      f"{rollout.classifier_accuracy:.3f}")
print(f"attack packets passed: {rollout.attack_passed} of "
      f"{rollout.attack_offered} offered")
print(f"carbon: {rollout.ledger.cumulative_carbon_g * 1000:.2f} mg CO2 over "
      f"{cfg.env.episode_len} steps")
