"""The carbon-aware reward, the sustainability ledger, and the Pareto front."""

import numpy as np

from edgeids import sustain

weights = sustain.RewardWeights()
print("default weights:", weights)

components = sustain.RewardComponents(
    detection_rate=0.9, false_rate=0.1, latency_s=0.5,
    energy_j=2.0, memory_util=0.5, carbon_g=0.4)
breakdown = sustain.compute_reward(weights, components)
print("\nreward breakdown (detection, false-rate, latency, energy, memory, carbon):")
for name, term in zip(sustain.TERM_NAMES, breakdown.per_term):
    print(f"  {name:10s} {term:+.4f}")
print(f"  total      {breakdown.total:+.4f}")

print("\n== sustainability ledger ==")
kappa = sustain.g_per_kwh_to_g_per_joule(400.0)
ledger = sustain.SustainabilityLedger(sustain.LedgerLimits(p_max=5.0))
rng = np.random.default_rng(0)
for step in range(1000):
    ledger.record(step, power_w=rng.uniform(0.6, 3.0), dt_s=1.0,
                  kappa=kappa, m_active=rng.integers(10, 60), m_total=100)
print(f"cumulative energy: {ledger.cumulative_energy_j:.1f} J, "
      f"carbon: {ledger.cumulative_carbon_g * 1000:.3f} mg CO2")
print(f"bound violations: {ledger.check_bounds()} (empty means every step "
      "obeyed E <= P_max*dt and C <= kappa_max*E)")

print("\n== Pareto front over (energy, carbon) operating points ==")
points = [(float(e), float(c))
          for e, c in np.random.default_rng(7).uniform(0, 10, size=(40, 2)).round(2)]
front = sustain.pareto_front(points)
print(f"{len(front)} of {len(points)} points are non-dominated:")
print(sorted(front))
