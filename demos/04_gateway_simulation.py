"""One episode inside the gateway simulator, with scripted mitigations.

Shows the offered/passed/dropped bookkeeping, the resource proxies hitting
their calibrated operating points (~12% CPU idle, ~35% under attack), and
the blacklist absorbing a SYN flood after a few flagged windows.
"""

from dataclasses import replace

from edgeids.agent import ActionId
from edgeids.config import default_config
from edgeids.gateway_env import AttackScenario, EdgeGatewayEnv

cfg = default_config("deepedge")
gateway = replace(cfg.env, episode_len=400,
                  attacks=[AttackScenario("syn_flood", 5000.0, 100, 320)])

env = EdgeGatewayEnv(gateway, seed=3, resources=cfg.resources)

print(f"{'step':>4} {'offered':>8} {'passed':>7} {'attack?':>7} "
      f"{'cpu%':>6} {'power W':>8} {'blacklist':>9}  action")
for t in range(400):
    if 104 <= t < 110:
        action = ActionId.SOURCE_FILTER    # after a few flagged windows
    elif t == 102 or t == 103:
        action = ActionId.SYN_THROTTLE     # immediate knee-jerk response
    else:
        action = None
    r = env.step(action)
    if t % 40 == 0 or 100 <= t <= 112:
        offered = sum(r.offered_pkts.values())
        passed = sum(r.passed_pkts.values())
        print(f"{t:>4} {offered:>8} {passed:>7} {str(r.attack_active):>7} "
              f"{r.resource.cpu_pct:>6.1f} {r.resource.power_w:>8.2f} "
              f"{len(r.mitigation.blacklist):>9}  "
              f"{'' if action is None else action.name}")

print("\nledger bound check:", env.ledger.check_bounds() or "clean")
print(f"cumulative energy {env.ledger.cumulative_energy_j:.1f} J, "
      f"carbon {env.ledger.cumulative_carbon_g * 1000:.2f} mg CO2")
