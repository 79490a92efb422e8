"""The sliding-window reward account the episode loop kept before it read
its rewards off the episode's trace rows: one dict per step in a deque,
which pipeline.episode_rates over the same steps' rows must match
exactly."""

from collections import deque


class RewardTracker:
    """Windowed attack suppression (attack packets dropped over attack
    packets offered) and false rate: benign collateral (deepedge) or the
    step classifier's miss rate (autodrl).  pending_delay counts the
    attack steps in a row that ran unmitigated."""

    def __init__(self, window, agent):
        self.window = deque(maxlen=window)
        self.agent = agent
        self.pending_delay = 0.0

    def push(self, result, classified_attack=None):
        self.window.append(dict(
            attack_offered=result.offered_pkts["attack"],
            attack_dropped=result.dropped_pkts["attack"],
            benign_offered=result.offered_pkts["benign"],
            benign_dropped=result.dropped_pkts["benign"],
            attack_step=result.attack_active,
            classified_attack=classified_attack,
        ))
        if result.attack_active and not result.mitigation.any_active():
            self.pending_delay += 1.0
        else:
            self.pending_delay = 0.0

    def detection_rate(self):
        offered = sum(w["attack_offered"] for w in self.window)
        if offered == 0:
            return 0.0
        return sum(w["attack_dropped"] for w in self.window) / offered

    def false_rate(self):
        if self.agent == "autodrl":
            attacks = [w for w in self.window
                       if w["attack_step"] and w["classified_attack"] is not None]
            if not attacks:
                return 0.0
            return sum(1 for w in attacks if not w["classified_attack"]) / len(attacks)
        offered = sum(w["benign_offered"] for w in self.window)
        if offered == 0:
            return 0.0
        return sum(w["benign_dropped"] for w in self.window) / offered
