"""Discrete-time simulation of an IoT edge gateway under DDoS attack.

Benign flows arrive as a Poisson process with log-normal sizes; attack
scenarios (SYN flood, UDP flood, and a mutating zero-day mix) inject
high-rate flows from a rotating set of sources.  Four mitigation controls
act on the offered traffic: a total packet-rate cap, a SYN-rate cap, a
drop filter for flows flagged anomalous, and a source blacklist driven by
per-source anomaly frequencies.  Resource consumption (CPU, memory, power)
is an affine proxy calibrated to the operating points observed on real
gateway hardware: ~12% CPU and ~0.96 J/step idle, ~35% under attack,
~40% under a severe unmitigated flood.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .agent import ActionId
from .features import FEATURE_NAMES, features_matrix
from .sustain import KappaProvider, SustainabilityLedger, \
    g_per_kwh_to_g_per_joule

FLAG_SYN = 1
FLAG_ACK = 2
FLAG_FIN = 4
FLAG_RST = 8


@dataclass
class FlowRecord:
    """One bidirectional flow with packet/byte/timing counters."""

    src_id: str
    pkts_total: int
    bytes_total: int
    duration: float
    pkts_in: int
    pkts_out: int
    flags: int
    label: str = "benign"        # ground truth, hidden from agents
    protocol: str = "tcp"

    def __post_init__(self):
        if self.pkts_in + self.pkts_out != self.pkts_total:
            raise ValueError("pkts_in + pkts_out must equal pkts_total")
        if self.duration < 0:
            raise ValueError("duration must be >= 0")
        if self.pkts_total > 0 and self.bytes_total < self.pkts_total:
            raise ValueError("flows carry at least one byte per packet")
        if self.label not in ("benign", "attack"):
            raise ValueError(f"unknown label {self.label!r}")
        if self.protocol not in ("tcp", "udp"):
            raise ValueError(f"unknown protocol {self.protocol!r}")

    @property
    def syn_packets(self):
        """SYN-only flood flows count every packet; a normal handshake one."""
        if self.protocol != "tcp" or not self.flags & FLAG_SYN:
            return 0
        if not self.flags & FLAG_ACK:
            return self.pkts_total
        return 1 if self.pkts_total > 0 else 0

    @property
    def ack_packets(self):
        if self.protocol != "tcp" or not self.flags & FLAG_ACK:
            return 0
        return max(self.pkts_total - (1 if self.flags & FLAG_SYN else 0), 0)


@dataclass
class AttackScenario:
    """One attack burst; the zero-day knobs only matter for kind=zero_day_mix."""

    kind: str                  # syn_flood | udp_flood | zero_day_mix
    intensity: float           # packets per second
    start_step: int
    end_step: int
    n_sources: int = 20
    size_range: tuple = (40, 1200)     # packet-size modulation bounds (bytes)
    jitter_range: tuple = (0.0, 0.5)   # added flow-duration jitter (seconds)
    protocol_period: int = 7           # steps between tcp/udp alternation
    rotation_every: int = 25           # steps between source-set rotations

    def __post_init__(self):
        if self.kind not in ("syn_flood", "udp_flood", "zero_day_mix"):
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if self.start_step >= self.end_step:
            raise ValueError("attack start must precede end")
        if self.intensity <= 0:
            raise ValueError("intensity must be positive")

    def active(self, step):
        return self.start_step <= step < self.end_step


@dataclass
class TrafficConfig:
    benign_rate: float = 50.0      # flows per second
    benign_sources: int = 40
    dt: float = 1.0
    episode_len: int = 1000
    attacks: list = field(default_factory=list)

    def __post_init__(self):
        if self.benign_rate < 0 or self.benign_sources < 1:
            raise ValueError("invalid benign traffic parameters")
        if self.dt <= 0 or self.episode_len < 1:
            raise ValueError("dt and episode_len must be positive")


@dataclass
class MitigationState:
    rate_cap: float = None          # packets/s, None when inactive
    syn_cap: float = None           # SYN packets/s, None when inactive
    drop_filter_active: bool = False
    blacklist: dict = field(default_factory=dict)  # src_id -> expiry step

    def __post_init__(self):
        if self.rate_cap is not None and self.rate_cap <= 0:
            raise ValueError("rate_cap must be positive when present")
        if self.syn_cap is not None and self.syn_cap <= 0:
            raise ValueError("syn_cap must be positive when present")

    def any_active(self):
        return (self.rate_cap is not None or self.syn_cap is not None
                or self.drop_filter_active or bool(self.blacklist))


@dataclass
class ResourceProxy:
    cpu_pct: float
    mem_active: int
    power_w: float


# ---------------------------------------------------------------------------
# resource proxy model
# ---------------------------------------------------------------------------

@dataclass
class ResourceModelConfig:
    """Affine-plus-saturation proxies fitted to the logged operating points."""

    cpu_base: float = 8.22
    cpu_per_pps: float = 0.00462
    cpu_learn_bump: float = 2.5
    drop_cost_factor: float = 0.25   # dropping a packet costs less than serving it
    power_idle_w: float = 0.6
    power_per_cpu: float = 0.03
    p_max: float = 5.0
    mem_total: int = 2 ** 30
    mem_util_base: float = 0.19
    mem_util_per_pps: float = 6e-5
    mem_util_buffer: float = 0.05


def resource_model(passed_pps, dropped_pps, learning, buffer_fill, cfg=None):
    """CPU/memory/power proxies for one step.

    cpu = clamp(base + k_load * effective_load + k_learn * learning, 0, 100)
    with effective_load = passed + drop_cost * dropped; power is affine in
    CPU and saturates at p_max; memory grows with offered load and replay
    buffer occupancy.
    """
    if passed_pps < 0 or dropped_pps < 0:
        raise ValueError("load must be >= 0")
    cfg = cfg or ResourceModelConfig()
    load = passed_pps + cfg.drop_cost_factor * dropped_pps
    cpu = cfg.cpu_base + cfg.cpu_per_pps * load
    if learning:
        cpu += cfg.cpu_learn_bump
    cpu = float(min(max(cpu, 0.0), 100.0))
    power = float(min(cfg.power_idle_w + cfg.power_per_cpu * cpu, cfg.p_max))
    offered_pps = passed_pps + dropped_pps
    util = cfg.mem_util_base + cfg.mem_util_per_pps * offered_pps \
        + cfg.mem_util_buffer * buffer_fill
    util = min(max(util, 0.01), 0.95)
    return ResourceProxy(cpu, int(util * cfg.mem_total), power)


# ---------------------------------------------------------------------------
# traffic generation
# ---------------------------------------------------------------------------

def _benign_flows(config, rng):
    flows = []
    n = rng.poisson(config.benign_rate * config.dt)
    for _ in range(n):
        src = f"b{rng.integers(config.benign_sources):03d}"
        pkts = max(int(round(rng.lognormal(2.6, 0.6))), 2)
        bytes_per_pkt = rng.uniform(200.0, 1200.0)
        duration = float(min(max(rng.exponential(0.8), 0.2), 3.0 * config.dt))
        pkts_in = int(rng.binomial(pkts, 0.55))
        pkts_in = min(max(pkts_in, 1), pkts - 1) if pkts >= 2 else pkts_in
        if rng.random() < 0.75:
            protocol = "tcp"
            flags = FLAG_SYN | FLAG_ACK | (FLAG_FIN if rng.random() < 0.5 else 0)
        else:
            protocol = "udp"
            flags = 0
        flows.append(FlowRecord(
            src_id=src,
            pkts_total=pkts,
            bytes_total=int(round(pkts * bytes_per_pkt)),
            duration=duration,
            pkts_in=pkts_in,
            pkts_out=pkts - pkts_in,
            flags=flags,
            label="benign",
            protocol=protocol,
        ))
    return flows


def _attack_flows(scenario, step, config, rng):
    if not scenario.active(step):
        return []
    total = int(rng.poisson(scenario.intensity * config.dt))
    if total <= 0:
        return []

    if scenario.kind == "zero_day_mix":
        # rotating subset of a doubled source pool
        phase = (step - scenario.start_step) // scenario.rotation_every
        pool = 2 * scenario.n_sources
        sources = [(phase + j) % pool for j in range(scenario.n_sources)]
        use_tcp = ((step - scenario.start_step) // scenario.protocol_period) % 2 == 0
        lo, hi = scenario.size_range
        mid = 0.5 * (lo + hi)
        amp = 0.5 * (hi - lo)
        bytes_per_pkt = mid + amp * np.sin(2.0 * np.pi * step / 17.0)
        jitter = rng.uniform(*scenario.jitter_range)
    else:
        sources = list(range(scenario.n_sources))
        use_tcp = scenario.kind == "syn_flood"
        bytes_per_pkt = rng.uniform(40.0, 60.0) if use_tcp else rng.uniform(400.0, 1400.0)
        jitter = 0.0

    shares = rng.multinomial(total, np.full(len(sources), 1.0 / len(sources)))
    flows = []
    for src_idx, pkts in zip(sources, shares):
        pkts = int(pkts)
        if pkts == 0:
            continue
        flows.append(FlowRecord(
            src_id=f"a{src_idx:03d}",
            pkts_total=pkts,
            bytes_total=max(int(round(pkts * bytes_per_pkt)), pkts),
            duration=float(config.dt + jitter),
            pkts_in=pkts,
            pkts_out=0,
            flags=FLAG_SYN if use_tcp else 0,
            label="attack",
            protocol="tcp" if use_tcp else "udp",
        ))
    return flows


def generate_step_traffic(config, step, rng):
    """Benign Poisson arrivals plus flows from every active attack scenario."""
    flows = _benign_flows(config, rng)
    for scenario in config.attacks:
        flows.extend(_attack_flows(scenario, step, config, rng))
    return flows


# ---------------------------------------------------------------------------
# mitigation
# ---------------------------------------------------------------------------

def _split_flow(flow, kept_pkts):
    """Split a flow into (passed, dropped) keeping exact packet and byte sums."""
    if kept_pkts >= flow.pkts_total:
        return flow, None
    if kept_pkts <= 0:
        return None, flow
    kept_bytes = int(round(flow.bytes_total * kept_pkts / flow.pkts_total))
    kept_bytes = min(max(kept_bytes, kept_pkts), flow.bytes_total - (flow.pkts_total - kept_pkts))
    kept_in = int(round(flow.pkts_in * kept_pkts / flow.pkts_total))
    kept_in = min(max(kept_in, kept_pkts - flow.pkts_out), flow.pkts_in, kept_pkts)
    passed = replace(flow, pkts_total=kept_pkts, bytes_total=kept_bytes,
                     pkts_in=kept_in, pkts_out=kept_pkts - kept_in)
    rem = flow.pkts_total - kept_pkts
    dropped = replace(flow, pkts_total=rem, bytes_total=flow.bytes_total - kept_bytes,
                      pkts_in=flow.pkts_in - kept_in,
                      pkts_out=flow.pkts_out - (kept_pkts - kept_in))
    return passed, dropped


def _enforce_cap(flows, counts, cap, rng):
    """Uniform random drop of excess packets so that sum(kept) <= cap.

    counts gives the per-flow packet budget subject to the cap.  Returns the
    kept count per flow, drawn as a multivariate hypergeometric sample
    (every offered packet equally likely to survive).
    """
    total = int(sum(counts))
    cap = int(cap)
    if total <= cap:
        return list(counts)
    kept = rng.multivariate_hypergeometric(np.asarray(counts, dtype=np.int64),
                                           cap, method="marginals")
    return [int(k) for k in kept]


def apply_mitigation(flows, mitigation, rng, flags=None, dt=1.0):
    """Filter offered flows through the active mitigation controls.

    Order: blacklist, anomaly drop filter, SYN cap, total rate cap.  Packet
    and byte totals are conserved exactly across (passed, dropped).
    """
    if flags is None:
        flags = [False] * len(flows)
    passed, dropped = [], []
    stage = []
    for flow, flagged in zip(flows, flags, strict=True):
        if flow.src_id in mitigation.blacklist:
            dropped.append(flow)
        elif mitigation.drop_filter_active and flagged:
            dropped.append(flow)
        else:
            stage.append(flow)

    if mitigation.syn_cap is not None and stage:
        syn_counts = [f.syn_packets for f in stage]
        total_syn = sum(syn_counts)
        budget = int(mitigation.syn_cap * dt)
        if total_syn > budget:
            kept_syn = _enforce_cap(stage, syn_counts, budget, rng)
            next_stage = []
            for flow, syn, kept in zip(stage, syn_counts, kept_syn):
                dropped_syn = syn - kept
                p, d = _split_flow(flow, flow.pkts_total - dropped_syn)
                if p is not None:
                    # a handshake flow whose SYN was dropped no longer
                    # carries one; SYN-only flood fragments keep the flag
                    if dropped_syn > 0 and flow.flags & FLAG_ACK:
                        p = replace(p, flags=p.flags & ~FLAG_SYN)
                    next_stage.append(p)
                if d is not None:
                    dropped.append(d)
            stage = next_stage

    if mitigation.rate_cap is not None and stage:
        counts = [f.pkts_total for f in stage]
        budget = int(mitigation.rate_cap * dt)
        if sum(counts) > budget:
            kept_counts = _enforce_cap(stage, counts, budget, rng)
            next_stage = []
            for flow, kept in zip(stage, kept_counts):
                p, d = _split_flow(flow, kept)
                if p is not None:
                    next_stage.append(p)
                if d is not None:
                    dropped.append(d)
            stage = next_stage

    passed.extend(stage)
    return passed, dropped


# ---------------------------------------------------------------------------
# adaptive source filtering
# ---------------------------------------------------------------------------

def source_attack_probability(window):
    """Fraction of the recorded per-step anomaly flags that are set."""
    if len(window) == 0:
        raise ValueError("empty anomaly window")
    return sum(1 for flag in window if flag) / len(window)


def blacklist_update(probabilities, tau_p, expiry_steps, now, blacklist):
    """Blacklist every source whose attack probability strictly exceeds tau_p.

    Existing entries are refreshed; returns the set of sources added or
    refreshed.
    """
    if not 0.0 < tau_p < 1.0:
        raise ValueError("tau_p must lie in (0, 1)")
    changed = set()
    for src, prob in probabilities.items():
        if prob > tau_p:
            blacklist[src] = now + expiry_steps
            changed.add(src)
    return changed


def rate_threshold_flagger(threshold_pps=200.0):
    """Fallback flagger: one flag per feature row, set above a fixed packet
    rate."""
    column = FEATURE_NAMES.index("pkt_rate")

    def flag(features):
        return (features[:, column] > threshold_pps).tolist()
    return flag


# ---------------------------------------------------------------------------
# the environment
# ---------------------------------------------------------------------------

@dataclass
class EnvParams:
    rate_cap_pps: float = 1500.0
    syn_cap_pps: float = 150.0
    tau_p: float = 0.5
    source_window: int = 10
    blacklist_expiry: int = 300
    flag_rate_threshold: float = 200.0


@dataclass
class StepResult:
    step: int
    offered: list
    passed: list
    dropped: list
    features: np.ndarray    # one features_matrix row per offered flow
    flags: list
    offered_pkts: dict
    passed_pkts: dict
    dropped_pkts: dict
    resource: ResourceProxy
    ledger_entry: object
    mitigation: MitigationState
    attack_active: bool
    action: object


class EdgeGatewayEnv:
    """Seeded, deterministic gateway simulation.

    One instance per run; (seed, config, action sequence) fully determines
    every observation and ledger entry.  Each step's offered flows are
    featurized once, into ``StepResult.features``; the injectable flagger
    takes that matrix and returns one flag per row, so the detection
    pipeline can drive the drop filter and the blacklist with model flags.
    """

    def __init__(self, traffic, seed, params=None, resources=None,
                 limits=None, kappa=None, flow_flagger=None):
        self.traffic = traffic
        self.params = params or EnvParams()
        self.resources = resources or ResourceModelConfig()
        self.kappa = kappa or KappaProvider(g_per_kwh_to_g_per_joule(400.0))
        self.flow_flagger = flow_flagger or rate_threshold_flagger(
            self.params.flag_rate_threshold)
        self._seed = seed
        self.reset(seed)
        if limits is not None:
            self.ledger.limits = limits
        self._limits = self.ledger.limits

    def reset(self, seed=None):
        if seed is not None:
            self._seed = seed
        self.rng = np.random.default_rng(self._seed)
        self.step_index = 0
        self.mitigation = MitigationState()
        self.ledger = SustainabilityLedger(getattr(self, "_limits", None))
        self.source_windows = {}
        return self

    def source_probabilities(self):
        return {src: source_attack_probability(win)
                for src, win in self.source_windows.items() if len(win) > 0}

    def _apply_action(self, action):
        m = self.mitigation
        if action is None:
            # passive monitoring: caps relax, the blacklist persists
            m.rate_cap = None
            m.syn_cap = None
            m.drop_filter_active = False
            return
        action = ActionId(action)
        if action == ActionId.RATE_LIMIT:
            m.rate_cap = self.params.rate_cap_pps
        elif action == ActionId.SYN_THROTTLE:
            m.syn_cap = self.params.syn_cap_pps
        elif action == ActionId.BLOCK_ANOMALOUS:
            m.drop_filter_active = True
        elif action == ActionId.SOURCE_FILTER:
            blacklist_update(self.source_probabilities(), self.params.tau_p,
                             self.params.blacklist_expiry, self.step_index,
                             m.blacklist)

    def _update_source_windows(self, offered, flags):
        flagged_srcs = {}
        for flow, flag in zip(offered, flags):
            flagged_srcs[flow.src_id] = flagged_srcs.get(flow.src_id, False) or flag
        maxlen = self.params.source_window
        for src in set(self.source_windows) | set(flagged_srcs):
            # a fresh source starts with an unflagged history so that its
            # attack probability always averages over the full window
            window = self.source_windows.setdefault(src, [False] * (maxlen - 1))
            window.append(flagged_srcs.get(src, False))
            if len(window) > maxlen:
                del window[0]
            if not any(window) and src not in flagged_srcs \
                    and src not in self.mitigation.blacklist:
                del self.source_windows[src]

    def step(self, action=None, learning=False, buffer_fill=0.0):
        """Advance one dt: apply the action, generate and filter traffic,
        update resources and the ledger, and return the observations."""
        if self.step_index >= self.traffic.episode_len:
            raise RuntimeError("episode already finished")
        now = self.step_index

        expired = [s for s, exp in self.mitigation.blacklist.items() if exp <= now]
        for s in expired:
            del self.mitigation.blacklist[s]

        self._apply_action(action)

        offered = generate_step_traffic(self.traffic, now, self.rng)
        features = features_matrix(offered)
        flags = self.flow_flagger(features)
        passed, dropped = apply_mitigation(offered, self.mitigation, self.rng,
                                           flags, self.traffic.dt)
        self._update_source_windows(offered, flags)

        def pkt_counts(flows):
            counts = {"benign": 0, "attack": 0}
            for f in flows:
                counts[f.label] += f.pkts_total
            return counts

        offered_pkts = pkt_counts(offered)
        passed_pkts = pkt_counts(passed)
        dropped_pkts = pkt_counts(dropped)

        dt = self.traffic.dt
        passed_pps = sum(passed_pkts.values()) / dt
        dropped_pps = sum(dropped_pkts.values()) / dt
        resource = resource_model(passed_pps, dropped_pps, learning,
                                  buffer_fill, self.resources)
        entry = self.ledger.record(now, resource.power_w, dt,
                                   self.kappa.at(now), resource.mem_active,
                                   self.resources.mem_total)

        result = StepResult(
            step=now,
            offered=offered,
            passed=passed,
            dropped=dropped,
            features=features,
            flags=flags,
            offered_pkts=offered_pkts,
            passed_pkts=passed_pkts,
            dropped_pkts=dropped_pkts,
            resource=resource,
            ledger_entry=entry,
            mitigation=replace(self.mitigation,
                               blacklist=dict(self.mitigation.blacklist)),
            attack_active=offered_pkts["attack"] > 0,
            action=action,
        )
        self.step_index += 1
        return result


def default_syn_flood(intensity=5000.0, start=200, end=700, n_sources=20):
    return AttackScenario("syn_flood", intensity, start, end, n_sources)


def severe_syn_flood():
    return AttackScenario("syn_flood", 6000.0, 200, 700, 20)
