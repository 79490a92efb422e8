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

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .agent import ActionId
from .features import FEATURE_NAMES, features_matrix
from .rules import check_fields
from .sustain import KappaProvider, SustainabilityLedger, \
    g_per_kwh_to_g_per_joule

FLAG_SYN = 1
FLAG_ACK = 2
FLAG_FIN = 4
FLAG_RST = 8


@dataclass
class FlowRecord:
    """One bidirectional flow with packet/byte/timing counters.

    The row type of CSV ingest and export and of hand-built flows; the
    simulator itself works on FlowBatch columns.
    """

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
        if self.label not in LABELS:
            raise ValueError(f"unknown label {self.label!r}")
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")


LABELS = ("benign", "attack")
PROTOCOLS = ("tcp", "udp")
_COLUMNS = ("src", "pkts_total", "bytes_total", "duration", "pkts_in",
            "pkts_out", "flags", "label", "protocol")


@dataclass(eq=False)
class FlowBatch:
    """Flows as columns: one numpy array per FlowRecord field.

    ``src`` indexes ``sources`` (the source names), ``label`` indexes
    LABELS and ``protocol`` indexes PROTOCOLS.  A batch is never modified
    once built, so mitigation may hand its input back as the passed
    flows.  Iterating a batch yields FlowRecord rows, for export and for
    checks; the simulator works on the columns only.
    """

    sources: tuple
    src: np.ndarray
    pkts_total: np.ndarray
    bytes_total: np.ndarray
    duration: np.ndarray
    pkts_in: np.ndarray
    pkts_out: np.ndarray
    flags: np.ndarray
    label: np.ndarray
    protocol: np.ndarray

    @classmethod
    def from_records(cls, records):
        """A batch of FlowRecords, in order, over their source names in
        order of first appearance."""
        records = list(records)
        sources = tuple(dict.fromkeys(r.src_id for r in records))
        index = {name: i for i, name in enumerate(sources)}

        def column(values, dtype):
            return np.array(list(values), dtype=dtype)

        return cls(sources,
                   column((index[r.src_id] for r in records), np.intp),
                   column((r.pkts_total for r in records), np.int64),
                   column((r.bytes_total for r in records), np.int64),
                   column((r.duration for r in records), np.float64),
                   column((r.pkts_in for r in records), np.int64),
                   column((r.pkts_out for r in records), np.int64),
                   column((r.flags for r in records), np.int64),
                   column((LABELS.index(r.label) for r in records), np.int8),
                   column((PROTOCOLS.index(r.protocol) for r in records), np.int8))

    @classmethod
    def of(cls, flows):
        """``flows`` itself when it is a batch, else its records as one."""
        return flows if isinstance(flows, cls) else cls.from_records(flows)

    def __len__(self):
        return len(self.src)

    def __iter__(self):
        names = self.sources
        for s, p, b, d, i, o, f, lab, pr in zip(
                *(getattr(self, c).tolist() for c in _COLUMNS)):
            yield FlowRecord(names[s], p, b, d, i, o, f, LABELS[lab], PROTOCOLS[pr])

    def take(self, rows):
        """The flows a boolean mask, index array or slice selects, in order."""
        return FlowBatch(self.sources, *(getattr(self, c)[rows] for c in _COLUMNS))

    @staticmethod
    def concat(parts):
        """The flows of one or more batches over the same sources, in order."""
        if len(parts) == 1:
            return parts[0]
        return FlowBatch(parts[0].sources, *(
            np.concatenate([getattr(p, c) for p in parts]) for c in _COLUMNS))

    @property
    def syn_packets(self):
        """Per flow: every packet of a SYN-only flood flow, one for a
        handshake flow, none otherwise."""
        syn = (self.protocol == 0) & (self.flags & FLAG_SYN != 0)
        handshake = self.flags & FLAG_ACK != 0
        return np.where(syn, np.where(handshake, self.pkts_total > 0,
                                      self.pkts_total), 0)

    @property
    def ack_packets(self):
        """Per flow: the ACK-flagged tcp packets, the handshake SYN aside."""
        ack = (self.protocol == 0) & (self.flags & FLAG_ACK != 0)
        return np.where(ack, np.maximum(
            self.pkts_total - (self.flags & FLAG_SYN != 0), 0), 0)

    def pkts_by_label(self):
        counts = np.bincount(self.label, weights=self.pkts_total,
                             minlength=len(LABELS))
        return {name: int(n) for name, n in zip(LABELS, counts)}


# A bound on env.benign_rate * env.dt, the benign flows a step draws: 500
# times the densest set-up measured (200).  A rate far above it could not
# be drawn at all.
MAX_FLOWS_PER_STEP = 1e5
# A bound on env.benign_rate * env.dt * warmup.steps, the warm-up's flows.
# At the bound, on a 2-vCPU x86 box, a deepedge warm-up took 38-41 s and
# 760 MB of peak RSS over its two processes, an autodrl one (whose child
# fits both halves alone) 81 s and 881 MB.  It can be no lower: the fewest
# warm-up steps, ten, at MAX_FLOWS_PER_STEP draw this many.
MAX_WARMUP_FLOWS = 1e6


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
        check_fields(self, (
            ("kind", self.kind in ("syn_flood", "udp_flood", "zero_day_mix"),
             "must be syn_flood, udp_flood or zero_day_mix"),
            ("intensity", self.intensity > 0, "must be positive"),
            ("start_step", self.start_step < self.end_step,
             f"must be less than end_step ({self.end_step})"),
            ("n_sources", self.n_sources >= 1, "must be >= 1"),
            ("protocol_period", self.protocol_period >= 1, "must be >= 1"),
            ("rotation_every", self.rotation_every >= 1, "must be >= 1")))

    def active(self, step):
        return self.start_step <= step < self.end_step


@dataclass
class EnvConfig:
    """The gateway: its traffic and its four mitigation controls; the
    config's ``env`` section."""

    benign_rate: float = 50.0           # flows per second
    benign_sources: int = 40
    dt: float = 1.0
    episode_len: int = 1000
    attacks: list = field(default_factory=lambda: [
        AttackScenario("syn_flood", 5000.0, 200, 700, 20)])
    rate_cap_pps: float = 1500.0        # RATE_LIMIT's total packet cap
    syn_cap_pps: float = 150.0          # SYN_THROTTLE's SYN packet cap
    tau_p: float = 0.5                  # SOURCE_FILTER's attack-probability bar
    source_window: int = 10             # steps of per-source anomaly flags
    blacklist_expiry: int = 300         # steps a blacklisted source stays out

    def __post_init__(self):
        check_fields(self, (
            ("benign_rate", self.benign_rate >= 0, "must be >= 0"),
            ("benign_sources", self.benign_sources >= 1, "must be >= 1"),
            ("dt", self.dt > 0, "must be positive"),
            ("benign_rate", self.benign_rate * self.dt <= MAX_FLOWS_PER_STEP,
             f"times dt ({self.dt:g} s) must be at most "
             f"{MAX_FLOWS_PER_STEP:g} flows per step"),
            ("episode_len", self.episode_len >= 1, "must be >= 1"),
            ("rate_cap_pps", self.rate_cap_pps > 0, "must be positive"),
            ("syn_cap_pps", self.syn_cap_pps > 0, "must be positive"),
            ("tau_p", 0.0 < self.tau_p < 1.0, "must lie in (0, 1)"),
            ("source_window", self.source_window >= 1, "must be >= 1"),
            ("blacklist_expiry", self.blacklist_expiry >= 0, "must be >= 0")))


@dataclass
class MitigationState:
    rate_cap: float = None          # packets/s, None when inactive
    syn_cap: float = None           # SYN packets/s, None when inactive
    drop_filter_active: bool = False
    blacklist: dict = field(default_factory=dict)  # src_id -> expiry step

    def __post_init__(self):
        if self.rate_cap is not None and not self.rate_cap > 0:
            raise ValueError("rate_cap must be positive when present")
        if self.syn_cap is not None and not self.syn_cap > 0:
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

    def __post_init__(self):
        check_fields(self, (
            ("power_idle_w", self.power_idle_w >= 0, "must be >= 0"),
            ("power_per_cpu", self.power_per_cpu >= 0, "must be >= 0"),
            ("p_max", self.p_max >= 0, "must be >= 0"),
            ("mem_total", self.mem_total >= 1, "must be positive")))


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

@functools.lru_cache(maxsize=None)
def _source_names(benign, attack):
    return (tuple(f"b{i:03d}" for i in range(benign))
            + tuple(f"a{i:03d}" for i in range(attack)))


def source_names(config):
    """Every source name the traffic can use, benign sources first; a
    generated flow's ``src`` indexes this tuple.  A zero-day mix rotates
    through a pool of twice its source count."""
    attack = max((s.n_sources * (2 if s.kind == "zero_day_mix" else 1)
                  for s in config.attacks), default=0)
    return _source_names(config.benign_sources, attack)


def _benign_columns(config, rng):
    n = rng.poisson(config.benign_rate * config.dt)
    src = rng.integers(config.benign_sources, size=n)
    pkts = np.maximum(np.rint(rng.lognormal(2.6, 0.6, n)), 2).astype(np.int64)
    bytes_per_pkt = rng.uniform(200.0, 1200.0, n)
    duration = np.minimum(np.maximum(rng.exponential(0.8, n), 0.2), 3.0 * config.dt)
    pkts_in = np.minimum(np.maximum(rng.binomial(pkts, 0.55), 1), pkts - 1)
    tcp = rng.random(n) < 0.75
    flags = np.zeros(n, np.int64)
    # only a tcp flow tosses the FIN coin
    flags[tcp] = np.where(rng.random(np.count_nonzero(tcp)) < 0.5,
                          FLAG_SYN | FLAG_ACK | FLAG_FIN, FLAG_SYN | FLAG_ACK)
    return (src, pkts, np.rint(pkts * bytes_per_pkt).astype(np.int64), duration,
            pkts_in, pkts - pkts_in, flags, np.zeros(n, np.int8),
            (~tcp).astype(np.int8))


def _attack_columns(scenario, step, config, rng):
    """The scenario's flows at this step, or None; attack source ids
    follow the benign ones."""
    if not scenario.active(step):
        return None
    total = int(rng.poisson(scenario.intensity * config.dt))
    if total <= 0:
        return None

    if scenario.kind == "zero_day_mix":
        # rotating subset of a doubled source pool
        phase = (step - scenario.start_step) // scenario.rotation_every
        pool = 2 * scenario.n_sources
        sources = (phase + np.arange(scenario.n_sources)) % pool
        use_tcp = ((step - scenario.start_step) // scenario.protocol_period) % 2 == 0
        lo, hi = scenario.size_range
        mid = 0.5 * (lo + hi)
        amp = 0.5 * (hi - lo)
        bytes_per_pkt = mid + amp * np.sin(2.0 * np.pi * step / 17.0)
        jitter = rng.uniform(*scenario.jitter_range)
    else:
        sources = np.arange(scenario.n_sources)
        use_tcp = scenario.kind == "syn_flood"
        bytes_per_pkt = rng.uniform(40.0, 60.0) if use_tcp else rng.uniform(400.0, 1400.0)
        jitter = 0.0

    shares = rng.multinomial(total, np.full(len(sources), 1.0 / len(sources)))
    hit = shares > 0
    pkts = shares[hit]
    n = len(pkts)
    return (config.benign_sources + sources[hit], pkts,
            np.maximum(np.rint(pkts * bytes_per_pkt).astype(np.int64), pkts),
            np.full(n, float(config.dt + jitter)), pkts, np.zeros(n, np.int64),
            np.full(n, FLAG_SYN if use_tcp else 0, np.int64), np.ones(n, np.int8),
            np.full(n, 0 if use_tcp else 1, np.int8))


def generate_step_traffic(config, step, rng):
    """Benign Poisson arrivals plus flows from every active attack
    scenario, as one FlowBatch; each column is drawn with one call."""
    parts = [_benign_columns(config, rng)]
    for scenario in config.attacks:
        part = _attack_columns(scenario, step, config, rng)
        if part is not None:
            parts.append(part)
    columns = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    return FlowBatch(source_names(config), *columns)


# ---------------------------------------------------------------------------
# mitigation
# ---------------------------------------------------------------------------

def _split_flows(batch, kept, passed_flags=None):
    """Split each flow into the part that passes, kept[i] of its packets,
    and the part dropped, keeping exact packet and byte sums; bytes and
    inbound packets follow the kept share, rounded.  A flow that keeps
    every packet has no dropped part and one that keeps none no passed
    part.  Returns (passed, dropped); passed parts carry passed_flags."""
    total, nbytes = batch.pkts_total, batch.bytes_total
    pkts_in, pkts_out = batch.pkts_in, batch.pkts_out
    whole = kept >= total
    k = np.minimum(np.maximum(kept, 0), total)
    denom = np.maximum(total, 1)
    kept_bytes = np.rint(nbytes * k / denom).astype(np.int64)
    kept_bytes = np.minimum(np.maximum(kept_bytes, k), nbytes - (total - k))
    kept_bytes = np.where(whole, nbytes, kept_bytes)
    kept_in = np.rint(pkts_in * k / denom).astype(np.int64)
    kept_in = np.minimum(np.minimum(np.maximum(kept_in, k - pkts_out), pkts_in), k)
    passed = replace(batch, pkts_total=k, bytes_total=kept_bytes, pkts_in=kept_in,
                     pkts_out=k - kept_in,
                     flags=batch.flags if passed_flags is None else passed_flags)
    dropped = replace(batch, pkts_total=total - k, bytes_total=nbytes - kept_bytes,
                      pkts_in=pkts_in - kept_in, pkts_out=pkts_out - (k - kept_in))
    return passed.take(whole | (k > 0)), dropped.take(~whole)


def _enforce_cap(counts, cap, rng):
    """Uniform random drop of excess packets so that sum(kept) <= cap.

    counts gives the per-flow packet budget subject to the cap.  Returns the
    kept count per flow, drawn as a multivariate hypergeometric sample
    (every offered packet equally likely to survive).
    """
    cap = int(cap)
    if int(counts.sum()) <= cap:
        return counts
    return rng.multivariate_hypergeometric(counts, cap, method="marginals")


def _blacklisted(sources, blacklist):
    """One flag per source name: it is on the blacklist."""
    return np.fromiter((name in blacklist for name in sources), bool, len(sources))


def apply_mitigation(flows, mitigation, rng, flags=None, dt=1.0):
    """Filter offered flows through the active mitigation controls.

    Order: blacklist, anomaly drop filter, SYN cap, total rate cap.  Packet
    and byte totals are conserved exactly across (passed, dropped), two
    FlowBatches; dropped holds the blocked flows, then the SYN-cap cuts,
    then the rate-cap cuts.  With no control active every flow passes.
    """
    batch = FlowBatch.of(flows)
    flagged = np.zeros(len(batch), bool) if flags is None \
        else np.asarray(flags, dtype=bool)
    if flagged.shape != (len(batch),):
        raise ValueError(f"{len(flagged)} flags for {len(batch)} flows")
    if not mitigation.any_active():
        return batch, batch.take(slice(0, 0))
    blocked = np.zeros(len(batch), bool)
    if mitigation.blacklist:
        blocked = _blacklisted(batch.sources, mitigation.blacklist)[batch.src]
    if mitigation.drop_filter_active:
        blocked |= flagged
    stage, cuts = batch, []
    if blocked.any():
        cuts.append(batch.take(blocked))
        stage = batch.take(~blocked)

    if mitigation.syn_cap is not None and len(stage):
        syn = stage.syn_packets
        budget = int(mitigation.syn_cap * dt)
        if syn.sum() > budget:
            dropped_syn = syn - _enforce_cap(syn, budget, rng)
            # a handshake flow whose SYN was dropped no longer carries
            # one; SYN-only flood fragments keep the flag
            lost = (dropped_syn > 0) & (stage.flags & FLAG_ACK != 0)
            stage, cut = _split_flows(stage, stage.pkts_total - dropped_syn,
                                      np.where(lost, stage.flags & ~FLAG_SYN,
                                               stage.flags))
            cuts.append(cut)

    if mitigation.rate_cap is not None and len(stage):
        budget = int(mitigation.rate_cap * dt)
        if stage.pkts_total.sum() > budget:
            stage, cut = _split_flows(
                stage, _enforce_cap(stage.pkts_total, budget, rng))
            cuts.append(cut)

    return stage, FlowBatch.concat(cuts) if cuts else batch.take(slice(0, 0))


# ---------------------------------------------------------------------------
# adaptive source filtering
# ---------------------------------------------------------------------------

def source_attack_probability(window):
    """Fraction of the recorded per-step anomaly flags that are set, along
    the last axis: one window, or one per row of a [sources, window] ring."""
    window = np.asarray(window, dtype=bool)
    if window.shape[-1] == 0:
        raise ValueError("empty anomaly window")
    return np.count_nonzero(window, axis=-1) / window.shape[-1]


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
        return features[:, column] > threshold_pps
    return flag


# ---------------------------------------------------------------------------
# the environment
# ---------------------------------------------------------------------------

@dataclass
class StepResult:
    """One simulator step.  offered, passed and dropped are FlowBatches
    over the env's sources; a batch iterates as FlowRecord rows, but the
    packet tallies here are already summed from its columns."""

    step: int
    offered: FlowBatch
    passed: FlowBatch
    dropped: FlowBatch
    features: np.ndarray    # one features_matrix row per offered flow
    offered_pkts: dict
    offered_syn: int        # SYN packets among the offered flows
    offered_ack: int        # ACK packets among the offered flows
    passed_pkts: dict
    dropped_pkts: dict
    resource: ResourceProxy
    ledger_entry: object
    mitigation: MitigationState
    attack_active: bool
    action: object


class EdgeGatewayEnv:
    """Seeded, deterministic gateway simulation.

    One instance per run, with no reset: a new run builds a new env, and
    (seed, config, action sequence) fully determines every observation and
    ledger entry.  Each step's offered flows are one FlowBatch, featurized
    once, into ``StepResult.features``; the injectable flagger takes that
    matrix and returns one flag per row (a bool array, or anything
    np.asarray reads as one), so the detection pipeline can drive the
    drop filter and the blacklist with model flags.

    Per source the env keeps the flags of the last ``source_window`` steps
    (set when any of the source's flows was flagged) in a [sources, window]
    boolean ring.  A source is tracked from the step it sends a flow until
    its window holds no flag while it sends nothing and is not
    blacklisted; a source seen again starts from an unflagged history, so
    its attack probability always averages over the full window.
    """

    def __init__(self, config, seed, resources=None, limits=None, kappa=None,
                 flow_flagger=None):
        self.config = config
        self.resources = resources or ResourceModelConfig()
        self.kappa = kappa or KappaProvider(g_per_kwh_to_g_per_joule(400.0))
        self.flow_flagger = flow_flagger or rate_threshold_flagger()
        self.rng = np.random.default_rng(seed)
        self.step_index = 0
        self.mitigation = MitigationState()
        self.ledger = SustainabilityLedger(limits)
        self.sources = source_names(config)
        self._flag_ring = np.zeros((len(self.sources), config.source_window),
                                   dtype=bool)
        self._ring_pos = 0
        self._tracked = np.zeros(len(self.sources), dtype=bool)

    def source_probabilities(self):
        """Attack probability of every tracked source, by name."""
        probs = source_attack_probability(self._flag_ring)
        return {self.sources[i]: float(probs[i])
                for i in np.flatnonzero(self._tracked)}

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
            m.rate_cap = self.config.rate_cap_pps
        elif action == ActionId.SYN_THROTTLE:
            m.syn_cap = self.config.syn_cap_pps
        elif action == ActionId.BLOCK_ANOMALOUS:
            m.drop_filter_active = True
        elif action == ActionId.SOURCE_FILTER:
            blacklist_update(self.source_probabilities(), self.config.tau_p,
                             self.config.blacklist_expiry, self.step_index,
                             m.blacklist)

    def _update_source_windows(self, offered, flagged):
        seen = np.zeros(len(self.sources), dtype=bool)
        seen[offered.src] = True
        hit = np.zeros(len(self.sources), dtype=bool)
        hit[offered.src[flagged]] = True
        # an untracked source's row is all False, as its history must be
        self._flag_ring[:, self._ring_pos] = hit
        self._ring_pos = (self._ring_pos + 1) % self._flag_ring.shape[1]
        keep = self._flag_ring.any(axis=1)
        if self.mitigation.blacklist:
            keep |= _blacklisted(self.sources, self.mitigation.blacklist)
        self._tracked = seen | (self._tracked & keep)

    def step(self, action=None, learning=False, buffer_fill=0.0):
        """Advance one dt: apply the action, generate and filter traffic,
        update resources and the ledger, and return the observations."""
        if self.step_index >= self.config.episode_len:
            raise RuntimeError("episode already finished")
        now = self.step_index

        expired = [s for s, exp in self.mitigation.blacklist.items() if exp <= now]
        for s in expired:
            del self.mitigation.blacklist[s]

        self._apply_action(action)

        offered = generate_step_traffic(self.config, now, self.rng)
        features = features_matrix(offered)
        flagged = np.asarray(self.flow_flagger(features), dtype=bool)
        passed, dropped = apply_mitigation(offered, self.mitigation, self.rng,
                                           flagged, self.config.dt)
        self._update_source_windows(offered, flagged)

        offered_pkts = offered.pkts_by_label()
        passed_pkts = passed.pkts_by_label()
        dropped_pkts = dropped.pkts_by_label()

        dt = self.config.dt
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
            offered_pkts=offered_pkts,
            offered_syn=int(offered.syn_packets.sum()),
            offered_ack=int(offered.ack_packets.sum()),
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
