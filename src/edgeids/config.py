"""Experiment configuration: defaults, JSON round-trip, flag overrides.

One flat JSON file configures a whole run.  Every value is validated by the
owning section's constructor before anything starts, through
``rules.check_fields``, and a rejection names the value's full key.  The
effective config is snapshotted byte-identically into each run artifact so
any run can be reproduced from its own snapshot.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field

from .agent import AgentHyperparams, EpsilonSchedule
from .gateway_env import (MAX_WARMUP_FLOWS, AttackScenario, EnvConfig,
                          ResourceModelConfig)
from .rules import check_fields
from .sustain import LedgerLimits, RewardWeights, g_per_kwh_to_g_per_joule


class ConfigError(Exception):
    """Invalid or inconsistent experiment configuration."""


AGENT_KINDS = ("deepedge", "autodrl", "tabular")


def _is_integer(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value):
    """A finite int or float: JSON's Infinity and NaN are not numbers here."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def is_numbers(value, count):
    """A list of ``count`` finite numbers (a tuple passes too)."""
    return (isinstance(value, (list, tuple)) and len(value) == count
            and all(is_number(v) for v in value))


@dataclass
class NeuralConfig:
    ae_hidden: int = 16
    latent_dim: int = 8
    ae_lr: float = 0.05
    ae_epochs: int = 150
    lstm_hidden: int = 8
    lstm_window: int = 8
    lstm_lr: float = 1.0
    q_hidden: list = field(default_factory=lambda: [32, 32])

    def __post_init__(self):
        check_fields(self, (
            ("ae_hidden", self.ae_hidden >= 1, "must be >= 1"),
            ("latent_dim", self.latent_dim >= 1, "must be >= 1"),
            ("ae_lr", self.ae_lr > 0, "must be positive"),
            ("ae_epochs", self.ae_epochs >= 1, "must be >= 1"),
            ("lstm_hidden", self.lstm_hidden >= 1, "must be >= 1"),
            ("lstm_window", self.lstm_window >= 1, "must be >= 1"),
            ("lstm_lr", self.lstm_lr > 0, "must be positive"),
            ("q_hidden", isinstance(self.q_hidden, list) and self.q_hidden != []
             and all(_is_integer(w) and w >= 1 for w in self.q_hidden),
             "must list positive integer layer widths")))


@dataclass
class WarmupConfig:
    steps: int = 120
    tau_percentile: float = 99.0

    def __post_init__(self):
        check_fields(self, (
            ("steps", self.steps >= 10, "must be >= 10"),
            ("tau_percentile", 50.0 <= self.tau_percentile < 100.0,
             "must lie in [50, 100)")))


@dataclass
class SustainConfig:
    weights: RewardWeights = field(default_factory=RewardWeights)
    kappa_g_per_kwh: float = 400.0
    kappa_max_g_per_kwh: float = 500.0
    kappa_schedule_file: str = None
    p_max_w: float = 5.0
    e_max_j: float = None          # None: no cumulative energy cap
    m_max: float = 1.0
    reward_window: int = 50

    def __post_init__(self):
        check_fields(self, (
            ("kappa_g_per_kwh", self.kappa_g_per_kwh >= 0, "must be >= 0"),
            ("kappa_max_g_per_kwh", self.kappa_max_g_per_kwh > 0, "must be positive"),
            ("kappa_g_per_kwh", self.kappa_g_per_kwh <= self.kappa_max_g_per_kwh,
             f"must be at most kappa_max_g_per_kwh ({self.kappa_max_g_per_kwh:g})"),
            ("p_max_w", self.p_max_w > 0, "must be positive"),
            ("e_max_j", self.e_max_j is None or self.e_max_j > 0,
             "must be positive or null"),
            ("m_max", self.m_max > 0, "must be positive"),
            ("reward_window", self.reward_window >= 1, "must be >= 1")))

    def kappa_g_per_j(self):
        return g_per_kwh_to_g_per_joule(self.kappa_g_per_kwh)

    def ledger_limits(self):
        return LedgerLimits(
            p_max=self.p_max_w,
            kappa_max=g_per_kwh_to_g_per_joule(self.kappa_max_g_per_kwh),
            e_max=float("inf") if self.e_max_j is None else self.e_max_j,
            m_max=self.m_max,
        )


@dataclass
class TabularConfig:
    n_updates: int = 200_000
    eta_exponent: float = 0.6
    probe_every: int = 500
    episodes: int = 80
    steps_per_episode: int = 100

    def __post_init__(self):
        check_fields(self, (
            ("n_updates", self.n_updates >= 1, "must be >= 1"),
            ("eta_exponent", 0.5 < self.eta_exponent < 1.0, "must lie in (0.5, 1)"),
            ("probe_every", self.probe_every >= 1, "must be >= 1"),
            ("episodes", self.episodes >= 1, "must be >= 1"),
            ("steps_per_episode", self.steps_per_episode >= 1, "must be >= 1")))


@dataclass
class ExperimentConfig:
    agent: str = "deepedge"
    seed: int = 0
    episodes: int = 6
    pretrain_episodes: int = 2     # autodrl supervised phase
    hyper: AgentHyperparams = field(default_factory=AgentHyperparams)
    env: EnvConfig = field(default_factory=EnvConfig)
    neural: NeuralConfig = field(default_factory=NeuralConfig)
    warmup: WarmupConfig = field(default_factory=WarmupConfig)
    sustain: SustainConfig = field(default_factory=SustainConfig)
    tabular: TabularConfig = field(default_factory=TabularConfig)
    resources: ResourceModelConfig = field(default_factory=ResourceModelConfig)

    def __post_init__(self):
        check_fields(self, (
            ("agent", self.agent in AGENT_KINDS,
             f"must be one of {', '.join(AGENT_KINDS)}"),
            ("episodes", self.episodes >= 0, "must be >= 0"),
            ("pretrain_episodes", self.pretrain_episodes >= 0, "must be >= 0")))
        flows = self.env.benign_rate * self.env.dt * self.warmup.steps
        if flows > MAX_WARMUP_FLOWS:   # the one rule across sections
            raise ValueError(f"env.benign_rate times env.dt times warmup.steps must "
                             f"be at most {MAX_WARMUP_FLOWS:g} warm-up flows, "
                             f"got {flows:g}")


def default_config(agent="deepedge"):
    return ExperimentConfig(agent=agent)


# ---------------------------------------------------------------------------
# dict / JSON round-trip
# ---------------------------------------------------------------------------

def to_dict(cfg):
    out = dataclasses.asdict(cfg)
    # dataclasses.asdict already recurses; normalize tuples for JSON
    def normalize(value):
        if isinstance(value, tuple):
            return [normalize(v) for v in value]
        if isinstance(value, list):
            return [normalize(v) for v in value]
        if isinstance(value, dict):
            return {k: normalize(v) for k, v in value.items()}
        return value
    return normalize(out)


# a field annotated with one of these names is a nested section
_SECTIONS = {cls.__name__: cls for cls in (
    AgentHyperparams, EpsilonSchedule, EnvConfig, NeuralConfig, WarmupConfig,
    SustainConfig, RewardWeights, TabularConfig, ResourceModelConfig)}

_FIELD_TYPES = {
    "int": (_is_integer, "an integer"),
    "float": (is_number, "a finite number"),
    "str": (lambda value: isinstance(value, str), "a string"),
    "tuple": (lambda value: is_numbers(value, 2), "a list of two finite numbers"),
}


def _build(cls, data, path=""):
    """cls from a JSON object, its sections built the same way.

    Every rejection names its full key: path plus the field.  A typed
    field takes its own type only (a bool is not a number, and null only
    where the default is None); cls then checks the values' ranges."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path.rstrip('.') or 'config'} must be a JSON object, "
                          f"got {data!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in fields:
            raise ConfigError(f"unknown key {path}{key}")
        f = fields[key]
        if f.type in _SECTIONS:
            value = _build(_SECTIONS[f.type], value, f"{path}{key}.")
        elif cls is EnvConfig and key == "attacks":
            if not isinstance(value, list):
                raise ConfigError(f"{path}attacks must be a JSON list, got {value!r}")
            value = [_build(AttackScenario, a, f"{path}attacks[{i}].")
                     for i, a in enumerate(value)]
        elif f.type in _FIELD_TYPES and not (value is None and f.default is None):
            accepts, what = _FIELD_TYPES[f.type]
            if not accepts(value):
                raise ConfigError(f"{path}{key} must be {what}, got {value!r}")
            if f.type == "tuple":
                value = tuple(value)
        kwargs[key] = value
    for key, f in fields.items():
        if key not in kwargs and f.default is f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"missing key {path}{key}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}{exc}") from exc


def from_dict(data):
    return _build(ExperimentConfig, data)


def dumps(cfg):
    """Canonical JSON text; identical configs serialize to identical bytes."""
    return json.dumps(to_dict(cfg), indent=2, sort_keys=True) + "\n"


def save(cfg, path):
    with open(path, "w") as f:
        f.write(dumps(cfg))


def load(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return from_dict(data)


# ---------------------------------------------------------------------------
# --set key.path=value overrides
# ---------------------------------------------------------------------------

def apply_overrides(cfg, assignments):
    """Apply repeatable `--set section.key=value` assignments.

    Values parse as JSON when possible (numbers, booleans, lists) and fall
    back to bare strings.  Returns a freshly validated config.
    """
    data = to_dict(cfg)
    for assignment in assignments:
        if "=" not in assignment:
            raise ConfigError(f"override {assignment!r} is not key=value")
        key, _, raw = assignment.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = data
        parts = key.strip().split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                raise ConfigError(f"unknown config path {key!r}")
            node = node[part]
        if parts[-1] not in node:
            raise ConfigError(f"unknown config key {key!r}")
        node[parts[-1]] = value
    return from_dict(data)
