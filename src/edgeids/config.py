"""Experiment configuration: defaults, JSON round-trip, flag overrides.

One flat JSON file configures a whole run.  Every value is validated by the
owning module's constructor before anything starts, and the effective
config is snapshotted byte-identically into each run artifact so any run
can be reproduced from its own snapshot.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field

from .agent import AgentHyperparams, EpsilonSchedule
from .gateway_env import AttackScenario, EnvConfig, ResourceModelConfig
from .sustain import LedgerLimits, RewardWeights, g_per_kwh_to_g_per_joule


class ConfigError(Exception):
    """Invalid or inconsistent experiment configuration."""


AGENT_KINDS = ("deepedge", "autodrl", "tabular")


def _is_integer(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value):
    """A finite int or float: JSON's Infinity and NaN are not numbers here."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _is_number_pair(value):
    return (isinstance(value, (list, tuple)) and len(value) == 2
            and all(_is_number(v) for v in value))


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
        if min(self.ae_hidden, self.latent_dim, self.lstm_hidden,
               self.lstm_window) < 1:
            raise ConfigError("network dimensions must be positive")
        if self.ae_lr <= 0 or self.lstm_lr <= 0 or self.ae_epochs < 1:
            raise ConfigError("learning rates and epochs must be positive")
        if not self.q_hidden or not all(_is_integer(w) and w >= 1
                                        for w in self.q_hidden):
            raise ConfigError("q_hidden must list positive integer layer widths")


@dataclass
class WarmupConfig:
    steps: int = 120
    tau_percentile: float = 99.0

    def __post_init__(self):
        if self.steps < 10:
            raise ConfigError("warm-up needs at least 10 benign steps")
        if not 50.0 <= self.tau_percentile < 100.0:
            raise ConfigError("tau percentile must lie in [50, 100)")


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
        if self.kappa_g_per_kwh < 0 or self.kappa_max_g_per_kwh <= 0:
            raise ConfigError("carbon intensities must be positive")
        if self.kappa_g_per_kwh > self.kappa_max_g_per_kwh:
            raise ConfigError("kappa exceeds kappa_max")
        if self.p_max_w <= 0:
            # a ValueError, so that the loader names the full key
            raise ValueError(f"p_max_w must be positive, got {self.p_max_w!r}")
        if self.reward_window < 1:
            raise ConfigError("reward window must be positive")

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
        if self.n_updates < 1 or self.probe_every < 1:
            raise ConfigError("update counts must be positive")
        if not 0.5 < self.eta_exponent < 1.0:
            raise ConfigError("eta exponent must lie in (0.5, 1)")
        if self.episodes < 1 or self.steps_per_episode < 1:
            raise ConfigError("episode counts must be positive")


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
        if self.agent not in AGENT_KINDS:
            raise ConfigError(f"agent must be one of {AGENT_KINDS}")
        if self.episodes < 0 or self.pretrain_episodes < 0:
            raise ConfigError("episode counts must be >= 0")


def default_config(agent="deepedge"):
    return ExperimentConfig(agent=agent)


# ---------------------------------------------------------------------------
# dict / JSON round-trip
# ---------------------------------------------------------------------------

_SECTIONS = {
    "hyper": AgentHyperparams,
    "env": EnvConfig,
    "neural": NeuralConfig,
    "warmup": WarmupConfig,
    "sustain": SustainConfig,
    "tabular": TabularConfig,
    "resources": ResourceModelConfig,
}


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


_FIELD_TYPES = {
    "int": (_is_integer, "an integer"),
    "float": (_is_number, "a finite number"),
    "str": (lambda value: isinstance(value, str), "a string"),
    "tuple": (_is_number_pair, "a list of two finite numbers"),
}


def _check_types(cls, values, path):
    """Typed fields take their own type only: a bool is not a number, and
    null only where the default is None.  Absent keys are left to cls."""
    for f in dataclasses.fields(cls):
        if f.name not in values or f.type not in _FIELD_TYPES:
            continue
        value = values[f.name]
        accepts, what = _FIELD_TYPES[f.type]
        if not accepts(value) and not (value is None and f.default is None):
            raise ConfigError(f"{path}{f.name} must be {what}, got {value!r}")


def _object(data, path):
    """A config section must be a JSON object."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path.rstrip('.')} must be a JSON object, got {data!r}")
    return data


def _build(cls, data, path):
    _object(data, path)
    field_types = {f.name: f.type for f in dataclasses.fields(cls)}
    for key in data:
        if key not in field_types:
            raise ConfigError(f"unknown key {path}{key}")
    _check_types(cls, data, path)
    kwargs = {k: tuple(v) if field_types[k] == "tuple" else v for k, v in data.items()}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        if str(exc).split(" ", 1)[0] in field_types:
            # the owner's check names its field: name the full key
            raise ConfigError(f"{path}{exc}") from exc
        raise ConfigError(f"invalid section {path.rstrip('.')}: {exc}") from exc


def from_dict(data):
    data = dict(_object(data, "config"))
    kwargs = {}
    for section, cls in _SECTIONS.items():
        if section not in data:
            continue
        raw = dict(_object(data.pop(section), section))
        if section == "env" and "attacks" in raw:
            if not isinstance(raw["attacks"], list):
                raise ConfigError(
                    f"env.attacks must be a JSON list, got {raw['attacks']!r}")
            raw["attacks"] = [_build(AttackScenario, a, f"env.attacks[{i}].")
                              for i, a in enumerate(raw["attacks"])]
        if section == "hyper" and "epsilon" in raw:
            raw["epsilon"] = _build(EpsilonSchedule, raw["epsilon"], "hyper.epsilon.")
        if section == "sustain" and "weights" in raw:
            raw["weights"] = _build(RewardWeights, raw["weights"], "sustain.weights.")
        kwargs[section] = _build(cls, raw, f"{section}.")
    for key, value in data.items():
        if key not in ("agent", "seed", "episodes", "pretrain_episodes"):
            raise ConfigError(f"unknown config key {key!r}")
        kwargs[key] = value
    _check_types(ExperimentConfig, kwargs, "")
    try:
        return ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


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
