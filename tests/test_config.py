import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edgeids import cli
from edgeids import config as cfgmod
from edgeids import gateway_env as env
from edgeids import pipeline as pl
from edgeids.config import ConfigError, default_config


def test_defaults_match_stated_setup():
    cfg = default_config()
    assert cfg.hyper.buffer_capacity == 50_000
    assert cfg.hyper.batch_size == 64
    assert cfg.env.episode_len == 1000
    assert cfg.env.dt == 1.0
    assert cfg.sustain.weights.alpha == 1.0
    assert cfg.sustain.weights.zeta == 0.05


# one step's trace row: 2 of 10 benign packets dropped, and the one attack
# step the classifier judged missed
ROW = np.zeros((1, len(pl.TRACE_INTS)), dtype=np.int64)
for column, value in {"attack_active": 1, "offered_attack": 4, "dropped_attack": 1,
                      "offered_benign": 10, "dropped_benign": 2, "verdict": 0}.items():
    ROW[0, pl.TRACE_INTS.index(column)] = value
FALSE_RATES = {"deepedge": 0.2, "autodrl": 1.0}


def false_rate(pipe):
    """The false rate a pipeline's rewards read off ROW."""
    return pl.episode_rates(pipe.cfg.agent, ROW)[1]


def test_variant_follows_agent_kind():
    # the agent kind alone sets the reward's false rate and the TD
    # target's carbon weight
    for kind, weight in (("deepedge", 0.0), ("autodrl", 1.0)):
        assert false_rate(pl.DrlPipeline(default_config(kind))) == FALSE_RATES[kind]
        assert pl.carbon_weight(kind) == weight


def test_autodrl_is_one_config_whichever_way_it_is_chosen(tmp_path):
    path = tmp_path / "autodrl.json"
    path.write_text(json.dumps({"agent": "autodrl"}))
    parser = cli.make_parser()
    cfgs = [cli.build_config(parser.parse_args(["train", *flags]))
            for flags in (["--agent", "autodrl"], ["--config", str(path)],
                          ["--set", 'agent="autodrl"'])]
    for cfg in cfgs:
        assert cfgmod.dumps(cfg) == cfgmod.dumps(default_config("autodrl"))
        assert false_rate(pl.DrlPipeline(cfg)) == FALSE_RATES["autodrl"]
        assert pl.td_loss_ceiling(cfg) == pl.td_loss_ceiling(cfgs[0])


@pytest.mark.parametrize("section, key", [("hyper", "carbon_weight"),
                                          ("sustain.weights", "variant")])
def test_keys_the_agent_kind_sets_are_unknown(section, key):
    data = cfgmod.to_dict(default_config("autodrl"))
    node = data
    for part in section.split("."):
        node = node[part]
    node[key] = "autodrl" if key == "variant" else 1.0
    with pytest.raises(ConfigError, match=f"unknown key {section}.{key}$"):
        cfgmod.from_dict(data)
    with pytest.raises(ConfigError, match=f"unknown config key '{section}.{key}'"):
        cfgmod.apply_overrides(default_config("deepedge"),
                               [f'{section}.{key}="autodrl"'])


def test_round_trip_is_identity(tmp_path):
    cfg = default_config("autodrl")
    path = tmp_path / "config.json"
    cfgmod.save(cfg, path)
    loaded = cfgmod.load(path)
    assert cfgmod.dumps(loaded) == cfgmod.dumps(cfg)
    # canonical serialization: same bytes on re-save
    path2 = tmp_path / "config2.json"
    cfgmod.save(loaded, path2)
    assert path.read_text() == path2.read_text()


def test_overrides_parse_json_values():
    cfg = default_config()
    cfg = cfgmod.apply_overrides(cfg, [
        "seed=5",
        "hyper.gamma=0.8",
        "env.attacks=[]",
        "hyper.epsilon.initial=2.0",
    ])
    assert cfg.seed == 5
    assert cfg.hyper.gamma == 0.8
    assert cfg.env.attacks == []
    assert cfg.hyper.epsilon.initial == 2.0


def test_override_rejects_unknown_paths():
    cfg = default_config()
    with pytest.raises(ConfigError):
        cfgmod.apply_overrides(cfg, ["nope=1"])
    with pytest.raises(ConfigError):
        cfgmod.apply_overrides(cfg, ["hyper.nope=1"])
    with pytest.raises(ConfigError):
        cfgmod.apply_overrides(cfg, ["hyper.gamma"])


def test_validation_surfaces_module_preconditions():
    cfg = default_config()
    with pytest.raises(ConfigError):
        cfgmod.apply_overrides(cfg, ["hyper.gamma=1.5"])
    with pytest.raises(ConfigError):
        cfgmod.apply_overrides(cfg, ["env.dt=0"])
    with pytest.raises(ConfigError):
        cfgmod.apply_overrides(cfg, ["sustain.kappa_g_per_kwh=9000"])
    with pytest.raises(ConfigError):
        cfgmod.apply_overrides(cfg, ["agent=\"quantum\""])


PROBE_VALUES = [0, -1, 0.5, 1e12, float("nan"), True, "x", []]


def _scalar_leaves(node, path=""):
    """Each key of a config dict whose value is not a section or a list
    of sections."""
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _scalar_leaves(value, f"{path}{key}.")
        elif not (isinstance(value, list) and value and isinstance(value[0], dict)):
            yield f"{path}{key}"


@pytest.mark.parametrize("agent", ["deepedge", "autodrl"])
def test_every_load_rejection_names_its_full_key(agent):
    cfg = default_config(agent)
    for key in _scalar_leaves(cfgmod.to_dict(cfg)):
        section, _, name = key.rpartition(".")
        for value in PROBE_VALUES:
            try:
                cfgmod.apply_overrides(cfg, [f"{key}={json.dumps(value)}"])
            except ConfigError as exc:
                blamed = str(exc).split(" ", 1)[0]
                # a cross-field rule blames a sibling and names this field
                assert blamed == key or (
                    blamed.rpartition(".")[0] == section
                    and re.search(rf"\b{name}\b", str(exc))), (key, value, str(exc))


@pytest.mark.parametrize("section, kwargs, message", [
    (cfgmod.NeuralConfig, {"ae_epochs": 0}, "ae_epochs must be >= 1, got 0"),
    (cfgmod.WarmupConfig, {"steps": 9}, "steps must be >= 10, got 9"),
    (cfgmod.SustainConfig, {"kappa_g_per_kwh": 600.0},
     "kappa_g_per_kwh must be at most kappa_max_g_per_kwh (500), got 600.0"),
    (cfgmod.TabularConfig, {"eta_exponent": 0.5},
     "eta_exponent must lie in (0.5, 1), got 0.5"),
    (cfgmod.ExperimentConfig, {"episodes": -1}, "episodes must be >= 0, got -1"),
])
def test_sections_reject_a_value_naming_its_field(section, kwargs, message):
    with pytest.raises(ValueError) as exc:
        section(**kwargs)
    assert str(exc.value) == message


def test_flows_per_step_bound_is_inclusive():
    # ten warm-up steps at the bound stay within the warm-up's own bound
    cfg = cfgmod.apply_overrides(default_config(), ["env.benign_rate=50000",
                                                    "env.dt=2", "warmup.steps=10"])
    assert cfg.env.benign_rate * cfg.env.dt == env.MAX_FLOWS_PER_STEP


def test_warmup_flows_bound_is_inclusive():
    cfg = cfgmod.apply_overrides(default_config(), ["env.benign_rate=10000",
                                                    "warmup.steps=100"])
    assert (cfg.env.benign_rate * cfg.env.dt * cfg.warmup.steps
            == env.MAX_WARMUP_FLOWS)


def test_from_dict_rejects_unknown_keys():
    data = cfgmod.to_dict(default_config())
    data["mystery"] = 1
    with pytest.raises(ConfigError, match="^unknown key mystery$"):
        cfgmod.from_dict(data)


def test_attack_list_round_trip():
    cfg = default_config()
    data = json.loads(cfgmod.dumps(cfg))
    assert data["env"]["attacks"][0]["kind"] == "syn_flood"
    rebuilt = cfgmod.from_dict(data)
    assert rebuilt.env.attacks[0].intensity == cfg.env.attacks[0].intensity


def test_load_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        cfgmod.load(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        cfgmod.load(bad)
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="config must be a JSON object"):
        cfgmod.load(listed)


def _positive_float_paths(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _positive_float_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _positive_float_paths(value, path + (i,))
    elif isinstance(node, float) and node > 0:
        yield path


@st.composite
def valid_configs(draw):
    """A default config with every positive float moved to an arbitrary
    value within 10% below it (inside every field's valid range), and a
    drawn seed, episode count, energy cap and schedule path."""
    data = cfgmod.to_dict(default_config(draw(st.sampled_from(cfgmod.AGENT_KINDS))))
    for path in list(_positive_float_paths(data)):
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = draw(st.floats(0.9 * node[path[-1]], node[path[-1]]))
    data["seed"] = draw(st.integers(0, 2 ** 32 - 1))
    data["episodes"] = draw(st.integers(0, 50))
    data["sustain"]["e_max_j"] = draw(st.none() | st.floats(1.0, 1e9))
    data["sustain"]["kappa_schedule_file"] = draw(
        st.none() | st.text(st.characters(codec="utf-8"), min_size=1, max_size=12))
    return cfgmod.from_dict(data)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(valid_configs())
def test_to_dict_from_dict_round_trips_exactly(cfg):
    assert cfgmod.from_dict(cfgmod.to_dict(cfg)) == cfg
    # the snapshot path: canonical JSON text and back
    assert cfgmod.from_dict(json.loads(cfgmod.dumps(cfg))) == cfg
