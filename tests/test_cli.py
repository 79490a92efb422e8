import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from edgeids import cli, neural
from edgeids import pipeline as pl

QUICK_TRAIN = [
    "--quiet", "--episodes", "2",
    "--set", "env.episode_len=300",
    "--set", 'env.attacks=[{"kind":"syn_flood","intensity":5000,'
             '"start_step":50,"end_step":250,"n_sources":20}]',
    "--set", "warmup.steps=50",
    "--set", "neural.ae_epochs=40",
]


@pytest.fixture(scope="module")
def train_artifact(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "train"
    code = cli.main(["train", "--agent", "deepedge", "--seed", "11",
                     "--out", str(out), *QUICK_TRAIN])
    assert code == cli.EXIT_OK
    return out


def test_train_artifact_is_self_describing(train_artifact):
    expected = {"config.json", "checkpoint.txt", "detector.json",
                "episodes.csv", "trace.csv", "ledger.csv", "report.json",
                "run.log"}
    assert expected <= {p.name for p in train_artifact.iterdir()}
    report = json.loads((train_artifact / "report.json").read_text())
    assert report["agent"] == "deepedge"
    assert report["bound_violations"] == 0
    assert report["q_updates"] > 0
    assert report["td_loss_over_bound_episodes"] == []
    assert report["constant_verdict_episodes"] == []
    assert "WARNING" not in (train_artifact / "run.log").read_text()


def test_train_trace_joins_the_episodes(train_artifact):
    # QUICK_TRAIN: two episodes of 300 steps; a trace starts at step 1, the
    # ledger at step 0, episode k's ledger steps offset by k * 300
    with open(train_artifact / "trace.csv", newline="") as f:
        rows = list(csv.reader(f))[1:]
    assert [(int(r[0]), int(r[1])) for r in rows] == \
        [(episode, step) for episode in (0, 1) for step in range(1, 300)]
    with open(train_artifact / "ledger.csv", newline="") as f:
        steps = [int(r[0]) for r in list(csv.reader(f))[1:]]
    assert steps == list(range(600))


def test_log_lines_follow_operational_format(train_artifact):
    pattern = re.compile(
        r"^\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2} - "
        r"(INFO|WARNING|CRITICAL|SUCCESS|POLICY): .+")
    lines = (train_artifact / "run.log").read_text().strip().splitlines()
    assert lines
    assert all(pattern.match(line) for line in lines)
    assert any(re.search(r"- POLICY: Episode \d+: .*, TD loss [0-9.e+-]+$", line)
               for line in lines)
    assert any("- SUCCESS:" in line for line in lines)


def test_reproducibility_bit_identical_artifacts(tmp_path):
    args = ["train", "--agent", "deepedge", "--seed", "23", *QUICK_TRAIN]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out", str(out_a)]) == cli.EXIT_OK
    assert cli.main(args + ["--out", str(out_b)]) == cli.EXIT_OK
    for name in ("config.json", "episodes.csv", "trace.csv", "ledger.csv",
                 "checkpoint.txt", "report.json", "detector.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_rerun_from_snapshot_reproduces(train_artifact, tmp_path):
    out = tmp_path / "replay"
    code = cli.main(["train", "--config", str(train_artifact / "config.json"),
                     "--out", str(out), "--quiet"])
    assert code == cli.EXIT_OK
    assert (out / "episodes.csv").read_bytes() == \
        (train_artifact / "episodes.csv").read_bytes()


def test_evaluate_from_checkpoint(train_artifact, tmp_path):
    out = tmp_path / "eval"
    code = cli.main(["evaluate", "--checkpoint", str(train_artifact),
                     "--seed", "77", "--out", str(out), "--quiet"])
    assert code == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["detection_probability"] is not None
    assert 0.0 <= report["detection_probability"] <= 1.0
    assert report["bound_violations"] == 0
    assert (out / "ledger.csv").exists()
    assert (out / "trace.csv").exists()


def test_evaluate_benign_only_scenario(train_artifact, tmp_path):
    out = tmp_path / "eval-benign"
    code = cli.main(["evaluate", "--checkpoint", str(train_artifact),
                     "--seed", "78", "--out", str(out), "--quiet",
                     "--set", "env.attacks=[]"])
    assert code == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["detection_probability"] is None
    assert report["missed_packets_per_hour"] is None
    metrics = report["step_metrics"]
    assert metrics["accuracy"] is not None


def test_evaluate_mismatched_architecture_names_layer(train_artifact, tmp_path, capsys):
    out = tmp_path / "eval-mismatch"
    code = cli.main(["evaluate", "--checkpoint", str(train_artifact),
                     "--out", str(out), "--quiet",
                     "--set", "neural.latent_dim=4"])
    assert code == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "q_network layer 0" in err


@pytest.fixture(scope="module")
def autodrl_artifact(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "train-autodrl"
    code = cli.main(["train", "--agent", "autodrl", "--seed", "11",
                     "--out", str(out), "--quiet", "--episodes", "1",
                     "--set", "env.episode_len=100", "--set", "warmup.steps=50",
                     "--set", "pretrain_episodes=1"])
    assert code == cli.EXIT_OK
    return out


def test_evaluate_classifier_of_another_window_names_the_key(autodrl_artifact,
                                                             tmp_path, capsys):
    out = tmp_path / "eval"
    code = cli.main(["evaluate", "--checkpoint", str(autodrl_artifact),
                     "--out", str(out), "--quiet", "--set", "neural.lstm_window=3"])
    assert code == cli.EXIT_RUNTIME
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("runtime error:"), err
    assert "neural.lstm_window=3" in err[0] and "8-step" in err[0], err
    assert not out.exists()
    # at the window it was trained on, the same checkpoint evaluates
    code = cli.main(["evaluate", "--checkpoint", str(autodrl_artifact),
                     "--out", str(tmp_path / "ok"), "--quiet"])
    assert code == cli.EXIT_OK


def test_evaluate_refuses_a_checkpoint_of_the_other_agent_kind(autodrl_artifact,
                                                               tmp_path, capsys):
    # deepedge's Q-network input (4 + latent_dim) is as wide as autodrl's
    # (4 + lstm_hidden), so only the classifier tells the two apart
    out = tmp_path / "eval"
    code = cli.main(["evaluate", "--checkpoint", str(autodrl_artifact),
                     "--out", str(out), "--quiet", "--set", 'agent="deepedge"'])
    assert code == cli.EXIT_RUNTIME
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("runtime error:"), err
    assert "'deepedge'" in err[0] and "classifier" in err[0], err
    assert not out.exists()


def test_evaluate_accepts_the_checkpoint_file(train_artifact, tmp_path):
    outs = [tmp_path / "by-dir", tmp_path / "by-file"]
    for ckpt, out in zip([train_artifact, train_artifact / "checkpoint.txt"], outs):
        code = cli.main(["evaluate", "--checkpoint", str(ckpt), "--seed", "77",
                         "--out", str(out), "--quiet"])
        assert code == cli.EXIT_OK
    for name in ("trace.csv", "ledger.csv", "report.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.mark.parametrize("path", ["config.json", "absent/checkpoint.txt"])
def test_evaluate_other_checkpoint_paths_are_one_runtime_line(
        train_artifact, tmp_path, capsys, path):
    out = tmp_path / "eval"
    code = cli.main(["evaluate", "--checkpoint", str(train_artifact / path),
                     "--out", str(out), "--quiet"])
    assert code == cli.EXIT_RUNTIME
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("runtime error:"), err
    assert "checkpoint.txt" in err[0]
    assert not out.exists()


def artifact_with_checkpoint(train_artifact, tmp_path, text):
    """A copy of the train artifact whose checkpoint.txt holds ``text``."""
    broken = tmp_path / "broken"
    broken.mkdir()
    for name in ("config.json", "detector.json"):
        (broken / name).write_bytes((train_artifact / name).read_bytes())
    (broken / "checkpoint.txt").write_text(text)
    return broken


def test_detector_of_another_normalizer_kind_is_one_runtime_line(
        train_artifact, tmp_path, capsys):
    broken = artifact_with_checkpoint(
        train_artifact, tmp_path, (train_artifact / "checkpoint.txt").read_text())
    detector = json.loads((broken / "detector.json").read_text())
    assert detector["kind"] == "minmax"
    detector["kind"] = "zscore"
    (broken / "detector.json").write_text(json.dumps(detector))
    out = tmp_path / "o"
    code = cli.main(["evaluate", "--checkpoint", str(broken), "--out", str(out),
                     "--quiet"])
    assert code == cli.EXIT_RUNTIME
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("runtime error:"), err
    assert "'zscore'" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("key, value, named", [
    ("tau_step", float("nan"), "'tau_step' must be a finite number, got nan"),
    ("scale", [0.0] * 8, "'scale' must be a list of 8 finite numbers above 0"),
    ("low", [0.0, 0.0, 0.0], "'low' must be a list of 8 finite numbers"),
    ("low", None, "key 'low' is missing"),
], ids=["nan_tau_step", "zero_scale", "short_low", "missing_low"])
def test_corrupt_detector_json_is_one_runtime_line(train_artifact, tmp_path, capsys,
                                                   key, value, named):
    broken = artifact_with_checkpoint(
        train_artifact, tmp_path, (train_artifact / "checkpoint.txt").read_text())
    detector = json.loads((broken / "detector.json").read_text())
    if value is None:
        del detector[key]
    else:
        detector[key] = value
    (broken / "detector.json").write_text(json.dumps(detector))
    out = tmp_path / "o"
    code = cli.main(["evaluate", "--checkpoint", str(broken), "--out", str(out),
                     "--quiet"])
    assert code == cli.EXIT_RUNTIME
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("runtime error: detector.json: "), err
    assert named in err[0], err
    assert not out.exists()


def test_corrupt_checkpoint_is_explicit(train_artifact, tmp_path, capsys):
    text = (train_artifact / "checkpoint.txt").read_text()
    broken = artifact_with_checkpoint(train_artifact, tmp_path, text[: len(text) // 2])
    code = cli.main(["evaluate", "--checkpoint", str(broken),
                     "--out", str(tmp_path / "o"), "--quiet"])
    assert code == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    # explicit corruption diagnostics, never a silent or partial load
    assert "truncated checkpoint" in err or "expects" in err


def test_compare_between_runs(train_artifact, tmp_path):
    other = tmp_path / "other"
    assert cli.main(["train", "--agent", "deepedge", "--seed", "12",
                     "--out", str(other), *QUICK_TRAIN]) == cli.EXIT_OK
    out = tmp_path / "cmp"
    code = cli.main(["compare", "--run-a", str(train_artifact),
                     "--run-b", str(other),
                     "--metrics", "reward,energy,carbon,cpu",
                     "--out", str(out), "--quiet"])
    assert code == cli.EXIT_OK
    payload = json.loads((out / "comparison.json").read_text())
    assert set(payload) == {"reward", "energy", "carbon", "cpu"}
    text = (out / "comparison.txt").read_text()
    assert "Source" in text and "Degrees of Freedom" in text
    assert text.count("Between Groups") == 4


def assert_metrics_rejected(train_artifact, tmp_path, capsys, metrics):
    out = tmp_path / "cmp2"
    code = cli.main(["compare", "--run-a", str(train_artifact),
                     "--run-b", str(train_artifact),
                     "--metrics", metrics, "--out", str(out), "--quiet"])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: --metrics"), err
    assert "reward, detection, false_rate, energy, carbon, cpu" in err[0]
    assert not out.exists()


def test_compare_missing_metric_fails(train_artifact, tmp_path, capsys):
    assert_metrics_rejected(train_artifact, tmp_path, capsys, "nonexistent")


@pytest.mark.parametrize("metrics", ["reward,bogus", ","])
def test_compare_bad_metric_list_fails(train_artifact, tmp_path, capsys, metrics):
    assert_metrics_rejected(train_artifact, tmp_path, capsys, metrics)


def test_compare_metric_missing_from_a_run_is_one_runtime_line(tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    (run / "episodes.csv").write_text("episode,reward_total\n0,1.0\n1,2.0\n")
    code = cli.main(["compare", "--run-a", str(run), "--run-b", str(run),
                     "--metrics", "reward,energy", "--out", str(tmp_path / "cmp"),
                     "--quiet"])
    assert code == cli.EXIT_RUNTIME
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"runtime error: metric 'energy' not available in {run}"]


@pytest.mark.parametrize("row, column, found", [
    ("1,2.0", "energy_j", "is missing"),
    ("1,two,3.0", "reward_total", "holds 'two'"),
    ("1,nan,3.0", "reward_total", "holds 'nan'"),
    ("1,2.0,inf", "energy_j", "holds 'inf'"),
], ids=["short_row", "non_numeric", "nan", "inf"])
def test_compare_bad_episode_cell_is_one_runtime_line(tmp_path, capsys, row, column,
                                                      found):
    run = tmp_path / "run"
    run.mkdir()
    (run / "episodes.csv").write_text(
        f"episode,reward_total,energy_j\n0,1.0,2.0\n{row}\n")
    out = tmp_path / "cmp"
    code = cli.main(["compare", "--run-a", str(run), "--run-b", str(run),
                     "--metrics", "reward,energy", "--out", str(out), "--quiet"])
    assert code == cli.EXIT_RUNTIME
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"runtime error: {run / 'episodes.csv'}, line 3: column "
                   f"{column!r} {found}, expected a finite number"]
    assert not out.exists()


def test_sweep_tabular(tmp_path):
    out = tmp_path / "sweep"
    code = cli.main(["sweep", "--agent", "tabular",
                     "--epsilon", "0.5,1.0,2.0", "--seeds", "0,1,2",
                     "--out", str(out), "--quiet",
                     "--set", "tabular.episodes=25"])
    assert code == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["ranking_best_first"] == [0.5, 1.0, 2.0]
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "epsilon,episode,reward_mean,reward_std"
    assert len(lines) == 1 + 3 * 25


@pytest.mark.parametrize("flags, named", [
    (["--epsilon", "nan,1"], "--epsilon value 'nan'"),
    (["--epsilon", "inf,1"], "--epsilon value 'inf'"),
    (["--epsilon=-1,1"], "--epsilon value '-1'"),
    (["--seeds", ""], "--seeds value ''"),
    (["--seeds", "0,1"], "--seeds needs at least 3 values"),
    (["--epsilon", "1"], "--epsilon needs at least 2 values"),
])
def test_sweep_rejects_bad_values_naming_the_flag(tmp_path, capsys, flags, named):
    out = tmp_path / "sweep"
    code = cli.main(["sweep", "--agent", "tabular", "--out", str(out), "--quiet",
                     *flags])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err
    assert named in err[0]
    assert not out.exists()


@pytest.mark.parametrize("argv, named", [
    (["train", "--bogus"], "unrecognized arguments: --bogus"),
    (["train", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
    (["evaluate"], "required: --checkpoint"),
    # evaluate replays the checkpoint's own agent and a single rollout
    (["evaluate", "--checkpoint", "{ckpt}", "--agent", "autodrl"],
     "unrecognized arguments: --agent autodrl"),
    (["evaluate", "--checkpoint", "{ckpt}", "--episodes", "7"],
     "unrecognized arguments: --episodes 7"),
    (["evaluate", "--checkpoint", "{ckpt}", "--epsilon", "3"],
     "unrecognized arguments: --epsilon 3"),
    # a bad packet rate fails before the rollout runs
    *((["evaluate", "--checkpoint", "{ckpt}", f"--pps={pps}"],
      f"argument --pps: must be a finite number above 0, got '{pps}'")
      for pps in ("0", "-5", "nan", "inf")),
])
def test_bad_flags_are_one_config_error(train_artifact, tmp_path, capsys, argv, named):
    out = tmp_path / "out"
    argv = [arg.format(ckpt=train_artifact) for arg in argv]
    code = cli.main([*argv, "--out", str(out), "--quiet"])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err
    assert named in err[0]
    assert not out.exists()


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--help"])
    assert exc.value.code == 0
    assert "--epsilon" in capsys.readouterr().out


def test_write_json_refuses_non_finite_floats(tmp_path):
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            cli.write_json(tmp_path / "r.json", {"auc": {"x": bad}})
    assert not (tmp_path / "r.json").exists()


def test_zero_episode_boundary(tmp_path):
    out = tmp_path / "zero"
    code = cli.main(["train", "--agent", "deepedge", "--episodes", "0",
                     "--out", str(out), "--quiet"])
    assert code == cli.EXIT_OK
    assert not (out / "checkpoint.txt").exists()
    assert (out / "episodes.csv").read_text().strip() == ",".join(
        __import__("edgeids.pipeline", fromlist=["EPISODE_COLUMNS"]).EPISODE_COLUMNS)
    assert (out / "trace.csv").read_text().strip() == ",".join(pl.TRACE_COLUMNS)


def test_one_step_episodes_trace_no_step_and_ledger_one(tmp_path):
    # a trace starts at step 1, the ledger at step 0
    train, evaluate = tmp_path / "train", tmp_path / "eval"
    code = cli.main(["train", "--agent", "deepedge", "--seed", "3", "--episodes", "1",
                     "--out", str(train), "--quiet", "--set", "env.episode_len=1",
                     "--set", "warmup.steps=50", "--set", "neural.ae_epochs=5"])
    assert code == cli.EXIT_OK
    code = cli.main(["evaluate", "--checkpoint", str(train), "--out", str(evaluate),
                     "--quiet"])
    assert code == cli.EXIT_OK
    for out in (train, evaluate):
        assert (out / "trace.csv").read_text().splitlines() == \
            [",".join(pl.TRACE_COLUMNS)]
        header, row = (out / "ledger.csv").read_text().splitlines()
        assert header == "step,P_w,dt_s,E_j,M_ratio,C_g"
        assert row.startswith("0,")
        assert json.loads((out / "report.json").read_text())["bound_violations"] == 0


def test_config_error_exit_code(tmp_path, capsys):
    code = cli.main(["train", "--set", "hyper.gamma=2.0",
                     "--out", str(tmp_path / "x"), "--quiet"])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("assignment, key", [
    ("env.attacks=5", "env.attacks"),
    ("env.attacks=[5]", "env.attacks"),
    ("sustain.weights=5", "sustain.weights"),
    ("hyper.epsilon=5", "hyper.epsilon"),
    ("sustain.kappa_schedule_file=[1]", "sustain.kappa_schedule_file"),
    ("env=5", "env"),
    ('env.attacks=[{"kind":"syn_flood","intensity":5000,"start_step":50,'
     '"end_step":250,"size_range":5}]', "env.attacks[0].size_range"),
    ('sustain.e_max_j="x"', "sustain.e_max_j"),
    ('sustain.p_max_w="x"', "sustain.p_max_w"),
    ('sustain.m_max="x"', "sustain.m_max"),
    ('resources.cpu_base="x"', "resources.cpu_base"),
    ('env.attacks=[{"kind":"syn_flood","intensity":5000}]',
     "missing key env.attacks[0].start_step"),
])
def test_config_section_of_wrong_type_names_the_key(tmp_path, capsys,
                                                    assignment, key):
    code = cli.main(["train", "--episodes", "0", "--quiet",
                     "--out", str(tmp_path / "x"), "--set", assignment])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err
    assert key in err[0]


@pytest.mark.parametrize("assignment, key", [
    ("sustain.p_max_w=Infinity", "sustain.p_max_w"),
    ("sustain.e_max_j=-Infinity", "sustain.e_max_j"),
    ("hyper.gamma=NaN", "hyper.gamma"),
    ("env.benign_rate=NaN", "env.benign_rate"),
    ('env.attacks=[{"kind":"syn_flood","intensity":Infinity,"start_step":50,'
     '"end_step":250}]', "env.attacks[0].intensity"),
    ('env.attacks=[{"kind":"zero_day_mix","intensity":5000,"start_step":50,'
     '"end_step":250,"jitter_range":[0,NaN]}]', "env.attacks[0].jitter_range"),
])
def test_non_finite_floats_are_one_config_error(tmp_path, capsys, assignment, key):
    out = tmp_path / "x"
    code = cli.main(["train", "--episodes", "0", "--quiet",
                     "--out", str(out), "--set", assignment])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err
    assert key in err[0] and "finite" in err[0]
    assert not (out / "config.json").exists()


@pytest.mark.parametrize("assignment, key", [
    ("env.tau_p=1.5", "env.tau_p"),
    ("env.tau_p=0", "env.tau_p"),
    ("env.rate_cap_pps=0", "env.rate_cap_pps"),
    ("env.syn_cap_pps=-1", "env.syn_cap_pps"),
    ("hyper.batch_size=0", "hyper.batch_size"),
    ("hyper.buffer_capacity=0", "hyper.buffer_capacity"),
    # smaller than the default batch of 64: no minibatch would ever fill
    ("hyper.buffer_capacity=10", "hyper.buffer_capacity"),
    ("resources.mem_total=0", "resources.mem_total"),
    ("resources.p_max=-1", "resources.p_max"),
    ("sustain.p_max_w=0", "sustain.p_max_w"),
    # each of these loaded and then failed, or ran with every step flagged
    # as a bound violation
    ("resources.power_idle_w=-1", "resources.power_idle_w"),
    ("resources.power_per_cpu=-1", "resources.power_per_cpu"),
    ("sustain.m_max=-1", "sustain.m_max"),
    ("sustain.e_max_j=-1", "sustain.e_max_j"),
    ("env.blacklist_expiry=-5", "env.blacklist_expiry"),
    *((f'env.attacks=[{{"kind":"zero_day_mix","intensity":5000,"start_step":50,'
       f'"end_step":250,"{name}":0}}]', f"env.attacks[0].{name}")
      for name in ("n_sources", "protocol_period", "rotation_every")),
])
def test_out_of_range_env_values_fail_at_load(tmp_path, capsys, assignment, key):
    out = tmp_path / "x"
    code = cli.main(["train", "--episodes", "2", "--quiet", "--out", str(out),
                     "--set", "env.episode_len=400", "--set", assignment])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err
    assert key in err[0]
    # rejected before warm-up: nothing is written
    assert not out.exists()


@pytest.mark.parametrize("assignment, named", [
    ("env.benign_rate=1e12", "env.benign_rate"),
    ("env.dt=1e12", "env.benign_rate times dt (1e+12 s)"),
    # just over the bound of 1e5 benign flows per step
    ("env.benign_rate=100001", "env.benign_rate"),
    ("env.dt=2001", "env.benign_rate times dt (2001 s)"),
])
def test_flows_per_step_are_bounded_at_load(tmp_path, capsys, monkeypatch,
                                            assignment, named):
    # a run past load would draw traffic at this rate: stop it before it
    # builds a pipeline, so that no check here ever allocates the flows
    def loaded(cfg):
        raise RuntimeError("the config loaded")
    monkeypatch.setattr(cli.pl, "DrlPipeline", loaded)
    out = tmp_path / "x"
    code = cli.main(["train", "--quiet", "--out", str(out), "--set", assignment])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err
    assert named in err[0]
    assert not out.exists()


@pytest.mark.parametrize("assignments", [
    # just over the bound of 1e6 warm-up flows, at the default 120 steps
    ["env.benign_rate=8334"],
    ["env.dt=167"],
    ["warmup.steps=20001"],
    # within the flows-per-step bound, at its fewest warm-up steps
    ["env.benign_rate=100000", "warmup.steps=11"],
])
def test_warmup_flows_are_bounded_at_load(tmp_path, capsys, monkeypatch,
                                          assignments):
    # a run past load would draw the warm-up: stop it before it builds a
    # pipeline, as test_flows_per_step_are_bounded_at_load does
    def loaded(cfg):
        raise RuntimeError("the config loaded")
    monkeypatch.setattr(cli.pl, "DrlPipeline", loaded)
    out = tmp_path / "x"
    code = cli.main(["train", "--quiet", "--out", str(out),
                     *(arg for a in assignments for arg in ("--set", a))])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err
    assert "env.benign_rate" in err[0] and "warmup.steps" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("assignment", [
    "seed=1.5",
    "episodes=true",
    "pretrain_episodes=2.0",
    "env.episode_len=2.5",
    'env.attacks=[{"kind":"syn_flood","intensity":5000,'
    '"start_step":50.5,"end_step":250}]',
    "warmup.steps=1e2",
    "neural.ae_epochs=false",
    "neural.q_hidden=[32.5]",
    'hyper.batch_size="64"',
    "sustain.reward_window=null",
    "tabular.n_updates=5000.0",
    "resources.mem_total=1e9",
])
def test_integer_fields_reject_non_integers(tmp_path, capsys, assignment):
    code = cli.main(["train", "--episodes", "0", "--quiet",
                     "--out", str(tmp_path / "x"), "--set", assignment])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error:") and "integer" in err[0]


def test_unwritable_out_dir_is_a_runtime_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    code = cli.main(["train", "--episodes", "0", "--quiet",
                     "--out", str(blocker / "run")])
    assert code == cli.EXIT_RUNTIME
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("runtime error:")


def test_diverged_warmup_is_a_runtime_error(tmp_path, capsys):
    out = tmp_path / "run"
    code = cli.main(["train", "--quiet", "--out", str(out),
                     "--set", "neural.ae_lr=1e6", "--set", "neural.ae_epochs=5",
                     "--set", "env.episode_len=100", "--set", "episodes=1"])
    assert code == cli.EXIT_RUNTIME
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("runtime error:")
    assert not (out / "detector.json").exists()
    assert not (out / "checkpoint.txt").exists()


def test_unexpected_exception_is_one_runtime_line(tmp_path, capsys, monkeypatch):
    def broken(args):
        return 1 / 0
    monkeypatch.setitem(cli.COMMANDS, "train", broken)
    code = cli.main(["train", "--quiet", "--out", str(tmp_path / "x")])
    assert code == cli.EXIT_RUNTIME
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["runtime error: ZeroDivisionError: division by zero"]


def test_warmup_without_traffic_names_the_settings(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "edgeids.cli", "train", "--quiet",
         "--out", str(tmp_path / "run"), "--set", "env.benign_rate=0"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120)
    assert proc.returncode == cli.EXIT_RUNTIME
    err = proc.stderr.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("runtime error:"), proc.stderr
    assert "env.benign_rate" in err[0] and "warmup.steps" in err[0]


@pytest.mark.parametrize("agent", ["deepedge", "autodrl"])
def test_train_failed_in_warmup_keeps_its_config_and_log(tmp_path, capsys, agent):
    # the README's rule: an exit-2 train keeps config.json and run.log, and
    # run.log holds the error line; nothing trained is written
    out = tmp_path / "run"
    code = cli.main(["train", "--agent", agent, "--quiet", "--out", str(out),
                     "--set", "env.benign_rate=0"])
    assert code == cli.EXIT_RUNTIME
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("runtime error:"), err
    assert sorted(p.name for p in out.iterdir()) == ["config.json", "run.log"]
    assert json.loads((out / "config.json").read_text())["env"]["benign_rate"] == 0
    message = err[0].removeprefix("runtime error: ")
    assert re.search(r"- CRITICAL: Warm-up failed: " + re.escape(message),
                     (out / "run.log").read_text())


@pytest.mark.parametrize("command", [
    ["train"],
    ["sweep", "--epsilon", "1.0,2.0", "--seeds", "0,1,2"],
    # the autoencoder diverges in the forked child, which prints nothing
    ["train", "--agent", "autodrl"],
])
def test_diverged_warmup_prints_one_line_and_logs_critical(tmp_path, command):
    # a subprocess, because pytest captures numpy's RuntimeWarnings away
    # from capsys
    out = tmp_path / "run"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "edgeids.cli", *command, "--quiet", "--out", str(out),
         "--set", "neural.ae_lr=1e6", "--set", "neural.ae_epochs=5",
         "--set", "env.episode_len=100", "--set", "episodes=1"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120)
    assert proc.returncode == cli.EXIT_RUNTIME
    err = proc.stderr.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("runtime error:"), proc.stderr
    assert "Warning" not in proc.stderr
    log = (out / "run.log").read_text()
    assert re.search(r"- CRITICAL: .*diverged", log)


@pytest.mark.parametrize("overrides, check", [
    pytest.param(["hyper.lr=1e12"], "non-finite TD loss",
                 id="1e12-non-finite TD loss"),
    # acting greedily from the start, the first update leaves weights whose
    # next Q forward overflows: select_action fails before any TD loss does
    pytest.param(["hyper.lr=1e110", "hyper.epsilon.initial=0"],
                 "non-finite Q values", id="1e110-non-finite Q values"),
])
def test_diverged_dqn_prints_one_line_and_logs_critical(tmp_path, overrides, check):
    # a subprocess, as above
    out = tmp_path / "run"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    sets = [arg for o in overrides for arg in ("--set", o)]
    proc = subprocess.run(
        [sys.executable, "-m", "edgeids.cli", "train", "--quiet", "--out", str(out),
         *sets, "--set", "env.episode_len=300", "--set", "episodes=1"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120)
    assert proc.returncode == cli.EXIT_RUNTIME
    err = proc.stderr.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("runtime error:"), proc.stderr
    assert check in err[0] and "hyper.lr" in err[0]
    log = (out / "run.log").read_text()
    assert re.search(r"- CRITICAL: Training failed: .*diverged", log)
    assert not (out / "checkpoint.txt").exists()


def test_checkpoint_without_autoencoder_names_the_model(train_artifact, tmp_path,
                                                        capsys):
    lines = (train_artifact / "checkpoint.txt").read_text().splitlines(True)
    start = lines.index("model autoencoder autoencoder\n")
    end = next(i for i in range(start + 1, len(lines))
               if lines[i].startswith("model "))
    broken = artifact_with_checkpoint(train_artifact, tmp_path,
                                      "".join(lines[:start] + lines[end:]))
    code = cli.main(["evaluate", "--checkpoint", str(broken),
                     "--out", str(tmp_path / "o"), "--quiet"])
    assert code == cli.EXIT_RUNTIME
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["runtime error: checkpoint lacks model 'autoencoder'"]
    assert not (tmp_path / "o").exists()


def test_checkpoint_with_nan_classifier_head_is_one_line(train_artifact, tmp_path,
                                                         capsys):
    # the classifier block an autodrl run writes, with a NaN head bias
    clf_path = tmp_path / "clf.txt"
    neural.save_checkpoint(
        {"classifier": neural.lstm_classifier_init(8, 4, 8, np.random.default_rng(0))},
        clf_path)
    block = clf_path.read_text().splitlines(True)[1:-1]
    block[-1] = "head_b nan\n"
    lines = (train_artifact / "checkpoint.txt").read_text().splitlines(True)
    broken = artifact_with_checkpoint(train_artifact, tmp_path,
                                      "".join(lines[:-1] + block + lines[-1:]))
    out = tmp_path / "o"
    code = cli.main(["evaluate", "--checkpoint", str(broken), "--out", str(out),
                     "--quiet"])
    assert code == cli.EXIT_RUNTIME
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["runtime error: model 'classifier': non-finite classifier head"]
    assert not out.exists()


@pytest.mark.parametrize("kappa", ["nan", "inf", "-0.0002"])
def test_bad_kappa_schedule_fails_before_warmup(tmp_path, capsys, kappa):
    schedule = tmp_path / "k.csv"
    schedule.write_text(f"step,kappa_g_per_joule\n0,0.0001\n50,{kappa}\n")
    out = tmp_path / "run"
    code = cli.main(["train", "--quiet", "--out", str(out),
                     "--set", f"sustain.kappa_schedule_file={json.dumps(str(schedule))}",
                     "--set", "env.episode_len=100", "--set", "episodes=1"])
    assert code == cli.EXIT_RUNTIME
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("runtime error:")
    assert f"{schedule}, line 3" in err[0]
    assert not (out / "checkpoint.txt").exists()
    assert not (out / "detector.json").exists()
    assert not out.exists()


def test_bad_kappa_schedule_fails_sweep_before_its_directory(tmp_path, capsys):
    schedule = tmp_path / "k.csv"
    schedule.write_text("step,kappa_g_per_joule\n0,0.0001\n50,nan\n")
    out = tmp_path / "sweep"
    code = cli.main(["sweep", "--quiet", "--out", str(out), "--epsilon", "0.5,1.0",
                     "--set", f"sustain.kappa_schedule_file={json.dumps(str(schedule))}",
                     "--set", "env.episode_len=100", "--set", "episodes=1"])
    assert code == cli.EXIT_RUNTIME
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and f"{schedule}, line 3" in err[0]
    assert not out.exists()


def test_bad_kappa_schedule_fails_evaluate(train_artifact, tmp_path, capsys):
    schedule = tmp_path / "k.csv"
    schedule.write_text("step,kappa_g_per_joule\n0,0.0001\n50,nan\n")
    out = tmp_path / "eval"
    code = cli.main(["evaluate", "--checkpoint", str(train_artifact), "--out", str(out),
                     "--quiet", "--set",
                     f"sustain.kappa_schedule_file={json.dumps(str(schedule))}"])
    assert code == cli.EXIT_RUNTIME
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and f"{schedule}, line 3" in err[0]
    assert not out.exists()


def test_blown_up_but_finite_dqn_warns_and_is_reported(tmp_path):
    # at seed 0 this learning rate drives td_loss_mean to ~1e236 without
    # overflowing, so the run still finishes
    out = tmp_path / "run"
    code = cli.main(["train", "--quiet", "--seed", "0", "--out", str(out),
                     "--set", "hyper.lr=1e3", "--set", "env.episode_len=300",
                     "--set", "episodes=1"])
    assert code == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["td_loss_over_bound_episodes"] == [0]
    log = (out / "run.log").read_text()
    assert re.search(r"- WARNING: TD loss above its bound .* episodes \[0\].*hyper\.lr",
                     log)


@pytest.mark.parametrize("lstm_lr, constant", [
    # exp overflows in the gates and the head, and the saturated classifier
    # still tells the flood's steps apart
    ("1e12", []),
    # the classifier barely moves from its initial weights and says
    # "attack" on every step
    ("1e-6", [0, 1]),
    ("1.0", []),
], ids=["saturated", "untrained", "default"])
def test_constant_classifier_verdicts_warn_and_are_reported(tmp_path, lstm_lr,
                                                            constant):
    # a subprocess, because pytest captures numpy's RuntimeWarnings away
    # from capsys
    out = tmp_path / "run"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "edgeids.cli", "train", "--agent", "autodrl",
         "--seed", "11", "--out", str(out), *QUICK_TRAIN,
         "--set", f"neural.lstm_lr={lstm_lr}"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120)
    assert proc.returncode == cli.EXIT_OK
    assert proc.stderr == ""
    report = json.loads((out / "report.json").read_text())
    assert report["constant_verdict_episodes"] == constant
    log = (out / "run.log").read_text()
    warned = re.search(r"- WARNING: The classifier gave one verdict on every step "
                       r"of episodes \[0, 1\].*neural\.lstm_lr", log)
    assert bool(warned) == bool(constant)
    assert log.count("- WARNING:") == (1 if constant else 0)


def test_selftest_passes(capsys):
    assert cli.main(["selftest"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "PASS replay buffer defaults (50,000 / batch 64)" in out
    assert "FAIL" not in out


def test_tabular_train_writes_diagnostics(tmp_path):
    out = tmp_path / "tab"
    code = cli.main(["train", "--agent", "tabular", "--seed", "5",
                     "--out", str(out), "--quiet",
                     "--set", "tabular.n_updates=5000"])
    assert code == cli.EXIT_OK
    lines = (out / "diagnostics.csv").read_text().strip().splitlines()
    assert lines[0] == "step,epsilon,eta,td_error_mean,lyapunov,contraction_ratio"
    assert len(lines) == 1 + 10
    assert (out / "q_table.csv").exists()
