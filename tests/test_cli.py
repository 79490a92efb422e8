import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from edgeids import cli

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


def test_log_lines_follow_operational_format(train_artifact):
    pattern = re.compile(
        r"^\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2} - "
        r"(INFO|WARNING|CRITICAL|SUCCESS|POLICY): .+")
    lines = (train_artifact / "run.log").read_text().strip().splitlines()
    assert lines
    assert all(pattern.match(line) for line in lines)
    assert any("- POLICY:" in line for line in lines)
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


def test_corrupt_checkpoint_is_explicit(train_artifact, tmp_path, capsys):
    broken = tmp_path / "broken"
    broken.mkdir()
    for name in ("config.json", "detector.json"):
        (broken / name).write_bytes((train_artifact / name).read_bytes())
    text = (train_artifact / "checkpoint.txt").read_text()
    (broken / "checkpoint.txt").write_text(text[: len(text) // 2])
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


def test_compare_missing_metric_fails(train_artifact, tmp_path):
    code = cli.main(["compare", "--run-a", str(train_artifact),
                     "--run-b", str(train_artifact),
                     "--metrics", "nonexistent",
                     "--out", str(tmp_path / "cmp2"), "--quiet"])
    assert code == cli.EXIT_RUNTIME


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


def test_zero_episode_boundary(tmp_path):
    out = tmp_path / "zero"
    code = cli.main(["train", "--agent", "deepedge", "--episodes", "0",
                     "--out", str(out), "--quiet"])
    assert code == cli.EXIT_OK
    assert not (out / "checkpoint.txt").exists()
    assert (out / "episodes.csv").read_text().strip() == ",".join(
        __import__("edgeids.pipeline", fromlist=["EPISODE_COLUMNS"]).EPISODE_COLUMNS)


def test_config_error_exit_code(tmp_path, capsys):
    code = cli.main(["train", "--set", "hyper.gamma=2.0",
                     "--out", str(tmp_path / "x"), "--quiet"])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", [
    ["train"],
    ["sweep", "--epsilon", "1.0,2.0", "--seeds", "0,1,2"],
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
    log = (out / "run.log").read_text()
    assert re.search(r"- CRITICAL: .*diverged", log)


def test_checkpoint_without_autoencoder_names_the_model(train_artifact, tmp_path,
                                                        capsys):
    broken = tmp_path / "broken"
    broken.mkdir()
    for name in ("config.json", "detector.json"):
        (broken / name).write_bytes((train_artifact / name).read_bytes())
    lines = (train_artifact / "checkpoint.txt").read_text().splitlines(True)
    start = lines.index("model autoencoder autoencoder\n")
    end = next(i for i in range(start + 1, len(lines))
               if lines[i].startswith("model "))
    (broken / "checkpoint.txt").write_text("".join(lines[:start] + lines[end:]))
    code = cli.main(["evaluate", "--checkpoint", str(broken),
                     "--out", str(tmp_path / "o"), "--quiet"])
    assert code == cli.EXIT_RUNTIME
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["runtime error: checkpoint lacks model 'autoencoder'"]


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
