import os
import subprocess
import sys
from pathlib import Path

import pytest

import edgeids

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo, outputs", [
    ("02_tabular_convergence.py", ["tabular_diagnostics.csv"]),
    ("08_epsilon_sweep.py", ["sweep_unsupervised.csv", "sweep_supervised.csv"]),
    ("01_neural_gradient_checks.py", []),
    ("04_gateway_simulation.py", []),
    ("03_reward_and_ledger.py", []),
    # 05 and 06 train both agents through the replay ring; 06 also reads
    # the pipeline's classifier update count
    ("05_train_unsupervised_agent.py", []),
    ("06_train_supervised_agent.py", []),
    ("07_anova_reference_tables.py", []),
])
def test_tabular_demo_runs(tmp_path, demo, outputs):
    src = str(Path(edgeids.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=tmp_path, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for name in outputs:
        assert (tmp_path / "demo_output" / name).stat().st_size > 0
