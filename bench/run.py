"""Run one edgeids benchmark workload and print its metrics.

    python3 bench/run.py --workload deepedge_syn --seed 0 --seconds 30 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off; with ``--trace 1`` it makes a traced run and reports the per-layer
metrics instead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it is the machine record.  ``--seconds`` defaults to
``run_seconds`` of ``BENCHMARK.json``.  A table of every metric with its
unit goes to standard error, and the whole result, machine record
included, to ``.bench_out/`` at the repository root.  ``--workload all``
runs every workload in turn.

The program is built from ``src/`` next to this directory; without it the
run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("deepedge_syn", "autodrl_mixed", "deepedge_dense")


def pin_blas_threads():
    """One BLAS thread unless the caller asks for more, never above nproc.

    The set-up's full-batch autoencoder training otherwise runs two
    OpenBLAS threads for no wall-time gain, doubling CPU time on a shared
    two-core machine.  Must run before numpy is imported."""
    nproc = os.cpu_count() or 1
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "1")
        threads = int(value) if value.isdigit() and int(value) > 0 else 1
        os.environ[var] = str(min(threads, nproc))


def git_sha():
    """HEAD of the checkout, or None when it is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_record():
    import numpy as np

    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "platform": platform.platform(),
        "git_sha": git_sha(),
    }


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def bounded_metrics():
    """Names of the end-to-end metrics BENCHMARK.json bounds.  The run
    measures more; the rest go to the table and the results file only."""
    return {m["name"] for m in benchmark_spec()["end_to_end"]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=benchmark_spec()["run_seconds"],
                   help="untraced runs repeat their cycle for at least this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--episode-len", type=int, default=1000,
                   help="steps per episode; attacks keep their place on the timeline")
    return p.parse_args(argv)


def run_all(args):
    """Every workload in its own process, so none inherits another's peak
    memory.  Prints a combined result keyed by workload."""
    results = {}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--episode-len", str(args.episode_len)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def print_table(workload, seed, trace, metrics, unbounded, attempted, failed,
                correct):
    mode = "per-layer (traced)" if trace else "end-to-end"
    print(f"== {workload} seed {seed}: {mode} metrics", file=sys.stderr)
    width = max(len(name) for name in {**metrics, **unbounded})
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:>14.6g}  {m['unit']}", file=sys.stderr)
    for name, m in unbounded.items():
        print(f"  {name:<{width}}  {m['value']:>14.6g}  {m['unit']}  (no bound)",
              file=sys.stderr)
    frac = failed / attempted if attempted else 1.0
    print(f"  {'failed_step_frac':<{width}}  {frac:>14.6g}  fraction "
          f"({failed} of {attempted} steps; correct={correct})", file=sys.stderr)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "edgeids" / "__init__.py").is_file():
        print(f"error: no edgeids package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import numpy as np

    import harness
    from spans import LAYER_METRICS, Patcher

    machine = machine_record()
    cfg = harness.make_config(args.workload, args.seed, args.episode_len)
    monitor = harness.Monitor()
    patcher = Patcher()
    monitor.install(patcher)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-trace{args.trace}"
    unbounded = {}
    try:
        if args.trace:
            with tempfile.TemporaryDirectory(dir=OUT) as tmp:
                recorder, values = harness.traced_run(cfg, monitor, patcher, Path(tmp))
            recorder.save(OUT / f"{args.workload}.spans.npz")
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in LAYER_METRICS if name in values}
            correct = monitor.failed == 0
        else:
            quality, reproducible = harness.measure(cfg, monitor, args.seconds)
            correct = monitor.failed == 0 and reproducible
            metrics = {}
            if quality is not None:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                values = {**harness.timing_metrics(monitor, peak_rss_mb), **quality}
                bounded = bounded_metrics()
                for name, (value, unit) in values.items():
                    if value is None:  # anomaly_auc of a workload without attacks
                        continue
                    target = metrics if name in bounded else unbounded
                    target[name] = {"value": value, "unit": unit}
    finally:
        patcher.restore()

    phases = [{"name": p.name, "wall_s": p.wall_s, "steps": p.reached,
               "planned": p.planned, "failed": p.failed_steps, "error": p.error,
               "step_ms_p50_p99": [float(np.percentile(p.step_ms(), q)) for q in (50, 99)]
               if p.reached else None}
              for p in monitor.phases]
    for p in phases:
        if p["error"]:
            print(f"phase {p['name']} failed: {p['error']}", file=sys.stderr)
    result = {"correct": correct, "attempted": monitor.attempted,
              "failed": monitor.failed, "metrics": metrics}
    with open(OUT / f"{stem}.json", "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "episode_len": args.episode_len,
                   "machine": machine, "phases": phases, **result,
                   "unbounded_metrics": unbounded}, f, indent=2)
    if metrics:
        print_table(args.workload, args.seed, args.trace, metrics, unbounded,
                    monitor.attempted, monitor.failed, correct)
    print(json.dumps({"machine": machine}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
