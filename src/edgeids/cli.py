"""Command-line surface: train, evaluate, compare, sweep, selftest.

Every run writes a self-describing artifact directory: the effective
config snapshot (byte-identical JSON), checkpoints, metric/ledger/trace
CSVs, a JSON report, and a log file whose lines follow the gateway's
operational format (timestamp - LEVEL: message, with SUCCESS and POLICY
levels alongside the standard ones).

Exit codes: 0 success, 1 configuration error, 2 runtime error,
3 selftest failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import agent as ag
from . import config as cfgmod
from . import evaluation as ev
from . import neural
from . import pipeline as pl
from . import sustain
from .config import ConfigError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_SELFTEST = 3

SUCCESS = 25
POLICY = 26
logging.addLevelName(SUCCESS, "SUCCESS")
logging.addLevelName(POLICY, "POLICY")

LOG_FORMAT = logging.Formatter("%(asctime)s - %(levelname)s: %(message)s",
                               datefmt="%Y-%m-%d %H:%M:%S")


def make_run_logger(out_dir, quiet=False):
    logger = logging.getLogger(f"edgeids.run.{out_dir}")
    logger.setLevel(logging.INFO)
    logger.handlers.clear()
    logger.propagate = False
    file_handler = logging.FileHandler(Path(out_dir) / "run.log", mode="w")
    file_handler.setFormatter(LOG_FORMAT)
    logger.addHandler(file_handler)
    if not quiet:
        stream = logging.StreamHandler(sys.stderr)
        stream.setFormatter(LOG_FORMAT)
        logger.addHandler(stream)
    return logger


# ---------------------------------------------------------------------------
# config assembly from flags
# ---------------------------------------------------------------------------

def flag_overrides(cfg, args):
    """cfg under --agent, --seed, --episodes, --epsilon and --set, in order."""
    overrides = []
    if getattr(args, "agent", None):
        overrides.append(f"agent={json.dumps(args.agent)}")
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if getattr(args, "episodes", None) is not None:
        overrides.append(f"episodes={args.episodes}")
    epsilon = getattr(args, "epsilon", None)
    if isinstance(epsilon, (int, float)):   # the sweep passes a list string
        overrides.append(f"hyper.epsilon.initial={epsilon}")
    overrides.extend(args.set or [])
    return cfgmod.apply_overrides(cfg, overrides)


def build_config(args):
    """A train or sweep config: --config or the agent's defaults, plus flags."""
    if args.config:
        cfg = cfgmod.load(args.config)
    else:
        cfg = cfgmod.default_config(args.agent or "deepedge")
    return flag_overrides(cfg, args)


def prepare_out_dir(args, default_name):
    out = Path(args.out) if args.out else Path("runs") / default_name
    out.mkdir(parents=True, exist_ok=True)
    return out


def warm_up(pipe, logger):
    """DrlPipeline.warmup, with a failed warm-up logged as CRITICAL."""
    try:
        pipe.warmup()
    except ValueError as exc:
        logger.critical("Warm-up failed: %s", exc)
        raise


def train(pipe, logger):
    """DrlPipeline.train, with a diverged DQN logged as CRITICAL."""
    try:
        return pipe.train()
    except ag.Diverged as exc:
        logger.critical("Training failed: %s", exc)
        raise


def write_json(path, payload):
    """Standard JSON only: a NaN or infinity raises ValueError before the
    file is opened."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as f:
        f.write(text + "\n")


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def cmd_train(args):
    cfg = build_config(args)
    # a DRL pipeline reads its kappa schedule before the output directory exists
    pipe = pl.TabularPipeline(cfg) if cfg.agent == "tabular" else pl.DrlPipeline(cfg)
    out = prepare_out_dir(args, f"train-{cfg.agent}-s{cfg.seed}")
    cfgmod.save(cfg, out / "config.json")
    logger = make_run_logger(out, args.quiet)
    logger.info("System State: TRAINING STARTED (%s, seed %d)", cfg.agent, cfg.seed)

    if cfg.episodes == 0 and cfg.agent != "tabular":
        # boundary: artifact with config and empty CSVs, no checkpoint
        pl.write_episode_csv(out / "episodes.csv", [])
        pl.write_trace_csv(out / "trace.csv", [])
        write_json(out / "report.json", {"agent": cfg.agent, "episodes": 0})
        logger.log(SUCCESS, "Zero-episode run: artifact written, no checkpoint")
        return EXIT_OK

    if cfg.agent == "tabular":
        q_table, diag = pipe.train()
        np.savetxt(out / "q_table.csv", q_table, delimiter=",")
        diag.to_csv(out / "diagnostics.csv")
        q_star = pipe.mdp.value_iteration()
        gap = float(np.max(np.abs(q_table - q_star)))
        write_json(out / "report.json", {
            "agent": "tabular",
            "updates": cfg.tabular.n_updates,
            "sup_norm_gap_to_value_iteration": gap,
            "final_lyapunov": diag.lyapunov[-1] if diag.lyapunov else None,
        })
        logger.log(SUCCESS, "Tabular run converged within %.2e of value iteration", gap)
        return EXIT_OK

    logger.info("Benign warm-up: fitting normalizer and anomaly thresholds")
    warm_up(pipe, logger)
    logger.info("Alarm thresholds: tau_flow=%.6g tau_step=%.6g",
                pipe.detector.tau_flow, pipe.detector.tau_step)
    outcome = train(pipe, logger)

    neural.save_checkpoint(outcome.models, out / "checkpoint.txt")
    write_json(out / "detector.json", pl.detector_to_dict(pipe.detector))
    pl.write_episode_csv(out / "episodes.csv", outcome.episode_stats)
    pl.write_trace_csv(out / "trace.csv", outcome.trace_rows)
    sustain.write_ledger_csv(out / "ledger.csv", outcome.ledgers,
                             cfg.env.episode_len)

    violations = [v for ledger in outcome.ledgers for v in ledger.check_bounds()]
    for stats in outcome.episode_stats:
        logger.log(POLICY, "Episode %d: reward %.1f, suppression %.3f, updates %d, "
                   "TD loss %.4g", stats.episode, stats.reward_total,
                   stats.detection_rate, stats.updates, stats.td_loss_mean)
    ceiling = pl.td_loss_ceiling(cfg)
    blown_up = [s.episode for s in outcome.episode_stats if s.td_loss_mean > ceiling]
    if blown_up:
        logger.warning("TD loss above its bound (2B)^2 = %.4g in episodes %s: "
                       "the DQN is blowing up; lower hyper.lr", ceiling, blown_up)
    constant = outcome.constant_verdict_episodes
    if constant:
        logger.warning("The classifier gave one verdict on every step of episodes %s, "
                       "attack and benign alike: it has not learned to tell them "
                       "apart; check neural.lstm_lr", constant)
    if violations:
        logger.log(logging.CRITICAL, "Sustainability bounds violated %d times",
                   len(violations))
    write_json(out / "report.json", {
        "agent": cfg.agent,
        "episodes": cfg.episodes,
        "q_updates": outcome.q_updates,
        "bound_violations": len(violations),
        "final_reward": outcome.episode_stats[-1].reward_total,
        "final_suppression": outcome.episode_stats[-1].detection_rate,
        "cumulative_energy_j": sum(l.cumulative_energy_j for l in outcome.ledgers),
        "cumulative_carbon_g": sum(l.cumulative_carbon_g for l in outcome.ledgers),
        "td_loss_over_bound_episodes": blown_up,
        "constant_verdict_episodes": constant,
    })
    logger.log(SUCCESS, "Training complete: checkpoint and metrics written to %s", out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def load_trained_pipeline(checkpoint_dir, cfg):
    """Rebuild a frozen pipeline under cfg from a train artifact directory."""
    ckpt = Path(checkpoint_dir)
    models = neural.load_checkpoint(ckpt / "checkpoint.txt")
    path = ckpt / "detector.json"
    with open(path) as f:
        try:
            detector_data = json.load(f)
        except ValueError as exc:  # not JSON, or not text
            raise ValueError(f"{path} is not valid JSON: {exc}") from None
    pipe = pl.DrlPipeline(cfg)
    pipe.load_models(models, detector_data)
    return pipe


def cmd_evaluate(args):
    ckpt = Path(args.checkpoint)
    if ckpt.name == "checkpoint.txt" and ckpt.is_file():
        ckpt = ckpt.parent
    if not (ckpt / "checkpoint.txt").exists():
        raise FileNotFoundError(f"no checkpoint.txt under {ckpt}")
    cfg = cfgmod.load(ckpt / "config.json")
    if args.config:
        cfg.env = cfgmod.load(args.config).env
    cfg = flag_overrides(cfg, args)
    # a rejected checkpoint or config fails before the output directory exists
    pipe = load_trained_pipeline(ckpt, cfg)

    out = prepare_out_dir(args, f"eval-{cfg.agent}-s{cfg.seed}")
    cfgmod.save(cfg, out / "config.json")
    logger = make_run_logger(out, args.quiet)
    logger.info("System State: EVALUATION (frozen policy, seed %d)", cfg.seed)
    outcome = pl.rollout(pipe, seed=cfg.seed)

    pl.write_trace_csv(out / "trace.csv", outcome.trace_rows)
    outcome.ledger.to_csv(out / "ledger.csv")

    metrics = ev.classification_metrics(outcome.confusion) \
        if outcome.confusion.total else {}
    alerts = outcome.confusion.tp + outcome.confusion.fp
    report = {
        "agent": cfg.agent,
        "seed": cfg.seed,
        "step_metrics": metrics,
        "detection_probability": outcome.detection_prob,
        "anomaly_auc": outcome.anomaly_auc() if outcome.detection_prob is not None
        else None,
        "classifier_accuracy": outcome.classifier_accuracy,
        "false_alerts_per_100": ev.false_alerts_per_100(outcome.confusion.fp, alerts)
        if alerts else None,
        "missed_packets_per_hour": ev.missed_packets_per_hour(
            outcome.detection_prob, args.pps)
        if outcome.detection_prob is not None and alerts else None,
        "response_times_s": outcome.response_times,
        "attack_packets": {"offered": outcome.attack_offered,
                           "passed": outcome.attack_passed},
        "benign_packets": {"offered": outcome.benign_offered,
                           "passed": outcome.benign_passed},
        "reward_total": outcome.reward_total,
        "cumulative_energy_j": outcome.ledger.cumulative_energy_j,
        "cumulative_carbon_g": outcome.ledger.cumulative_carbon_g,
        "bound_violations": len(outcome.ledger.check_bounds()),
        "constant_verdict": outcome.constant_verdict,
    }
    write_json(out / "report.json", report)
    if outcome.constant_verdict:
        logger.warning("The classifier gave one verdict on every step of the "
                       "rollout, attack and benign alike: it has not learned to "
                       "tell them apart; check neural.lstm_lr")
    if outcome.detection_prob is not None:
        logger.log(POLICY, "Detection probability %.3f, %d response samples",
                   outcome.detection_prob, len(outcome.response_times))
    logger.log(SUCCESS, "Evaluation complete: report written to %s", out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

COMPARE_METRICS = {
    "reward": "reward_total",
    "detection": "detection_rate",
    "false_rate": "false_rate",
    "energy": "energy_j",
    "carbon": "carbon_g",
    "cpu": "cpu_mean",
}


def _episode_samples(run_dir, metrics):
    path = Path(run_dir) / "episodes.csv"
    if not path.exists():
        raise FileNotFoundError(f"no episodes.csv under {run_dir}")
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        rows = [(reader.line_num, row) for row in reader]
    samples = {}
    for metric in metrics:
        column = COMPARE_METRICS[metric]
        if rows and column not in rows[0][1]:
            raise ValueError(f"metric {metric!r} not available in {run_dir}")
        for line, row in rows:
            if not _is_finite_number(row[column]):
                found = "is missing" if row[column] is None else f"holds {row[column]!r}"
                raise ValueError(f"{path}, line {line}: column {column!r} {found}, "
                                 f"expected a finite number")
        samples[metric] = [float(row[column]) for _, row in rows]
    return samples


def _is_finite_number(text):
    try:
        return bool(np.isfinite(float(text)))
    except (TypeError, ValueError):
        return False


def cmd_compare(args):
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    if not metrics or not set(metrics) <= COMPARE_METRICS.keys():
        raise ConfigError(f"--metrics {args.metrics!r}: each name must be one of "
                          f"{', '.join(COMPARE_METRICS)}")
    samples_a = _episode_samples(args.run_a, metrics)
    samples_b = _episode_samples(args.run_b, metrics)
    report = ev.compare_models(samples_a, samples_b, metrics)

    out = prepare_out_dir(args, "compare")
    tables = []
    payload = {}
    for metric, result in report.items():
        title = f"ANOVA: {metric} comparison"
        tables.append(ev.render_anova_table(result, title))
        payload[metric] = {
            "df_between": result.df_between,
            "df_within": result.df_within,
            "ss_between": result.ss_between,
            "ss_within": result.ss_within,
            "ms_between": result.ms_between,
            "ms_within": result.ms_within,
            "f_statistic": result.f_statistic,
            "p_value": result.p_value,
            "partial_eta_sq": result.partial_eta_sq,
        }
    text = "\n\n".join(tables) + "\n"
    (out / "comparison.txt").write_text(text)
    write_json(out / "comparison.json", payload)
    if not args.quiet:
        print(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def sweep_values(cfg, flag, text, key, parse, at_least):
    """The comma-separated values of a sweep flag, at least `at_least` of
    them, each checked by the config rule that a single value of `key`
    must meet."""
    values = []
    for raw in text.split(","):
        try:
            value = parse(raw)
            cfgmod.apply_overrides(cfg, [f"{key}={json.dumps(value)}"])
        except (ConfigError, ValueError) as exc:
            raise ConfigError(f"{flag} value {raw!r}: {exc}") from exc
        values.append(value)
    if len(values) < at_least:
        raise ConfigError(f"{flag} needs at least {at_least} values, "
                          f"got {len(values)}")
    return values


def cmd_sweep(args):
    cfg = build_config(args)
    epsilons = sweep_values(cfg, "--epsilon", args.epsilon,
                            "hyper.epsilon.initial", float, ev.SWEEP_MIN_EPSILONS)
    seeds = sweep_values(cfg, "--seeds", args.seeds, "seed", int, ev.SWEEP_MIN_SEEDS)
    if cfg.agent != "tabular":
        pl.DrlPipeline(cfg)  # reads the kappa schedule before the directory exists
    out = prepare_out_dir(args, f"sweep-{cfg.agent}")
    cfgmod.save(cfg, out / "config.json")
    logger = make_run_logger(out, args.quiet)
    logger.info("Exploration sweep over epsilon=%s seeds=%s", epsilons, seeds)

    def run_fn(eps, seed):
        run_cfg = cfgmod.apply_overrides(
            cfg, [f"hyper.epsilon.initial={json.dumps(eps)}", f"seed={seed}"])
        if run_cfg.agent == "tabular":
            return pl.TabularPipeline(run_cfg).episode_rewards(
                run_cfg.hyper.epsilon.start_probability(), seed)
        pipe = pl.DrlPipeline(run_cfg)
        warm_up(pipe, logger)
        outcome = train(pipe, logger)
        return [s.reward_total for s in outcome.episode_stats]

    result = ev.epsilon_sweep(run_fn, epsilons, seeds)
    result.to_csv(out / "sweep.csv")
    write_json(out / "report.json", {
        "epsilons": result.epsilons,
        "auc": {str(k): v for k, v in result.auc.items()},
        "ranking_best_first": result.ranking,
    })
    logger.log(SUCCESS, "Sweep complete; AUC ranking (best first): %s",
               result.ranking)
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def _selftest_checks(tmp_dir):
    rng = np.random.default_rng(0)

    def defaults():
        hp = ag.AgentHyperparams()
        buf = ag.ReplayBuffer()
        return (hp.buffer_capacity == 50_000 and hp.batch_size == 64
                and buf.capacity == 50_000 and buf.batch_size == 64)

    def gradients():
        ae = neural.autoencoder_init(np.random.default_rng(1))
        if neural.grad_check(ae, rng.uniform(size=8)).max_rel_error >= 1e-4:
            return False
        clf = neural.lstm_classifier_init(4, 2, 3, np.random.default_rng(2))
        window = rng.normal(size=(3, 4))
        return neural.grad_check(clf, window, target=1).max_rel_error < 1e-4

    def contraction():
        mdp = ag.toy_mdp(0.9)
        for _ in range(20):
            q1 = rng.normal(size=(4, 4))
            q2 = rng.normal(size=(4, 4))
            if ag.empirical_contraction_ratio(mdp, q1, q2) > 0.9 + 1e-12:
                return False
        shift = ag.empirical_contraction_ratio(mdp, q1, q1 + 2.0)
        return abs(shift - 0.9) <= 1e-12

    def pareto():
        for _ in range(3):
            pts = [tuple(map(float, p)) for p in rng.uniform(0, 5, size=(300, 2))]
            arr = np.asarray(pts)
            brute = []
            for i, p in enumerate(pts):
                le = (arr <= p).all(axis=1)
                strict = (arr < p).any(axis=1)
                dominated = (le & strict)
                dominated[i] = False
                if not dominated.any():
                    brute.append(p)
            if sustain.pareto_front(pts) != brute:
                return False
        return True

    def anova_tables():
        rows = {r.metric: r for r in ev.reproduce_reference_tables()}
        return (rows["carbon"].consistent and rows["cpu"].consistent
                and rows["memory"].consistent
                and not rows["detection_probability"].consistent
                and not rows["response_time"].consistent)

    def f_distribution():
        return (abs(ev.f_survival(2.0, 1, 38) - 0.1654406604) < 1e-6
                and abs(ev.f_survival(10.0, 1, 98) - 0.0020840635) < 1e-6)

    def reward_arithmetic():
        w = sustain.RewardWeights()
        c = sustain.RewardComponents(0.9, 0.1, 0.5, 2.0, 0.5, 0.4)
        return abs(sustain.compute_reward(w, c).total - 0.71) < 1e-12

    def checkpoint_round_trip():
        ae = neural.autoencoder_init(np.random.default_rng(3))
        path = Path(tmp_dir) / "selftest-ckpt.txt"
        neural.save_checkpoint({"ae": ae}, path)
        loaded = neural.load_checkpoint(path)["ae"]
        for (_, a), (_, b) in zip(neural.iter_params(ae), neural.iter_params(loaded)):
            if np.max(np.abs(a - b)) >= 1e-12:
                return False
        return True

    return [
        ("replay buffer defaults (50,000 / batch 64)", defaults),
        ("gradient oracle (autoencoder + LSTM classifier)", gradients),
        ("Bellman contraction ratios", contraction),
        ("Pareto front vs brute force", pareto),
        ("reference ANOVA tables reproduce and flag", anova_tables),
        ("F-distribution tail probabilities", f_distribution),
        ("reward hand arithmetic", reward_arithmetic),
        ("checkpoint round trip", checkpoint_round_trip),
    ]


def cmd_selftest(args):
    import tempfile
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, check in _selftest_checks(tmp):
            try:
                ok = check()
            except Exception as exc:  # a crashing check is a failing check
                ok = False
                print(f"FAIL {name}: {exc}")
                failures += 1
                continue
            print(f"{'PASS' if ok else 'FAIL'} {name}")
            failures += 0 if ok else 1
    return EXIT_OK if failures == 0 else EXIT_SELFTEST


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _FlagParser(argparse.ArgumentParser):
    """An unknown, malformed or missing flag is a configuration error:
    one `config error:` line and exit 1, not argparse's usage and exit 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _positive_float(text):
    """A flag's value, which must be a finite number above 0."""
    try:
        value = float(text)
        if np.isfinite(value) and value > 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {text!r}")


def make_parser():
    parser = _FlagParser(
        prog="edgeids",
        description="Carbon-aware DRL DDoS-mitigation lab for a simulated "
                    "IoT edge gateway")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, training=True):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", help="artifact output directory")
        if training:
            p.add_argument("--agent", choices=cfgmod.AGENT_KINDS, default=None)
            p.add_argument("--episodes", type=int, default=None)
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="config override, repeatable (e.g. env.dt=0.5)")
        p.add_argument("--quiet", action="store_true")

    p_train = sub.add_parser("train", help="train an agent and write artifacts")
    common(p_train)
    p_train.add_argument("--epsilon", type=float, default=None,
                         help="exploration temperature override")

    p_eval = sub.add_parser("evaluate", help="frozen-policy rollout from a checkpoint")
    common(p_eval, training=False)
    p_eval.add_argument("--checkpoint", required=True,
                        help="train artifact directory, or its checkpoint.txt")
    p_eval.add_argument("--pps", type=_positive_float, default=50.0,
                        help="packet rate for missed-packets/hour")

    p_cmp = sub.add_parser("compare", help="per-metric ANOVA between two runs")
    p_cmp.add_argument("--run-a", required=True)
    p_cmp.add_argument("--run-b", required=True)
    p_cmp.add_argument("--metrics", default="reward,energy,carbon,cpu")
    p_cmp.add_argument("--out", default=None)
    p_cmp.add_argument("--quiet", action="store_true")

    p_sweep = sub.add_parser("sweep", help="exploration-coefficient sweep")
    common(p_sweep)
    p_sweep.add_argument("--epsilon", default="0.5,1.0,2.0",
                         help="comma-separated epsilon values")
    p_sweep.add_argument("--seeds", default="0,1,2",
                         help="comma-separated seed list")

    p_self = sub.add_parser("selftest", help="run the oracle self-checks")
    p_self.add_argument("--quiet", action="store_true")

    return parser


COMMANDS = {
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "compare": cmd_compare,
    "sweep": cmd_sweep,
    "selftest": cmd_selftest,
}


def main(argv=None):
    try:
        args = make_parser().parse_args(argv)
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (neural.CheckpointError, OSError, KeyError, ValueError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # any other failure still ends in one line
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
