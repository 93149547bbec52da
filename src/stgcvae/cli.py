"""Command-line entry point for batch experiments.

Subcommands: preprocess, train, evaluate, bench, predict, gen-synthetic.
Exit codes: 0 success, 1 user error (bad inputs/flags), 2 internal error.
All randomness in a command derives from its seed (train: --seed or config).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import data, evaluation, losses, model, synthetic, training
from .errors import ParameterError, StgcvaeError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stgcvae",
        description="CVAE spatio-temporal graph trajectory predictor")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess",
                       help="parse annotation files into a window cache")
    p.add_argument("--input", required=True,
                   help="directory of *.txt annotation files (one per scene)")
    p.add_argument("--output", required=True, help="window cache to write")
    p.add_argument("--rate", type=float, default=2.5,
                   help="target sampling rate in Hz")
    p.add_argument("--input-rate", type=float, default=2.5,
                   help="rate of one source frame-id unit, in Hz")
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--mode", choices=["train", "infer"], default="train")
    p.add_argument("--robot-log", default=None,
                   help="additional robot log file (may carry #robot_id=)")
    p.add_argument("--robot-rate", type=float, default=10.0,
                   help="rate of the robot log's frame-id unit, in Hz")

    p = sub.add_parser("train", help="train a model on a window cache")
    p.add_argument("--data", required=True)
    p.add_argument("--holdout", default=None,
                   help="scene held out for validation (leave-one-out)")
    p.add_argument("--config", default=None,
                   help="key=value file of ModelConfig and TrainConfig "
                        "fields (feature_scale, latent_len, epochs, seed...)")
    p.add_argument("--out", required=True, help="checkpoint directory")
    p.add_argument("--seed", type=int, help="overrides the config's seed")

    p = sub.add_parser("evaluate", help="best-of-K evaluation of a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sample-mode", choices=["latent", "full"],
                   default="latent")
    p.add_argument("--oracle-per-metric", action="store_true",
                   help="report independent minima for ADE and FDE")

    p = sub.add_parser("bench", help="inference latency benchmark")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--agents", type=int, default=3)
    p.add_argument("--reps", type=int, default=100)

    p = sub.add_parser("predict",
                       help="export best-of-K samples for a cache")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="prediction CSV to write")
    p.add_argument("--k", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sample-mode", choices=["latent", "full"],
                   default="latent")

    p = sub.add_parser("gen-synthetic", help="write a synthetic window cache")
    p.add_argument("--agents", type=int, default=2)
    p.add_argument("--windows", type=int, default=8)
    p.add_argument("--pattern", choices=list(synthetic.PATTERNS),
                   default="const-velocity")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    return parser


def _require_positive(args, *flags) -> None:
    for flag in flags:
        if getattr(args, flag) < 1:
            raise ParameterError(
                f"--{flag} must be >= 1, got {getattr(args, flag)}")


def _require_seed(args) -> None:
    """numpy takes no negative seed; --seed is unset (None) where optional."""
    if args.seed is not None and args.seed < 0:
        raise ParameterError(f"--seed must be >= 0, got {args.seed}")


def cmd_preprocess(args) -> int:
    in_dir = Path(args.input)
    if not in_dir.is_dir():
        raise StgcvaeError(f"input directory {in_dir} does not exist")
    for flag in ("rate", "input_rate", "robot_rate"):
        rate = getattr(args, flag)
        if not (0 < rate < math.inf and math.isfinite(1.0 / rate)):
            raise ParameterError(f"--{flag.replace('_', '-')} must be a "
                                 f"finite number of Hz > 0, got {rate}")
    _require_positive(args, "stride")
    sources = [(p, args.input_rate) for p in sorted(in_dir.glob("*.txt"))]
    if args.robot_log:
        sources.append((Path(args.robot_log), args.robot_rate))
    windows = []
    for path, rate in sources:
        scene = data.resample(data.parse_annotations(
            path, frame_period=1.0 / rate), 1.0 / args.rate)
        ws = data.build_windows(scene, stride=args.stride, mode=args.mode)
        print(f"{scene.name}: {len(ws)} windows, "
              f"{len(np.unique(scene.agents))} agents")
        windows += ws
    data.save_windows(args.output, windows)
    print(f"wrote {len(windows)} windows -> {args.output}")
    if not windows:
        print("warning: no windows produced", file=sys.stderr)
    return 0


def cmd_train(args) -> int:
    _require_seed(args)
    windows = data.load_windows(args.data)
    mcfg, cfg = training.read_config(args.config) if args.config \
        else (model.ModelConfig(), training.TrainConfig())
    # fail before anything is written, naming windows by their cache index
    data.check_windows(windows)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.holdout:
        train_ws, val_ws = training.make_split(windows, args.holdout)
    else:
        train_ws, val_ws = windows, []
    if not train_ws:
        raise StgcvaeError("no training windows in cache")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    m = model.TrajCvae(mcfg, rng=np.random.default_rng(cfg.seed))
    state = training.TrainState(params=m.params,
                                rng=np.random.default_rng(cfg.seed))
    # the run's log replaces a previous one only after final.stgc is written
    with data.replacing(out_dir / "metrics.csv") as fh:
        log = losses.MetricsLog(fh)
        for epoch in range(cfg.epochs):
            state = training.train_epoch(state, m, train_ws, cfg, log=log)
            report = state.epoch_report
            print(f"epoch {epoch}: total={report.total:.4f} "
                  f"rec={report.rec:.4f} kl={report.kl:.4f} "
                  f"w={report.weight:.2e}")
            if val_ws and (epoch + 1) % cfg.val_every == 0:
                rep = evaluation.evaluate_dataset(m, val_ws, 20, cfg.seed)
                print(f"  val best-of-20 ade={rep.ade:.4f} fde={rep.fde:.4f}")
                if rep.ade < state.best_val_metric:
                    state.best_val_metric = rep.ade
                    training.checkpoint(state, m, out_dir / "best.stgc", cfg)
        training.checkpoint(state, m, out_dir / "final.stgc", cfg)
    print(f"wrote {out_dir / 'final.stgc'}")
    return 0


def cmd_evaluate(args) -> int:
    _require_seed(args)
    m, _ = model.load_model(args.ckpt)
    windows = data.load_windows(args.data)
    report = evaluation.evaluate_dataset(
        m, windows, k=args.k, seed=args.seed, sample_mode=args.sample_mode,
        oracle_per_metric=args.oracle_per_metric)
    print(report.render(), end="")
    return 0


def cmd_bench(args) -> int:
    _require_positive(args, "agents", "reps")
    m, _ = model.load_model(args.ckpt)
    rng = np.random.default_rng(0)
    window = synthetic.make_window("const-velocity", args.agents, rng)
    stats = evaluation.benchmark_inference(m, window, repetitions=args.reps)
    print(f"agents = {args.agents}")
    print(f"param_count = {m.params.count_params()}")
    print(f"latency_mean_s = {stats.mean:.6f}")
    print(f"latency_p95_s = {stats.p95:.6f}")
    return 0


def cmd_predict(args) -> int:
    _require_seed(args)
    m, _ = model.load_model(args.ckpt)
    windows = data.load_windows(args.data)
    evaluation.export_predictions(args.out, m, windows, k=args.k,
                                  seed=args.seed,
                                  sample_mode=args.sample_mode)
    print(f"predictions for {len(windows)} windows -> {args.out}")
    return 0


def cmd_gen_synthetic(args) -> int:
    _require_positive(args, "agents", "windows")
    _require_seed(args)
    windows = synthetic.make_corpus(args.pattern, args.agents, args.windows,
                                    seed=args.seed)
    data.save_windows(args.out, windows)
    print(f"{args.pattern}: {len(windows)} windows, {args.agents} agents "
          f"-> {args.out}")
    return 0


_COMMANDS = {
    "preprocess": cmd_preprocess,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "bench": cmd_bench,
    "predict": cmd_predict,
    "gen-synthetic": cmd_gen_synthetic,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (StgcvaeError, FileNotFoundError, NotADirectoryError,
            IsADirectoryError, FileExistsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
