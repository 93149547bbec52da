#!/usr/bin/env python3
"""Full leave-one-scene-out ETH/UCY benchmark run.

This is the long-running reproduction: five independent trainings (one per
held-out scene) on real annotation data, evaluated best-of-20. Expect hours
on a single CPU core. The desk-scale acceptance suite does NOT gate on the
numbers this produces — channel widths, kernels, and dropout here are
implementation choices, so results land near but not exactly on the
reference averages (ADE 0.45 / FDE 0.60, +-0.15 / +-0.20 tolerance).

Usage:
    python3 scripts/reproduce_benchmark.py --data-root <dir> [--out runs/]

<dir> must hold one whitespace-delimited annotation file per scene
(frame agent x y), e.g. eth.txt hotel.txt univ.txt zara1.txt zara2.txt.
Each fold is one `stgcvae train --holdout <scene> --config <out>/train.cfg`
run into <out>/<scene>/, validated on <scene> every 10 epochs.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stgcvae import cli, data, evaluation, training  # noqa: E402

REFERENCE = {"ade": 0.45, "fde": 0.60}   # published averages this targets
TOLERANCE = {"ade": 0.15, "fde": 0.20}


def stgcvae(*argv) -> None:
    """Run one `stgcvae` command in this process; exit if it fails."""
    argv = [str(a) for a in argv]
    if cli.main(argv) != 0:
        sys.exit(f"stgcvae {' '.join(argv)} failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--data-root", required=True, type=Path)
    ap.add_argument("--out", type=Path, default=Path("runs"))
    ap.add_argument("--epochs", type=int, default=250)
    ap.add_argument("--batch-size", type=int, default=128)
    ap.add_argument("--rate", type=float, default=2.5)
    ap.add_argument("--stride", type=int, default=1)
    ap.add_argument("--feature-scale", type=float, default=4.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    stgcvae("preprocess", "--input", args.data_root,
            "--output", out / "windows.stgw", "--rate", args.rate,
            "--input-rate", args.rate, "--stride", args.stride)
    windows = data.load_windows(out / "windows.stgw")
    scenes = sorted({w.scene for w in windows})
    if len(scenes) < 2:
        sys.exit("need at least two scenes for leave-one-out")
    (out / "train.cfg").write_text(f"feature_scale = {args.feature_scale}\n"
                                   f"epochs = {args.epochs}\n"
                                   f"batch_size = {args.batch_size}\n"
                                   f"lr_switch_epoch = {args.epochs // 2}\n")

    results = {}
    for held_out in scenes:
        print(f"=== fold: hold out {held_out} "
              f"({len(scenes) - 1} train scenes) ===", flush=True)
        stgcvae("train", "--data", out / "windows.stgw",
                "--config", out / "train.cfg", "--out", out / held_out,
                "--holdout", held_out, "--seed", args.seed)
        _, m = training.restore(out / held_out / "final.stgc")
        test_ws = [w for w in windows if w.scene == held_out]
        rep = evaluation.evaluate_dataset(m, test_ws, k=20, seed=args.seed)
        results[held_out] = (rep.ade, rep.fde)
        print(f"[{held_out}] final best-of-20 ade={rep.ade:.4f} "
              f"fde={rep.fde:.4f}")

    avg_ade = float(np.mean([a for a, _ in results.values()]))
    avg_fde = float(np.mean([f for _, f in results.values()]))
    print("\nscene            ade     fde")
    for s, (a, f) in results.items():
        print(f"{s:<14} {a:7.4f} {f:7.4f}")
    print(f"{'average':<14} {avg_ade:7.4f} {avg_fde:7.4f}")
    print(f"reference      {REFERENCE['ade']:7.4f} {REFERENCE['fde']:7.4f} "
          f"(+-{TOLERANCE['ade']:.2f} / +-{TOLERANCE['fde']:.2f}, "
          "informational only)")


if __name__ == "__main__":
    main()
