#!/usr/bin/env python3
"""End-to-end CLI pipeline in a temp directory: generate a synthetic cache,
train briefly, evaluate best-of-20, benchmark latency, export predictions.
Everything goes through the same entry point as the installed `stgcvae`
command."""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stgcvae.cli import main  # noqa: E402

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    cache = tmp / "turns.stgw"
    run_dir = tmp / "run"
    cfg = tmp / "train.cfg"
    cfg.write_text("feature_scale = 4\n"
                   "epochs = 20\nbatch_size = 4\nlr_switch_epoch = 10\n")

    steps = [
        ["gen-synthetic", "--pattern", "turn", "--agents", "2",
         "--windows", "12", "--seed", "0", "--out", str(cache)],
        ["train", "--data", str(cache), "--config", str(cfg),
         "--out", str(run_dir), "--seed", "0"],
        ["evaluate", "--ckpt", str(run_dir / "final.stgc"),
         "--data", str(cache), "--k", "20", "--seed", "0"],
        ["bench", "--ckpt", str(run_dir / "final.stgc"),
         "--agents", "12", "--reps", "50"],
        ["predict", "--ckpt", str(run_dir / "final.stgc"),
         "--data", str(cache), "--k", "3", "--seed", "0",
         "--out", str(tmp / "preds.csv")],
    ]
    for argv in steps:
        print(f"\n$ stgcvae {' '.join(argv)}")
        rc = main(argv)
        assert rc == 0, f"step failed with exit code {rc}"

    head = (tmp / "preds.csv").read_text().splitlines()[:4]
    print("\npreds.csv head:")
    print("\n".join(head))
