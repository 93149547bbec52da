#!/usr/bin/env python3
"""Build the checkpoint that the benchmark's `evaluate` jobs and single
samples use, and cache it per source tree.

The model is paper-sized (23,381 parameters) with feature_scale = 4 and is
trained by plain SGD from a fixed seed, so ADE/FDE come from a model that
has learned something. Training takes about ten seconds, too long to repeat
in every run, so the result is cached under `.bench_work/checkpoints/`,
keyed by a hash of `src/stgcvae/*.py` and of this file: a change to the
program retrains it, and the same tree always yields the same bytes.

Usage: python3 bench/checkpoint.py OUT.stgc
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

SEED = 0
WINDOWS = 24          # synthetic windows, 1-3 agents, patterns cycled
EPOCHS = 40
LEARNING_RATE = 0.01
FEATURE_SCALE = 4.0


def cache_path(root: Path) -> Path:
    h = hashlib.sha256(Path(__file__).read_bytes())
    for path in sorted((root / "src" / "stgcvae").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return root / ".bench_work" / "checkpoints" / f"{h.hexdigest()[:16]}.stgc"


def cached_checkpoint(root: Path) -> Path:
    """Path of the cached checkpoint, building it in a child process first
    if this source tree has none yet."""
    path = cache_path(root)
    if not path.is_file():
        path.parent.mkdir(parents=True, exist_ok=True)
        subprocess.run([sys.executable, __file__, str(path)], check=True,
                       stdout=subprocess.DEVNULL)
    return path


def build(out: Path) -> None:
    import numpy as np
    from stgcvae import model, synthetic, training

    rng = np.random.default_rng(SEED)
    patterns = synthetic.PATTERNS
    corpus = [synthetic.make_window(patterns[i % 3], 1 + (i // 3) % 3, rng)
              for i in range(WINDOWS)]
    m = model.TrajCvae(model.ModelConfig(feature_scale=FEATURE_SCALE),
                       rng=np.random.default_rng(SEED))
    cfg = training.TrainConfig(epochs=EPOCHS, batch_size=1,
                               lr_initial=LEARNING_RATE,
                               lr_after=LEARNING_RATE,
                               lr_switch_epoch=EPOCHS - 1, seed=SEED)
    state = training.TrainState(params=m.params,
                                rng=np.random.default_rng(SEED))
    for _ in range(cfg.epochs):
        state = training.train_epoch(state, m, corpus, cfg)

    # write beside the target, then rename: the sidecar first, so a
    # visible .stgc always has its metadata
    tmp = out.with_name(f"tmp-{os.getpid()}.stgc")
    training.checkpoint(state, m, tmp, cfg)
    os.replace(f"{tmp}.meta", f"{out}.meta")
    os.replace(tmp, out)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.rsplit("Usage: ", 1)[1])
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    build(Path(sys.argv[1]))
