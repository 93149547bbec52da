#!/usr/bin/env python3
"""Train on a small synthetic corpus and watch best-of-20 ADE/FDE against
the constant-velocity baseline. ~1 minute on one core; the turn windows
are where the learned model separates from the baseline."""

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stgcvae import (evaluation, model, synthetic,  # noqa: E402
                     training)

EPOCHS = 150

corpus = (synthetic.make_corpus("const-velocity", 1, 8, seed=11)
          + synthetic.make_corpus("turn", 1, 8, seed=22))

cfg = model.ModelConfig(feature_scale=4.0)
m = model.TrajCvae(cfg, rng=np.random.default_rng(0))
tc = training.TrainConfig(epochs=EPOCHS, batch_size=1, lr_initial=0.01,
                          lr_after=0.01, lr_switch_epoch=EPOCHS // 2, seed=0)
state = training.TrainState(params=m.params, rng=np.random.default_rng(0))

t0 = time.perf_counter()
for epoch in range(EPOCHS):
    state = training.train_epoch(state, m, corpus, tc)
    if (epoch + 1) % 30 == 0:
        rep = evaluation.evaluate_dataset(m, corpus, k=20, seed=1)
        print(f"epoch {epoch + 1:3d}: best-of-20 ade={rep.ade:.3f} "
              f"fde={rep.fde:.3f} ({time.perf_counter() - t0:.0f}s)")

rep = evaluation.evaluate_dataset(m, corpus, k=20, seed=1)
turn_base = np.mean([evaluation.constant_velocity_baseline(w)[0]
                     for w in corpus if w.scene == "turn"])
print("\nper-scene best-of-20:")
for scene, s in rep.per_scene.items():
    print(f"  {scene:<16} ade={s['ade']:.3f} fde={s['fde']:.3f}")
print(f"const-velocity baseline on turn windows: ade={turn_base:.3f}")
