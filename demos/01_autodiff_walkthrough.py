#!/usr/bin/env python3
"""Tour of the autodiff core: build a tiny traced computation, backprop it,
and confirm a couple of gradients against finite differences."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stgcvae import autodiff as ad  # noqa: E402

rng = np.random.default_rng(0)

# a small "network": y = mean( prelu(conv_time(x, w, b)) ** 2 ), where
# conv_time adds the bias b to each output channel
x = ad.leaf(rng.normal(size=(3, 10, 2)))       # (channels, time, agents)
w = ad.leaf(rng.normal(size=(4, 3, 3)) * 0.3)  # (out, in, kernel)
b = ad.leaf(rng.normal(size=4) * 0.1)
slope = ad.leaf(np.full(4, 0.25))


def mean_square(h):
    """mean(h ** 2): the sum of every cell, scaled by 1 / cell count."""
    sq = ad.mul(h, h)
    return ad.scale(ad.sum_all(sq), 1.0 / sq.data.size)


h = ad.prelu(ad.conv_time(x, w, b, padding=1), slope)
y = mean_square(h)
print(f"y = {float(y.data):.6f}")

grads = ad.backward(y)
gw = grads.get(w)
print(f"dy/dw shape {gw.shape}, norm {np.linalg.norm(gw):.6f}")

# spot-check two entries against central differences
eps = 1e-6
for idx in [(0, 0, 0), (3, 2, 1)]:
    def f(delta, idx=idx):
        w2 = w.data.copy()
        w2[idx] += delta
        h2 = ad.prelu(ad.conv_time(x, ad.leaf(w2), b, padding=1), slope)
        return float(mean_square(h2).data)
    fd = (f(eps) - f(-eps)) / (2 * eps)
    print(f"w{idx}: analytic {gw[idx]: .8f}  fd {fd: .8f}")
