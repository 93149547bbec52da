#!/usr/bin/env python3
"""Timings of the model's hottest kernels in one source tree.

    python3 scripts/kernel_timings.py [TREE]

Imports `stgcvae` from TREE/src (default: this checkout), with one BLAS
thread, and prints one JSON object of microseconds, each the best of 7
repeats of a timed loop:

- `conv_time_txp2_fwd_us` / `_vjp_us`: conv_time at the decoder's second
  time-extrapolation input, (20, 24, 48) in the channels-last layout that
  conv_time and mix_agents outputs have, K = 3, padding 1 (the forward on
  constant operands, so nothing is recorded; the VJP of a recorded call);
- `conv_time_reduce_fwd_us` / `_vjp_us`: the recognition reduction,
  (24, 20, 12) channels-last, K = 13, padding 0;
- `prelu_fwd_us` / `_vjp_us`: prelu at (24, 20, 48), channels-last;
- `decode_n48_us`: one decode of 48 latent columns at N = 48 on constant
  parameters, so nothing is recorded;
- `sample_futures_n48_k20_us`: one best-of-20 `sample_futures` at N = 48;
- `sample_n12_k1_us`: one single-sample `sample_futures` at N = 12;
- `normalized_adjacency_n48_t20_us`: the adjacency of a (20, 48, 2)
  position block.

The inputs are seeded, so two trees time the same arrays.
scripts/ab_pairs.py runs this in alternation on two trees, so it uses only
API that older trees share (constants are built with `ad.Value` and the
displacement features with numpy).
"""

import json
import os
import sys
import timeit
from pathlib import Path


def best_us(fn, number: int) -> float:
    return min(timeit.repeat(fn, number=number, repeat=7)) / number * 1e6


def channels_last(a):
    return a.transpose(1, 2, 0).copy().transpose(2, 0, 1)


def main() -> None:
    tree = Path(sys.argv[1] if len(sys.argv) > 1
                else Path(__file__).resolve().parents[1])
    sys.path.insert(0, str(tree / "src"))
    # one BLAS thread, as bench/run.py: fixed before numpy loads its BLAS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import numpy as np

    from stgcvae import autodiff as ad
    from stgcvae import data, evaluation, graph, model, synthetic

    gen = np.random.default_rng(0)
    out = {}

    def conv(name, shape, c_out, k, padding, number):
        x = channels_last(gen.standard_normal(shape))
        kernel = gen.standard_normal((c_out, shape[0], k))
        bias = gen.standard_normal(c_out)
        out[f"conv_time_{name}_fwd_us"] = best_us(
            lambda: ad.conv_time(ad.Value(x), ad.Value(kernel),
                                 ad.Value(bias), padding), number)
        y = ad.conv_time(ad.leaf(x), ad.leaf(kernel), ad.leaf(bias), padding)
        g = gen.standard_normal(y.shape)
        out[f"conv_time_{name}_vjp_us"] = best_us(lambda: y.vjp(g), number)

    conv("txp2", (20, 24, 48), 20, 3, 1, 300)
    conv("reduce", (24, 20, 12), 24, 13, 0, 300)

    x = channels_last(gen.standard_normal((24, 20, 48)))
    slope = np.full(24, 0.25)
    out["prelu_fwd_us"] = best_us(
        lambda: ad.prelu(ad.Value(x), ad.Value(slope)), 300)
    y = ad.prelu(ad.leaf(x), ad.leaf(slope))
    g = gen.standard_normal(y.shape)
    out["prelu_vjp_us"] = best_us(lambda: y.vjp(g), 300)

    m = model.TrajCvae(model.ModelConfig(), rng=np.random.default_rng(3))
    window = synthetic.make_window("turn", 48, np.random.default_rng(1))
    obs_pos = window.positions[:data.OBS_LEN]
    adj = graph.normalized_adjacency(obs_pos)
    z = gen.standard_normal((m.config.latent_len, data.OBS_LEN, 48))
    p = {name: ad.Value(v) for name, v in m.params.items()}
    disp = np.zeros((2,) + obs_pos.shape[:2])
    disp[:, 1:] = np.diff(obs_pos, axis=0).transpose(2, 0, 1)
    obs = m.observe(p, ad.Value(disp), adj)
    out["decode_n48_us"] = best_us(lambda: m.decode(p, ad.Value(z), obs), 50)
    out["sample_futures_n48_k20_us"] = best_us(
        lambda: evaluation.sample_futures(m, window,
                                          np.random.default_rng(11), 20), 5)
    window = synthetic.make_window("turn", 12, np.random.default_rng(2))
    rng = np.random.default_rng(13)
    out["sample_n12_k1_us"] = best_us(
        lambda: evaluation.sample_futures(m, window, rng, 1), 200)
    positions = gen.uniform(-5, 5, (20, 48, 2))
    out["normalized_adjacency_n48_t20_us"] = best_us(
        lambda: graph.normalized_adjacency(positions), 200)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
