#!/usr/bin/env python3
"""Peak memory of each phase of one training chunk, as JSON.

    PYTHONPATH=src python3 scripts/chunk_memory.py [--chunks 6+6+5 24 ...]

For each chunk (a `+`-joined list of window agent counts; by default the
README "Memory" table's five), one `training.chunk_gradients` call over
synthetic windows of the default config runs under tracemalloc after one
warm-up call. The output maps each chunk to the peak of each phase in MiB
above the memory traced when the call starts. The phases split at
`autodiff.backward`'s call and return: `forward`, `backward`, then
`gradient_stage` until the call returns.

The phase hook hands `backward` the only reference to the loss, as
`chunk_gradients` does: a hook that kept the loss would keep the record
alive through backward and raise its peak.
"""

import argparse
import json
import tracemalloc

import numpy as np

from stgcvae import autodiff as ad
from stgcvae import model, synthetic, training

CHUNKS = ("6+5+4+3+2+1+6+5", "6+6+5", "3+4+3", "24", "48")
MIB = 2 ** 20


def chunk_windows(spec: str) -> list:
    rng = np.random.default_rng(0)
    return [synthetic.make_window(
        synthetic.PATTERNS[i % len(synthetic.PATTERNS)], int(n), rng)
        for i, n in enumerate(spec.split("+"))]


def phase_peaks(m: model.TrajCvae, windows: list) -> dict[str, float]:
    """Each phase's tracemalloc peak of one chunk_gradients call, in MiB
    above the traced memory at its start."""
    peaks, backward = {}, ad.backward

    def end_phase(name):
        peaks[name] = (tracemalloc.get_traced_memory()[1] - base) / MIB
        tracemalloc.reset_peak()

    def hooked(loss):
        end_phase("forward")
        box = [loss]
        del loss
        grads = backward(box.pop())
        end_phase("backward")
        return grads

    ad.backward = hooked
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        training.chunk_gradients(m, windows, 0, np.random.default_rng(1))
        end_phase("gradient_stage")
    finally:
        ad.backward = backward
    return {k: round(v, 2) for k, v in peaks.items()}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--chunks", nargs="+", default=CHUNKS,
                    help="agent counts of a chunk's windows, joined by +")
    args = ap.parse_args(argv)
    m = model.TrajCvae(model.ModelConfig(), rng=np.random.default_rng(3))
    chunks = {spec: chunk_windows(spec) for spec in args.chunks}
    training.chunk_gradients(m, chunks[args.chunks[0]], 0,
                             np.random.default_rng(1))  # warm-up
    tracemalloc.start()
    try:
        print(json.dumps({spec: phase_peaks(m, w)
                          for spec, w in chunks.items()}, indent=1))
    finally:
        tracemalloc.stop()


if __name__ == "__main__":
    main()
