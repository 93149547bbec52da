#!/usr/bin/env python3
"""Criterion 5's overfit run over seeds and BLAS kernels.

    PYTHONPATH=<tree>/src python3 scripts/overfit_sweep.py \\
        --label NAME --out SWEEP.json [--pairs 10] [--kernels native ...]

Each run is the code of the criterion-5 fixture in tests/test_acceptance.py
(300 epochs of batch-1 SGD at lr 0.01 on 8 const-velocity and 8 turn
windows of one agent, feature_scale 4, then best-of-20 evaluation at seed 1)
at one (training seed, corpus seed) pair. Pair i has training seed i (model
init and training rng) and corpus seed 11 + i (const-velocity windows at
that seed, turn windows at twice it), so pair 0 is the fixture itself.

Every run is its own process, with OPENBLAS_CORETYPE set to the kernel
(`native` leaves it unset: the kernels OpenBLAS detects) and
OPENBLAS_VERBOSE=2, so the kernel that OpenBLAS reports is recorded. The
variable only selects kernels in a DYNAMIC_ARCH OpenBLAS build.

Per run the JSON gets the best-of-20 ADE and FDE, the turn and
const-velocity (straight-walker) ADE, whether the criterion passed (ADE
< 0.10) and the training wall time; per kernel, the ADE's median, min, max
and the count under 0.10. The result goes under `--label` in --out, beside
the labels already there. A run takes about 40 s on one core, so 10 pairs
at 4 kernels take about 27 minutes. Not part of the test suite.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

CORPUS_SEED = 11  # the fixture's const-velocity corpus seed
GATE = 0.10


def run(train_seed: int, corpus_seed: int) -> dict:
    """The criterion-5 fixture at one seed pair, in this process."""
    import numpy as np

    from stgcvae import evaluation, model, synthetic, training

    corpus = (synthetic.make_corpus("const-velocity", 1, 8, seed=corpus_seed)
              + synthetic.make_corpus("turn", 1, 8, seed=2 * corpus_seed))
    m = model.TrajCvae(model.ModelConfig(feature_scale=4.0),
                       rng=np.random.default_rng(train_seed))
    tc = training.TrainConfig(epochs=300, batch_size=1, lr_initial=0.01,
                              lr_after=0.01, lr_switch_epoch=150,
                              seed=train_seed)
    state = training.TrainState(params=m.params,
                                rng=np.random.default_rng(tc.seed))
    t0 = time.perf_counter()
    for _ in range(tc.epochs):
        state = training.train_epoch(state, m, corpus, tc)
    wall = time.perf_counter() - t0
    report = evaluation.evaluate_dataset(m, corpus, k=20, seed=1)
    return {"train_seed": train_seed, "corpus_seed": corpus_seed,
            "ade": report.ade, "fde": report.fde,
            "turn_ade": report.per_scene["turn"]["ade"],
            "const_velocity_ade": report.per_scene["const-velocity"]["ade"],
            "pass": report.ade < GATE, "train_s": wall}


def spawn(kernel: str, train_seed: int, corpus_seed: int) -> dict:
    env = dict(os.environ, OPENBLAS_VERBOSE="2", OPENBLAS_NUM_THREADS="1")
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel != "native":
        env["OPENBLAS_CORETYPE"] = kernel
    done = subprocess.run(
        [sys.executable, __file__, "--run", str(train_seed),
         str(corpus_seed)], env=env, capture_output=True, text=True,
        check=True)
    core = re.search(r"Core: (\S+)", done.stdout + done.stderr)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {"kernel": kernel, "reported_core": core and core.group(1),
            **result}


def summary(runs: list[dict]) -> dict:
    ades = [r["ade"] for r in runs]
    return {"runs": len(ades), "median_ade": statistics.median(ades),
            "min_ade": min(ades), "max_ade": max(ades),
            "under_gate": sum(a < GATE for a in ades)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--kernels", nargs="+", default=["native"],
                        help="native, or OPENBLAS_CORETYPE names such as "
                             "SkylakeX Haswell SandyBridge Prescott")
    parser.add_argument("--run", nargs=2, type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run:
        print(json.dumps(run(*args.run)))
        return 0
    if not (args.label and args.out):
        parser.error("--label and --out are required")

    import numpy as np

    runs = [spawn(k, i, CORPUS_SEED + i) for k in args.kernels
            for i in range(args.pairs)]
    for r in runs:
        print(f"{r['kernel']} ({r['reported_core']}) seeds "
              f"{r['train_seed']}/{r['corpus_seed']}: ade {r['ade']:.4f} "
              f"turn {r['turn_ade']:.4f} "
              f"const-velocity {r['const_velocity_ade']:.4f}")
    results = json.loads(args.out.read_text()) if args.out.exists() else {}
    results[args.label] = {
        "numpy": np.__version__,
        "summary": {k: summary([r for r in runs if r["kernel"] == k])
                    for k in args.kernels},
        "runs": runs}
    args.out.write_text(json.dumps(results, indent=1) + "\n")
    for kernel, s in results[args.label]["summary"].items():
        print(f"{kernel}: median ade {s['median_ade']:.4f} "
              f"[{s['min_ade']:.4f}, {s['max_ade']:.4f}], "
              f"{s['under_gate']} of {s['runs']} under {GATE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
