#!/usr/bin/env python3
"""Determinism self-check for the benchmark.

For each workload, runs bench/run.py three times: twice with --seed S and
once with --seed S+1. It checks that the two same-seed runs generate
identical inputs and report identical eval_ade_m, eval_fde_m and
train_loss_final, and that the other seed generates different inputs.

Usage (from the root of a checkout):
    python3 bench/determinism.py [--seed 1]

Exits 0 when every check holds and 1 otherwise.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("train-small", "eval-crowd")
GUARDS = ("eval_ade_m", "eval_fde_m", "train_loss_final")


def run(workload: str, seed: int):
    # a one-second run is one round, which carries every guard
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, check=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    header, result = json.loads(lines[0]), json.loads(lines[-1])
    guards = {g: result["metrics"][g]["value"] for g in GUARDS}
    return header["inputs_sha256"], guards, result["correct"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    ok = True
    for workload in WORKLOADS:
        first = run(workload, args.seed)
        again = run(workload, args.seed)
        other = run(workload, args.seed + 1)
        checks = {
            "runs correct": first[2] and again[2] and other[2],
            "same seed, same inputs": first[0] == again[0],
            "same seed, same quality guards": first[1] == again[1],
            "other seed, other inputs": first[0] != other[0],
        }
        for name, passed in checks.items():
            print(f"{workload}: {name}: {'ok' if passed else 'FAILED'}")
        print(f"{workload}: guards seed {args.seed} {first[1]}, "
              f"seed {args.seed + 1} {other[1]}")
        ok &= all(checks.values())
    print("determinism:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
