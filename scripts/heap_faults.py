#!/usr/bin/env python3
"""Wall time and minor page faults of the benchmark's jobs, as JSON.

    python3 scripts/heap_faults.py [TREE] [--workload train-small]
        [--seed 101] [--rounds 3] [--columns 20 40 ...]

Imports `stgcvae` from TREE/src (default: this checkout) with one BLAS
thread, writes the workload's inputs for the seed (bench/workloads.py) to a
temporary directory and uses the benchmark's checkpoint
(bench/checkpoint.py, cached under TREE/.bench_work/). Then, each in a
fresh interpreter:

- `train_then_evaluate`: `rounds` rounds of an in-process `stgcvae train`
  job followed by an `stgcvae evaluate --k 20` job, as each round of
  bench/run.py runs them;
- `evaluate_alone`: `rounds` evaluate jobs and nothing before them.

Each job reports its wall seconds and its `ru_minflt` (minor page faults,
from getrusage of the process). A job inherits glibc's dynamic mmap and
trim thresholds from the jobs before it in the process, so an evaluate job
after a train job can fault far less, or far more, than one alone.

With --columns, the train-then-evaluate rounds run once per value, with
`training.TRAIN_COLUMNS` set to it; by default at the tree's own value.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

JOB_SEED = "0"  # bench/run.py's --seed of the program's own calls


def child(args) -> None:
    """Run the jobs in this interpreter and print their figures."""
    sys.path.insert(0, str(args.tree / "src"))
    from stgcvae import cli, training

    if args.columns:
        training.TRAIN_COLUMNS = args.columns[0]
    # the file names bench/workloads.make_inputs writes
    argv = {"train": ["train", "--data", str(args.inputs / "train.stgw"),
                      "--config", str(args.inputs / "train.cfg"), "--out",
                      str(args.inputs / "train-out"), "--seed", JOB_SEED],
            "evaluate": ["evaluate", "--ckpt", str(args.ckpt), "--data",
                         str(args.inputs / "eval.stgw"), "--k", "20",
                         "--seed", JOB_SEED]}
    jobs = ["evaluate"] if args.evaluate_alone else ["train", "evaluate"]
    out = []
    for _ in range(args.rounds):
        for job in jobs:
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv[job])
            if rc != 0:
                sys.exit(f"{job} exited {rc}")
            out.append({"job": job,
                        "wall_s": round(time.perf_counter() - t0, 4),
                        "minflt": resource.getrusage(
                            resource.RUSAGE_SELF).ru_minflt - faults})
    print(json.dumps(out))


def run_child(args, inputs: Path, ckpt: Path, extra: list[str]) -> list:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, __file__, str(args.tree), "--child", "--inputs",
         str(inputs), "--ckpt", str(ckpt), "--rounds", str(args.rounds),
         *extra],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree", nargs="?", type=Path,
                    default=Path(__file__).resolve().parents[1])
    ap.add_argument("--workload", default="train-small")
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--columns", type=int, nargs="+", default=[])
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--evaluate-alone", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--inputs", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--ckpt", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args()
    args.tree = args.tree.resolve()
    if args.child:
        child(args)
        return

    sys.path[:0] = [str(args.tree / "src"), str(args.tree / "bench")]
    import checkpoint
    import workloads

    ckpt = checkpoint.cached_checkpoint(args.tree)
    with tempfile.TemporaryDirectory() as tmp:
        workloads.make_inputs(workloads.WORKLOADS[args.workload], args.seed,
                              Path(tmp))
        report = {"tree": str(args.tree), "workload": args.workload,
                  "seed": args.seed, "train_then_evaluate": {}}
        for columns in args.columns or [None]:
            extra = [] if columns is None else ["--columns", str(columns)]
            report["train_then_evaluate"][columns or "default"] = \
                run_child(args, Path(tmp), ckpt, extra)
        report["evaluate_alone"] = run_child(args, Path(tmp), ckpt,
                                             ["--evaluate-alone"])
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
