#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs over two source trees.

    python3 scripts/ab_pairs.py --parent PARENT --change CHANGE \\
        --out BENCH_<n>_<name>.json [--pairs 10] [--seconds 50] \\
        [--seed-base 100] [--kernel-pairs 0] [--description TEXT]

PARENT and CHANGE are two checkouts of this repository, for example a
clone checked out at the parent commit and the working tree. The pairs
cover every workload in CHANGE's bench/workloads.py, in its order. Each
pair runs `bench/run.py --trace 0` once in each tree, on the same workload
and seed, one process at a time; the parent runs first in odd pairs and
second in even ones. Pair i of the j-th workload (both counted from 1)
uses seed seed_base * j + i, so by default train-small runs seeds 101,
102, ... and eval-crowd 201, 202, .... Pairs go round the workloads, so a
slow phase of the host touches every workload alike.

With --kernel-pairs N, N alternating pairs of scripts/kernel_timings.py
(this checkout's copy, run against each tree's sources) follow.

The output JSON holds `description`, `environment` (bench/run.py's, from
the first run), `summary` and `runs`. The summary gives, per workload and
metric, each side's median and quartiles (statistics.quantiles, exclusive
method), the parent's interquartile range, the relative change of the
medians and in how many pairs the change read higher and in how many
lower (a tied pair counts for neither); `<workload>.failed`
counts failed runs and operations per side. `runs` holds every run's
result line, or its exit code and the end of its stderr if it failed.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

KERNELS = Path(__file__).resolve().with_name("kernel_timings.py")


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """bench/run.py's result line in `tree`, or the failure's details."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"returncode": proc.returncode,
                "stderr": proc.stderr[-2000:]}
    env = json.loads(lines[0]).get("environment", {})
    return {"result": json.loads(lines[-1]), "environment": env}


def bench_workloads(tree: Path) -> list[str]:
    """The names of the workloads in `tree`'s bench/workloads.py."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path[:0] = ['src', 'bench']; import workloads; "
         "print(*workloads.WORKLOADS, sep='\\n')"],
        cwd=tree, capture_output=True, text=True, check=True)
    return proc.stdout.split()


def run_kernels(tree: Path) -> dict:
    proc = subprocess.run([sys.executable, str(KERNELS), str(tree)],
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        return {"returncode": proc.returncode,
                "stderr": proc.stderr[-2000:]}
    return {"result": {"metrics": {
        name: {"value": value, "unit": "us"}
        for name, value in json.loads(proc.stdout).items()}}}


def commit(tree: Path) -> str:
    """The tree's HEAD commit, with "+changes" if it has uncommitted ones
    (or "unknown" outside git)."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=tree, capture_output=True,
                              text=True, check=False)
    head = git("rev-parse", "--short", "HEAD")
    if head.returncode != 0:
        return "unknown"
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout
    return head.stdout.strip() + ("+changes" if dirty.strip() else "")


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(runs: list[dict]) -> dict:
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict] = {}
        failed = {"parent": {"runs": 0, "operations": 0},
                  "change": {"runs": 0, "operations": 0}}
        for r in runs:
            if r["workload"] != workload:
                continue
            if "result" not in r:
                failed[r["side"]]["runs"] += 1
                continue
            failed[r["side"]]["operations"] += r["result"].get("failed", 0)
            pairs.setdefault(r["pair"], {})[r["side"]] = \
                r["result"]["metrics"]
        complete = [p for p in pairs.values() if len(p) == 2]
        if not complete:
            continue
        for name in complete[0]["parent"]:
            par = [p["parent"][name]["value"] for p in complete]
            chg = [p["change"][name]["value"] for p in complete]
            if None in par or None in chg:
                continue
            p_med, c_med = statistics.median(par), statistics.median(chg)
            p_q1, p_q3 = quartiles(par)
            c_q1, c_q3 = quartiles(chg)
            summary[f"{workload}.{name}"] = {
                "parent_median": p_med, "change_median": c_med,
                "relative_change": (c_med - p_med) / abs(p_med)
                if p_med else None,
                "parent_q1": p_q1, "parent_q3": p_q3,
                "parent_iqr": p_q3 - p_q1,
                "change_q1": c_q1, "change_q3": c_q3,
                "pairs_change_higher": sum(c > p for p, c in zip(par, chg)),
                "pairs_change_lower": sum(c < p for p, c in zip(par, chg)),
                "pairs": len(complete)}
        summary[f"{workload}.failed"] = failed
    return summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--seed-base", type=int, default=100)
    ap.add_argument("--kernel-pairs", type=int, default=0)
    ap.add_argument("--description", default="")
    args = ap.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "bench" / "run.py").is_file():
            ap.error(f"--{side} {tree} holds no bench/run.py")
    workloads = bench_workloads(trees["change"])

    runs, environment = [], {}
    for i in range(1, args.pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for j, workload in enumerate(workloads, start=1):
            seed = args.seed_base * j + i
            for side in order:
                t0 = time.perf_counter()
                out = run_bench(trees[side], workload, seed, args.seconds)
                env = out.pop("environment", {})
                environment = environment or env
                runs.append({"workload": workload, "seed": seed, "pair": i,
                             "side": side, "trace": 0, **out})
                status = "ok" if "result" in out \
                    else f"failed ({out['returncode']})"
                print(f"pair {i} {workload} seed {seed} {side}: {status} "
                      f"in {time.perf_counter() - t0:.0f} s", flush=True)
    for i in range(1, args.kernel_pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for side in order:
            runs.append({"workload": "kernels", "pair": i, "side": side,
                         **run_kernels(trees[side])})
            print(f"kernel pair {i} {side} done", flush=True)

    environment.pop("seed", None)
    environment["commits"] = {side: commit(tree)
                              for side, tree in trees.items()}
    doc = {"description": args.description or (
               f"bench/run.py --seconds {args.seconds:g} --trace 0, "
               f"{args.pairs} alternating pairs per workload "
               f"(parent first in odd pairs), seeds seed_base * j + i with "
               f"seed_base {args.seed_base}; {args.kernel_pairs} pairs of "
               "scripts/kernel_timings.py"),
           "environment": environment,
           "summary": summarize(runs),
           "runs": runs}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{len(runs)} runs -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
