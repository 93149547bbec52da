#!/usr/bin/env python3
"""The stgcvae benchmark: one workload, one seed, one JSON result line.

Usage (from the root of a checkout):
    python3 bench/run.py --workload train-small --seed 1 --seconds 50 --trace 0

One process acts as one client in a closed loop: each operation starts when
the previous one has ended. A run repeats rounds for about --seconds; a
round is one in-process `stgcvae train` job, one `stgcvae evaluate --k 20`
job and a fixed number of single `sample_trajectory` calls, sized per
workload (see workloads.py and README.md).

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced rounds and prints the per-layer metrics of the traced rounds (per
round) plus the tracing overhead; its spans go to
.bench_work/traces/<workload>-seed<seed>.jsonl.gz.

Metric names and units are read from BENCHMARK.json. The last line of stdout
is {"correct", "attempted", "failed", "metrics"}; the lines before it record
the environment and a readable summary, with the raw wall-time median of
each host-speed-scaled metric.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"
BLAS_THREADS = 1

# fixed before numpy loads its BLAS; child processes inherit it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

if not (ROOT / "src" / "stgcvae" / "__init__.py").is_file():
    sys.exit(f"error: no stgcvae sources under {ROOT / 'src'}; run this "
             "from the root of a stgcvae checkout")
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from stgcvae import cli, data, evaluation, model, training  # noqa: E402
from stgcvae.errors import StgcvaeError  # noqa: E402

import checkpoint  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 7
# --seed of the program's own calls. Fixed, so that model init and sampling
# noise stay the same across workload seeds, which only change the inputs:
# with it, train_loss_final varies 0.5 % across seeds instead of 7.6 %.
JOB_SEED = 0

# runs in a fresh interpreter: what a user's process pays before its first
# operation (numpy comes in through the stgcvae import)
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from stgcvae import cli, data, model
for path in sys.argv[2:-1]:
    data.load_windows(path)
model.load_params(sys.argv[-1])
print(repr(time.perf_counter() - t0))
"""


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        blas = {}
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"numpy": np.__version__, "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"),
            "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "seed": seed}


class Bench:
    """The rounds of one run, their checks and their failure counts."""

    def __init__(self, workload, inputs, ckpt: Path, work: Path):
        self.w, self.inputs, self.ckpt = workload, inputs, ckpt
        self.out_dir = work / "train-out"
        self.clock = speed.HostClock()
        self.first_ckpt = work / "first-final.stgc"
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.reference: dict = {}  # first round's outputs; repeats must match
        # the single-sample client loads its window and checkpoint once
        store, meta = model.load_params(ckpt)
        self.sampler = model.TrajCvae(model.config_from_metadata(meta),
                                      params=store)
        self.window = data.load_windows(inputs.sample)[0]
        self.rng = np.random.default_rng(JOB_SEED)

    # -- one round ---------------------------------------------------------

    def round(self, trace=None):
        """Run one round; returns the raw (train windows/s, eval windows/s,
        sample latencies in s), with None for a failed job. Wall times
        exclude the time of host-speed probes taken during them."""
        train_argv = ["train", "--data", str(self.inputs.train),
                      "--config", str(self.inputs.config),
                      "--out", str(self.out_dir), "--seed", str(JOB_SEED)]
        eval_argv = ["evaluate", "--ckpt", str(self.ckpt),
                     "--data", str(self.inputs.eval), "--k", "20",
                     "--seed", str(JOB_SEED)]
        if trace is not None:
            trace.install()
        try:
            train = _cli(train_argv, self.clock)
            evaluate = _cli(eval_argv, self.clock)
            samples = self._samples(workloads.SAMPLES_PER_ROUND)
        finally:
            if trace is not None:
                trace.uninstall()
        return (self._check_train(*train), self._check_eval(*evaluate),
                self._check_samples(*samples))

    def _samples(self, count):
        latencies, outputs = [], []
        for _ in range(count):
            spent, t0 = self.clock.spent, time.perf_counter()
            try:
                pred = evaluation.sample_trajectory(self.sampler, self.window,
                                                    self.rng)
            except Exception as exc:  # counted as a failed sample
                pred = exc
            latencies.append(time.perf_counter() - t0
                             - (self.clock.spent - spent))
            outputs.append(pred)
        return latencies, outputs

    def _fail(self, ops: int, problem: str):
        self.failed += ops
        if len(self.errors) < 10:
            self.errors.append(problem)

    def _check_train(self, rc, out, err, wall):
        ops = self.w.train_windows * workloads.EPOCHS
        self.attempted += ops
        problem = _train_problem(rc, out, err, self.out_dir)
        if problem is None:
            blob = (self.out_dir / "final.stgc").read_bytes()
            if "train" not in self.reference:
                self.reference["train"] = blob
                for suffix in ("", ".meta"):
                    shutil.copyfile(f"{self.out_dir / 'final.stgc'}{suffix}",
                                    f"{self.first_ckpt}{suffix}")
            elif blob != self.reference["train"]:
                problem = "final.stgc differs from the first round's"
        if problem is not None:
            self._fail(ops, f"train: {problem}")
            return None
        return ops / wall

    def _check_eval(self, rc, out, err, wall):
        ops = self.w.eval_windows
        self.attempted += ops
        problem, scores = _eval_problem(rc, out, err, ops)
        if problem is None:
            self.reference.setdefault("eval", scores)
            if scores != self.reference["eval"]:
                problem = f"ade/fde {scores} differ from the first round's"
        if problem is not None:
            self._fail(ops, f"evaluate: {problem}")
            return None
        return ops / wall

    def _check_samples(self, latencies, outputs):
        shape = (self.window.pred_len, self.window.n_agents, 2)
        good = []
        for latency, pred in zip(latencies, outputs):
            self.attempted += 1
            if isinstance(pred, Exception):
                self._fail(1, f"sample: {type(pred).__name__}: {pred}")
            elif pred.shape != shape or not np.isfinite(pred).all():
                self._fail(1, f"sample: shape {pred.shape} (want {shape}) "
                              "or non-finite values")
            else:
                good.append(latency)
        return good

    # -- quality guard -----------------------------------------------------

    def train_loss_final(self) -> float:
        """Mean total loss of the job's final.stgc over the held-out set, at
        a fixed rng and epoch, through training.window_gradients."""
        store, meta = model.load_params(self.first_ckpt)
        m = model.TrajCvae(model.config_from_metadata(meta), params=store)
        rng = np.random.default_rng(0)
        return float(np.mean([
            training.window_gradients(m, w, workloads.EPOCHS, rng)[1].total
            for w in data.load_windows(self.inputs.holdout)]))


def _cli(argv, clock: speed.HostClock):
    """In-process `stgcvae <argv>`: (return code, stdout, stderr, wall s
    less the clock's probes)."""
    out, err = io.StringIO(), io.StringIO()
    spent, t0 = clock.spent, time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a failed job, not a crash
        rc = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0 - (clock.spent - spent)
    return rc, out.getvalue(), err.getvalue(), wall


def _train_problem(rc, out, err, out_dir: Path):
    if rc != 0:
        return f"exit {rc}: {err.strip()[-300:]}"
    losses = [float(v) for v in re.findall(r"total=(\S+)", out)]
    try:
        with open(out_dir / "metrics.csv") as fh:
            next(fh)
            for line in fh:
                losses += [float(v) for v in line.split(",")[2:]]
        store, _ = model.load_params(out_dir / "final.stgc")
    except (OSError, StopIteration, ValueError, StgcvaeError) as exc:
        return f"unreadable metrics.csv or final.stgc: {exc}"
    if not losses or not np.isfinite(losses).all():
        return "missing or non-finite loss"
    if not all(np.isfinite(v).all() for _, v in store.items()):
        return "non-finite parameter in final.stgc"
    return None


def _eval_problem(rc, out, err, expected_windows):
    if rc != 0:
        return f"exit {rc}: {err.strip()[-300:]}", None
    top = dict(re.findall(r"^(\w+) = (\S+)$", out, re.M))
    try:
        scores = (float(top["ade"]), float(top["fde"]))
        windows = int(top["windows"])
    except (KeyError, ValueError):
        return "report lacks ade, fde or windows", None
    per_scene = [int(n) for n in re.findall(r"^  windows = (\d+)$", out, re.M)]
    if not np.isfinite(scores).all():
        return f"non-finite ade/fde {scores}", None
    if windows != expected_windows or sum(per_scene) != windows:
        return (f"window counts: report {windows}, per-scene sum "
                f"{sum(per_scene)}, cache {expected_windows}"), None
    return None, scores


def measure_setup(bench: Bench) -> list[float]:
    """Raw set-up seconds of SETUP_REPS fresh interpreters, with a host
    speed probe after each (the clock is stopped: a probe beside the child
    would slow it)."""
    argv = [sys.executable, "-c", SETUP_CODE, str(ROOT / "src"),
            str(bench.inputs.train), str(bench.inputs.eval),
            str(bench.inputs.sample), str(bench.ckpt)]
    times = []
    for _ in range(SETUP_REPS):
        times.append(float(subprocess.run(
            argv, cwd=ROOT, check=True, timeout=60, capture_output=True,
            text=True).stdout))
        bench.clock.tick()
    return times


def _median(values):
    return statistics.median(values) if values else None


def _another_round(rounds: int, elapsed: float, seconds: float) -> bool:
    """At least one round; then another only if, at the mean round time so
    far, it ends closer to `seconds` than stopping now would."""
    return rounds == 0 or elapsed + elapsed / rounds / 2 < seconds


class Timings:
    """Raw per-job figures of some rounds: windows/s of each train and
    evaluate job, seconds of each single sample."""

    def __init__(self):
        self.raw = {"train": [], "eval": [], "sample": []}

    def add(self, result):
        train, evaluate, latencies = result
        self.raw["train"] += [train] if train is not None else []
        self.raw["eval"] += [evaluate] if evaluate is not None else []
        self.raw["sample"] += latencies


# (metric, Timings key, unit per Timings unit); each is a median over jobs,
# scaled to the nominal host speed: a rate x the factor, a time / it
TIMED = (("train_windows_per_s", "train", 1.0),
         ("eval_windows_per_s", "eval", 1.0),
         ("sample_p50_ms", "sample", 1e3))


def timed_metrics(timings: Timings, factor: float):
    """The timed end-to-end metrics, and summary lines that give each one's
    raw median."""
    metrics, notes = {}, []
    for name, key, unit in TIMED:
        if timings.raw[key]:
            raw = _median(timings.raw[key]) * unit
            metrics[name] = raw / factor if key == "sample" else raw * factor
            notes.append(f"{name}: raw median {raw:.6g}")
    return metrics, notes


def untraced(bench: Bench, seconds: float):
    timings = Timings()
    rounds = 0
    t0 = time.perf_counter()
    with bench.clock:
        while _another_round(rounds, time.perf_counter() - t0, seconds):
            timings.add(bench.round())
            rounds += 1
    factor = bench.clock.factor()
    metrics, notes = timed_metrics(timings, factor)
    notes.append(f"host slowness factor {factor:.4f} (median of "
                 f"{len(bench.clock.probes)} probes over NOMINAL_S; scaled = "
                 f"raw x factor for a rate, raw / factor for a time)")
    metrics["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if "train" in bench.reference:
        metrics["train_loss_final"] = bench.train_loss_final()
    if "eval" in bench.reference:
        metrics["eval_ade_m"], metrics["eval_fde_m"] = bench.reference["eval"]
    latencies = timings.raw["sample"]
    notes.insert(0, f"rounds = {rounds}: {len(timings.raw['train'])} train "
                    f"jobs, {len(timings.raw['eval'])} evaluate jobs, "
                    f"{len(latencies)} samples passed")
    if len(latencies) >= 1000:
        # printed, not gated: on a shared host its run-to-run spread is
        # 19-60 % (see README)
        p99 = np.percentile(latencies, 99) * 1e3
        notes.append(f"sample_p99_ms = {p99 / factor} ms "
                     f"(raw {p99:.6g}; not gated)")
    return metrics, notes


def traced(bench: Bench, seconds: float, names, trace_path: Path):
    trace = tracer.Tracer()
    plain, timed = Timings(), Timings()
    rounds = 0
    t0 = time.perf_counter()
    while _another_round(rounds, time.perf_counter() - t0, seconds):
        plain.add(bench.round())
        timed.add(bench.round(trace))
        rounds += 1
    metrics = trace.metrics(names, rounds)
    # overhead as extra time per operation: rates invert, latencies do not
    for name, key, _ in TIMED:
        a, b = _median(plain.raw[key]), _median(timed.raw[key])
        ratio = (a / b if key != "sample" else b / a) if a and b else None
        metrics[f"trace.overhead.{name}"] = None if ratio is None \
            else ratio - 1
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace.write(trace_path)
    notes = [f"rounds = {rounds} untraced + {rounds} traced; per-layer values "
             f"are per traced round; {len(trace.start)} spans -> "
             f"{trace_path.relative_to(ROOT)}"]
    return metrics, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    # metric names and units come from BENCHMARK.json
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    WORK.mkdir(exist_ok=True)
    ckpt = checkpoint.cached_checkpoint(ROOT)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        inputs = workloads.make_inputs(workload, args.seed, work)
        digest = inputs.digest()
        bench = Bench(workload, inputs, ckpt, work)
        if args.trace:
            metrics, notes = traced(
                bench, args.seconds, units,
                WORK / "traces" / f"{workload.name}-seed{args.seed}.jsonl.gz")
        else:
            setup = measure_setup(bench)
            metrics, notes = untraced(bench, args.seconds)
            metrics["setup_s"] = (statistics.median(setup)
                                  / bench.clock.factor())
            notes.append(f"setup_s: raw median {statistics.median(setup):.6g}"
                         f"; raw s of {len(setup)} fresh interpreters: "
                         + ", ".join(f"{s:.4f}" for s in setup))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result_metrics = {name: {"value": metrics.get(name), "unit": unit}
                      for name, unit in units.items()}
    missing = [n for n, m in result_metrics.items() if m["value"] is None]
    correct = bench.failed == 0 and not bench.errors and not missing
    print(json.dumps({"workload": workload.name, "inputs_sha256": digest,
                      "environment": environment(args.seed)}))
    for line in notes + [f"error: {e}" for e in bench.errors] \
            + [f"unmeasured: {n}" for n in missing]:
        print(line)
    for name, m in result_metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(f"attempted = {bench.attempted}, failed = {bench.failed}")
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
