"""Spans around calls into stgcvae's public functions, installed from the
benchmark's side only for traced rounds.

`Tracer.install` replaces module attributes and class methods with timing
wrappers; `uninstall` puts the originals back. Names that a module imported
directly (`training.to_displacements`, `training.save_params`, ...) are
patched where they are looked up. Backward time is attributed to an op kind
by wrapping the `vjp` of every Value a wrapped op returns.

A span records its name, start, end, parent span and operation id. One
operation is one trained window (`training.window_gradients`), one evaluated
window (`evaluation.best_of_k`) or one sample taken outside best-of-K
(`evaluation.sample_trajectory`); spans inside it carry its id. Spans live
in flat arrays in memory and are written out by `write`.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array

import numpy as np

from stgcvae import (autodiff, cli, data, evaluation, graph, losses, model,
                     training)

OP_KINDS = ("conv_time", "mix_agents", "prelu", "add_bias", "transpose_ct")
# every other autodiff op; names the program no longer has are skipped
ELEMENTWISE = ("add", "sub", "mul", "scale", "neg", "exp", "log", "tanh",
               "reciprocal", "clamp", "dropout", "matmul", "concat_channels",
               "slice_time", "sum_all", "mean_all", "reparameterize")

# the span stat behind each per-layer metric <span>.<stat>: (span name
# suffix, stat). fwd_s is self time, so nested elementwise ops
# (reparameterize -> add) count once.
SPAN_STATS = {"calls": ("", "calls"), "s": ("", "s"), "self_s": ("", "self_s"),
              "fwd_s": ("", "self_s"), "bwd_s": (".bwd", "s")}


class _TimedVjp:
    """A Value's vjp, run inside a backward span of its op kind."""

    __slots__ = ("tracer", "nid", "fn")

    def __init__(self, tracer, nid, fn):
        self.tracer, self.nid, self.fn = tracer, nid, fn

    def __call__(self, g):
        return self.tracer.call(self.nid, self.fn, (g,), {})


def _count_nodes(loss) -> int:
    seen = {loss.nid}
    stack = [loss]
    while stack:
        for parent in stack.pop().parents:
            if parent.nid not in seen:
                seen.add(parent.nid)
                stack.append(parent)
    return len(seen)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.backward_nodes: list[int] = []
        self._stack = [-1]
        self._op = 0
        self._next_op = 1
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, nid, fn, args, kwargs, new_op=False):
        idx = len(self.start)
        saved_op = self._op
        if new_op and saved_op == 0:
            self._op = self._next_op
            self._next_op += 1
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()
            self._op = saved_op

    def _span(self, name, fn, new_op=False):
        nid = self._nid(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(nid, fn, args, kwargs, new_op)
        return wrapper

    def _op_span(self, kind, fn):
        nid = self._nid(f"autodiff.{kind}")
        bwd = self._nid(f"autodiff.{kind}.bwd")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self.call(nid, fn, args, kwargs)
            # an op that returns another op's output keeps the inner kind
            if out.vjp is not None and not isinstance(out.vjp, _TimedVjp):
                out.vjp = _TimedVjp(self, bwd, out.vjp)
            return out
        return wrapper

    def _backward_span(self, fn):
        nid = self._nid("autodiff.backward")

        @functools.wraps(fn)
        def wrapper(loss):
            grads = self.call(nid, fn, (loss,), {})
            self.backward_nodes.append(_count_nodes(loss))
            return grads
        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, make):
        is_dict = isinstance(owner, dict)
        old = owner.get(attr) if is_dict else getattr(owner, attr, None)
        if old is None:
            return
        new = make(old)
        if is_dict:
            owner[attr] = new
        else:
            setattr(owner, attr, new)
        self._patches.append((owner, attr, old))

    def install(self) -> None:
        span = lambda name, new_op=False: (
            lambda fn: self._span(name, fn, new_op))
        op = lambda kind: lambda fn: self._op_span(kind, fn)

        for kind in OP_KINDS:
            self._patch(autodiff, kind, op(kind))
        for name in ELEMENTWISE:
            self._patch(autodiff, name, op("elementwise"))
        self._patch(losses, "_channel", op("elementwise"))
        self._patch(autodiff, "backward", self._backward_span)

        for method in ("prior_forward", "recog_forward", "decode",
                       "traced_params"):
            self._patch(model.TrajCvae, method, span(f"model.{method}"))
        for owner in (model, training):
            self._patch(owner, "load_params", span("model.load_params"))
            self._patch(owner, "save_params", span("model.save_params"))
        self._patch(graph, "normalized_adjacency",
                    span("graph.normalized_adjacency"))
        self._patch(data, "load_windows", span("data.load_windows"))
        for owner in (data, training, evaluation):
            self._patch(owner, "to_displacements",
                        span("data.to_displacements"))
        for name in ("total_loss", "bivariate_nll", "kl_diag_gaussians"):
            self._patch(losses, name, span(f"losses.{name}"))
        self._patch(losses.MetricsLog, "append",
                    span("losses.MetricsLog.append"))
        self._patch(training, "train_epoch", span("training.train_epoch"))
        self._patch(training, "window_gradients",
                    span("training.window_gradients", new_op=True))
        self._patch(training, "checkpoint", span("training.checkpoint"))
        self._patch(evaluation, "sample_trajectory",
                    span("evaluation.sample_trajectory", new_op=True))
        self._patch(evaluation, "best_of_k",
                    span("evaluation.best_of_k", new_op=True))
        self._patch(evaluation, "benchmark_inference",
                    span("evaluation.benchmark_inference"))
        for cmd in ("train", "evaluate"):
            # main() dispatches through the table, not the module attribute
            self._patch(cli._COMMANDS, cmd, span(f"cli.cmd_{cmd}"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    # -- results -----------------------------------------------------------

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: name, start, end, parent, op."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([self.names[self.name[i]], self.start[i],
                                     self.end[i], self.parent[i],
                                     self.op[i]]) + "\n")

    def metrics(self, names, rounds: int) -> dict[str, float]:
        """Per-layer stats per traced round for each of `names` that reads
        a span stat, plus the waste ratios and nodes per backward."""
        name = np.frombuffer(self.name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        op = np.frombuffer(self.op, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        n, k = len(dur), len(self.names)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        table = {"calls": np.bincount(name, minlength=k),
                 "s": np.bincount(name, weights=dur, minlength=k),
                 "self_s": np.bincount(name, weights=dur - child,
                                       minlength=k)}

        def stat(span_name, which):
            i = self._ids.get(span_name)
            return 0.0 if i is None else float(table[which][i])

        def is_(span_name):
            return name == self._ids.get(span_name, -1)

        def inside(span_name):
            # spans with an ancestor called span_name; parents precede
            # children, so propagating one level per pass converges
            target = is_(span_name)
            up = np.where(has_parent, parent, 0)
            under = np.zeros(n, dtype=bool)
            while True:
                new = has_parent & (target[up] | under[up])
                if np.array_equal(new, under):
                    return under
                under = new

        out = {}
        for metric in names:
            span_name, _, key = metric.rpartition(".")
            if key in SPAN_STATS:
                suffix, which = SPAN_STATS[key]
                out[metric] = stat(span_name + suffix, which) / rounds

        adjacency = is_("graph.normalized_adjacency")
        out["graph.adjacency_calls_per_window"] = float(
            (adjacency & inside("evaluation.best_of_k")).sum()
            / max(stat("evaluation.best_of_k", "calls"), 1))
        in_epoch = is_("training.window_gradients") \
            & inside("training.train_epoch")
        trained = int(in_epoch.sum())
        out["graph.adjacency_calls_per_trained_window"] = float(
            (adjacency & np.isin(op, op[in_epoch])).sum() / max(trained, 1))
        out["training.useful_pass_ratio"] = trained / max(
            stat("training.window_gradients", "calls"), 1)
        out["autodiff.nodes_per_backward"] = float(
            np.mean(self.backward_nodes)) if self.backward_nodes else 0.0
        cmd_eval = stat("cli.cmd_evaluate", "s")
        out["evaluation.self_bench_share"] = (
            stat("evaluation.benchmark_inference", "s") / cmd_eval
            if cmd_eval else 0.0)
        return out
