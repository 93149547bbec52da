"""scripts/ab_pairs.py's summary of alternating parent/change pairs."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ab_pairs.py"
spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)


def run(pair, side, value, failed=0, workload="w"):
    return {"workload": workload, "pair": pair, "side": side,
            "result": {"failed": failed,
                       "metrics": {"m": {"value": value, "unit": "x"}}}}


def test_summary_of_complete_pairs():
    parent = [10.0, 12.0, 11.0, 13.0, 9.0]
    change = [12.0, 11.0, 14.0, 15.0, 10.0]
    runs = [run(i, "parent", p) for i, p in enumerate(parent, 1)] \
        + [run(i, "change", c, failed=i == 2) for i, c in
           enumerate(change, 1)]
    # a failed run, and the pair it leaves incomplete, are left out
    runs += [run(6, "parent", 100.0),
             {"workload": "w", "pair": 6, "side": "change",
              "returncode": 1, "stderr": "boom"}]
    summary = ab_pairs.summarize(runs)
    m = summary["w.m"]
    assert m["pairs"] == 5
    assert (m["parent_median"], m["change_median"]) == (11.0, 12.0)
    assert m["relative_change"] == pytest.approx(1 / 11)
    assert (m["parent_q1"], m["parent_q3"]) == (9.5, 12.5)
    assert m["parent_iqr"] == 3.0
    assert (m["change_q1"], m["change_q3"]) == (10.5, 14.5)
    assert (m["pairs_change_higher"], m["pairs_change_lower"]) == (4, 1)
    assert summary["w.failed"] == {"parent": {"runs": 0, "operations": 0},
                                   "change": {"runs": 1, "operations": 1}}
    # a tied pair counts for neither side
    tied = ab_pairs.summarize([run(1, "parent", 5.0, workload="t"),
                               run(1, "change", 5.0, workload="t"),
                               run(2, "parent", 5.0, workload="t"),
                               run(2, "change", 4.0, workload="t")])["t.m"]
    assert (tied["pairs"], tied["pairs_change_higher"],
            tied["pairs_change_lower"]) == (2, 0, 1)


def test_pairs_cover_every_bench_workload(monkeypatch):
    root = SCRIPT.parents[1]
    spec = importlib.util.spec_from_file_location(
        "workloads", root / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # dataclasses
    spec.loader.exec_module(workloads)
    assert ab_pairs.bench_workloads(root) == list(workloads.WORKLOADS)


def test_kernel_timings_run_on_this_tree():
    """scripts/kernel_timings.py in its own process, as --kernel-pairs runs
    it (about 5 s)."""
    got = ab_pairs.run_kernels(SCRIPT.parents[1])
    assert "stderr" not in got, got.get("stderr")
    metrics = got["result"]["metrics"]
    assert sorted(metrics) == sorted(
        [f"conv_time_{layer}_{part}_us" for layer in ("txp2", "reduce")
         for part in ("fwd", "vjp")]
        + ["prelu_fwd_us", "prelu_vjp_us", "decode_n48_us",
           "sample_futures_n48_k20_us", "sample_n12_k1_us",
           "normalized_adjacency_n48_t20_us"])
    assert all(m["value"] > 0 and m["unit"] == "us"
               for m in metrics.values())
