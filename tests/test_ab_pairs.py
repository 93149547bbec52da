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
    assert m["pairs_change_higher"] == 4
    assert summary["w.failed"] == {"parent": {"runs": 0, "operations": 0},
                                   "change": {"runs": 1, "operations": 1}}


def test_pairs_cover_every_bench_workload(monkeypatch):
    root = SCRIPT.parents[1]
    spec = importlib.util.spec_from_file_location(
        "workloads", root / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # dataclasses
    spec.loader.exec_module(workloads)
    assert ab_pairs.bench_workloads(root) == list(workloads.WORKLOADS)
