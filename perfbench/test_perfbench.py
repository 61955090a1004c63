"""The benchmark's own tests: result shape in smoke mode, never timings.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import spans
from run import tail

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_result_shape(workload, trace):
    p = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, p.stderr
    assert result["failed"] == 0 and result["attempted"] >= 11
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], (int, float))


def test_refuses_a_tree_without_perfex(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "holdout", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode != 0 and p.stdout == ""


def test_tail_keeps_ten_samples_beyond():
    value, rank, n = tail([float(v) for v in range(40, 0, -1)])
    assert (value, rank, n) == (30.0, 30, 40)


def test_self_time_subtracts_the_union_of_overlapping_children():
    doc = {
        "spawn_ns": 0, "main_ns": 5, "wrapper_ns": 0,
        "spans": [
            {"id": 0, "name": "splitter.search", "start": 10, "end": 110, "parent": None,
             "attrs": {"rows": 9, "found": True}},
            # two worker threads, overlapping in [40, 60)
            {"id": 1, "name": "metrics.eval", "start": 20, "end": 60, "parent": 0,
             "attrs": {"rows": 4, "undefined": False}},
            {"id": 2, "name": "metrics.eval", "start": 40, "end": 80, "parent": 0,
             "attrs": {"rows": 5, "undefined": True}},
        ],
    }
    m = spans.layer_metrics([doc])
    assert m["splitter.search_s"] == pytest.approx(100e-9)
    assert m["splitter.search_self_s"] == pytest.approx(40e-9)
    assert m["metrics.eval_s"] == pytest.approx(80e-9)
    assert m["splitter.metric_calls"] == 2
    assert m["metrics.undefined_ratio"] == 0.5
    assert m["cli.startup_s"] == pytest.approx(5e-9)


def test_self_time_leaves_out_the_wrappers_cost_around_each_child():
    doc = {
        "spawn_ns": 0, "main_ns": 5, "wrapper_ns": 4,
        "spans": [
            {"id": 0, "name": "tree.build", "start": 0, "end": 100, "parent": None,
             "attrs": {"leaves": 1, "depth": 0}},
            {"id": 1, "name": "splitter.search", "start": 10, "end": 20, "parent": 0,
             "attrs": {"rows": 9, "found": False}},
            {"id": 2, "name": "splitter.search", "start": 50, "end": 60, "parent": 0,
             "attrs": {"rows": 9, "found": False}},
        ],
    }
    m = spans.layer_metrics([doc])
    assert m["tree.build_self_s"] == pytest.approx((100 - 2 * (10 + 4)) * 1e-9)


def _result_line(workload, seed, wall, failed=0, correct=True):
    result = {"correct": correct, "attempted": 12, "failed": failed,
              "metrics": {"wall_s_p50": {"value": wall, "unit": "s"}}}
    return json.dumps({"workload": workload, "seed": seed, "trace": 0, "result": result})


def test_compare_withholds_a_gain_when_the_change_fails_more(tmp_path):
    parent, faster, failing = (tmp_path / f for f in ("p.jsonl", "c.jsonl", "f.jsonl"))
    parent.write_text("\n".join(_result_line("w", s, 2.0 + 0.01 * s) for s in range(10)))
    faster.write_text("\n".join(_result_line("w", s, 1.0 + 0.01 * s) for s in range(10)))
    failing.write_text("\n".join(
        _result_line("w", s, 1.0 + 0.01 * s, failed=int(s == 3), correct=s != 3)
        for s in range(10)))

    def verdicts(change):
        rows = compare.report(parent, change)
        assert any("failed/attempted: parent 0/120" in r for r in rows)
        return [r.split()[-1] for r in rows if " wall_s_p50 " in r]

    assert verdicts(faster) == ["better"]
    assert verdicts(failing) == ["failed"]
