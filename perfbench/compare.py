#!/usr/bin/env python3
"""Compare two result sets: one row per workload and metric, with a verdict.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds one JSON line per benchmark run, as ``series.py`` writes
them: ``{"workload", "seed", "trace", "result"}``.  Runs of the two sets are
paired by workload, trace mode and seed.  The verdict follows the pairs rule:

- ``better``: the change wins at least 9 in 10 pairs (ties count for
  neither) and the medians differ by more than the parent's quartile
  spread (Q3 - Q1);
- ``worse``: the same rule with the sides swapped;
- ``unresolved``: neither;
- ``failed``: in place of ``better`` when the change's runs failed more
  operations than the parent's or any of them was not ``correct``; a gain
  does not count then.

Above each workload's rows, one line gives each side's failed and attempted
operations and its runs that were not ``correct``.

``bound`` is the end-to-end bound from BENCHMARK.json, and ``in_bound``
says whether the change's median is no worse than the parent's by more than
that share; per-layer metrics have no bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load(path) -> dict:
    """{(workload, trace): {seed: run}} from a JSONL result set, where a run
    is ``{"metrics": {metric: value}, "correct", "attempted", "failed"}``."""
    out: dict = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            run = json.loads(line)
            result = run["result"]
            out.setdefault((run["workload"], run["trace"]), {})[run["seed"]] = {
                "metrics": {k: m["value"] for k, m in result["metrics"].items()},
                **{k: result[k] for k in ("correct", "attempted", "failed")},
            }
    return out


def failures(runs: list[dict]) -> tuple[int, int, int]:
    """(failed operations, attempted operations, runs not correct)."""
    return (sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs),
            sum(1 for r in runs if not r["correct"]))


def metric_specs() -> dict[str, dict]:
    doc = json.loads(BENCHMARK.read_text())
    return {m["name"]: m for m in doc["end_to_end"] + doc["per_layer"]}


def verdict(parent: list[float], change: list[float], lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    q1, p_med, q3 = quartiles(parent)
    gap = abs(statistics.median(change) - p_med)
    if gap > q3 - q1:
        if wins >= WIN_SHARE * len(parent):
            return "better"
        if losses >= WIN_SHARE * len(parent):
            return "worse"
    return "unresolved"


def report(parent_path, change_path) -> list[str]:
    specs = metric_specs()
    parent, change = load(parent_path), load(change_path)
    lines = [f"{'workload':12} {'metric':28} {'pairs':>5} {'parent q1/med/q3':>30} "
             f"{'change q1/med/q3':>30} {'bound':>6} {'in_bound':>8}  verdict"]
    for key in sorted(parent.keys() & change.keys()):
        seeds = sorted(parent[key].keys() & change[key].keys())
        p_fail = failures([parent[key][s] for s in seeds])
        c_fail = failures([change[key][s] for s in seeds])
        lines.append(f"{key[0]:12} failed/attempted: parent {p_fail[0]}/{p_fail[1]} "
                     f"({p_fail[2]} runs not correct), change {c_fail[0]}/{c_fail[1]} "
                     f"({c_fail[2]} runs not correct)")
        change_failed = c_fail[0] > p_fail[0] or c_fail[2] > 0
        for name in parent[key][seeds[0]]["metrics"] if seeds else ():
            spec = specs.get(name, {})
            p = [parent[key][s]["metrics"][name] for s in seeds]
            c = [change[key][s]["metrics"][name] for s in seeds]
            lower = spec.get("better", "lower") == "lower"
            bound = spec.get("bound")
            in_bound = "-"
            if bound is not None:
                limit = statistics.median(p) * (1 + bound if lower else 1 - bound)
                ok = statistics.median(c) <= limit if lower else statistics.median(c) >= limit
                in_bound = "yes" if ok else "no"
            v = verdict(p, c, lower)
            if v == "better" and change_failed:
                v = "failed"
            fmt = "{:9.4g} {:9.4g} {:9.4g}"
            lines.append(
                f"{key[0]:12} {name:28} {len(seeds):5} {fmt.format(*quartiles(p)):>30} "
                f"{fmt.format(*quartiles(c)):>30} {bound if bound is not None else '-':>6} "
                f"{in_bound:>8}  {v}"
            )
    return lines


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    print("\n".join(report(sys.argv[1], sys.argv[2])))
