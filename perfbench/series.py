#!/usr/bin/env python3
"""Run the benchmark over many seeds and report each metric's spread.

    python3 perfbench/series.py --workloads fit-numeric,holdout --seeds 0-9 \\
        --out results/

writes ``results/<checkout name>.jsonl`` (one line per run) and prints, per
workload and metric, the quartiles over seeds and the spread
``(Q3 - Q1) / median`` next to the metric's bound.  With several
``--checkout`` directories (for example a parent and a change, each a full
checkout with its own copy of this benchmark), the checkouts run in turn
for every seed and the first to run alternates from seed to seed; compare
the files with ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import load, metric_specs, quartiles

ROOT = Path(__file__).resolve().parent.parent
# Every checkout runs for this benchmark's run length, so paired runs match.
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_one(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(RUN_SECONDS), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(argv)} failed:\n{proc.stderr}")
    if proc.stderr:
        print(proc.stderr, end="", file=sys.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spreads(path) -> list[str]:
    specs = metric_specs()
    lines = []
    for (workload, trace), runs in sorted(load(path).items()):
        for name in next(iter(runs.values()))["metrics"]:
            q1, med, q3 = quartiles([r["metrics"][name] for r in runs.values()])
            spread = (q3 - q1) / med if med else float("nan")
            bound = specs.get(name, {}).get("bound")
            flag = ""
            if bound is not None:
                flag = "ok" if spread < bound / 3 else "WIDE"
            lines.append(f"{workload:12} {name:28} n={len(runs):2} median={med:<12.6g} "
                         f"spread={spread:7.4f} bound={bound if bound else '-'} {flag}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", default="0-9", help="like 0-9 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--checkout", action="append", type=Path,
                        help="checkout to measure (repeatable; default: this one)")
    parser.add_argument("--out", type=Path, required=True, help="directory for the .jsonl files")
    args = parser.parse_args()

    checkouts = [c.resolve() for c in args.checkout or [ROOT]]
    args.out.mkdir(parents=True, exist_ok=True)
    files = [args.out / f"{c.name}.jsonl" for c in checkouts]
    for i, seed in enumerate(seed_list(args.seeds)):
        for workload in args.workloads.split(","):
            order = list(range(len(checkouts)))
            if i % 2:
                order.reverse()
            for k in order:
                result = run_one(checkouts[k], workload, seed, args.trace)
                line = {"workload": workload, "seed": seed, "trace": args.trace, "result": result}
                with open(files[k], "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(line) + "\n")
                print(f"{checkouts[k].name} {workload} seed {seed}: "
                      f"correct={result['correct']} attempted={result['attempted']}", flush=True)
    for f in files:
        print(f"\n{f}")
        print("\n".join(spreads(f)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
