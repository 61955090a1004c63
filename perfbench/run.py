#!/usr/bin/env python3
"""perfex benchmark: closed-loop CLI workloads with an output gate.

    python3 perfbench/run.py --workload fit-numeric --seed 0 --trace 0

Run from the root of a perfex checkout.  One client runs one operation at a
time; an operation is one or two ``perfex`` CLI processes, each a fresh
interpreter started the way users start it.  The loop runs operations until
``--seconds`` (default: ``run_seconds`` in BENCHMARK.json) have passed and
at least ``MIN_OPS`` have finished.  Every operation's outputs are checked
(see README.md).  The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
every other operation runs under ``launcher.py``, which records spans at
perfex's module boundaries, and the metrics are the per-layer ones, each
the median over the traced operations.  ``--smoke`` shrinks every input so
the whole run takes seconds; it exists for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"
DIGESTS = BENCH / "digests.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for part in ("end_to_end", "per_layer") for m in SPEC[part]}

DEFAULT_SEED = 0
MIN_OPS = 11  # the tail percentile needs at least 10 samples beyond it
MAX_LOOP_SECONDS = 150.0  # stop starting operations, so a run ends well within 180 s
# Set-up runs once before the first operation and again after every second
# one, so its repeats sample the same stretch of time as the operations.
SETUP_REPEATS = 7


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    smoke_rows: int
    threads: str | None  # PERFEX_THREADS for the operation, None leaves it unset
    write_inputs: Callable  # (rows, seed, directory) -> None, imports perfex
    steps: Callable  # (rows, seed) -> [(tag, perfex arguments)]
    outputs: tuple[str, ...]  # files the operation writes, besides stdout/stderr
    check: Callable  # (directory, rows) -> [problem]


def _fit_steps(metric: str, *extra: str):
    def steps(rows, seed):
        return [("fit", ["fit", "--data", "data.csv", "--metric", metric, *extra,
                         "--out", "tree.json", "--explanations-out", "exp.json"])]
    return steps


def _holdout_steps(rows, seed):
    return [
        ("generate", ["generate", "--preset", "blobs", "--n", str(rows), "--split", "50/50",
                      "--seed", str(seed), "--out", "data.csv"]),
        ("evaluate", ["evaluate", "--tree", "ref.json", "--build", "data_part1.csv",
                      "--test", "data_part2.csv", "--out", "report.json"]),
    ]


def workloads() -> dict[str, Workload]:
    import check
    import inputs

    return {w.name: w for w in (
        Workload("fit-numeric", 10_000, 600, None, inputs.write_fit_numeric,
                 _fit_steps("accuracy"), ("tree.json", "exp.json"),
                 lambda work, rows: check.check_fit(work, "accuracy")),
        Workload("fit-scores", 10_000, 600, "2", inputs.write_fit_scores,
                 _fit_steps("ece:10", "--max-depth", "1"), ("tree.json", "exp.json"),
                 lambda work, rows: check.check_fit(work, "ece:10")),
        Workload("holdout", 60_000, 2_000, None, inputs.write_holdout, _holdout_steps,
                 ("data_part1.csv", "data_part2.csv", "report.json"), check.check_holdout),
    )}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def set_up(w: Workload, rows: int, seed: int, d: Path) -> tuple[float, dict[str, str]]:
    """Write the workload's inputs into ``d``: (seconds taken, file digests)."""
    d.mkdir()
    start = time.perf_counter()
    w.write_inputs(rows, seed, d)
    elapsed = time.perf_counter() - start
    return elapsed, {p.name: sha256(p) for p in sorted(d.iterdir())}


def op_env(w: Workload) -> dict:
    """The operation's environment: perfex from this checkout's ``src``."""
    env = {k: v for k, v in os.environ.items() if k not in ("PERFEX_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    if w.threads is not None:
        env["PERFEX_THREADS"] = w.threads
    return env


@dataclass
class Op:
    wall_s: float
    rss_mb: float
    traced: bool
    problems: list[str]
    digests: dict[str, str]
    spans: list[dict]


def run_op(w: Workload, rows: int, seed: int, work: Path, env: dict, traced: bool) -> Op:
    """One closed-loop operation: the workload's CLI steps, one after another."""
    for name in w.outputs:
        (work / name).unlink(missing_ok=True)
    problems, span_docs, rss_kb = [], [], 0
    steps = w.steps(rows, seed)
    start = time.perf_counter()
    for tag, args in steps:
        if traced:
            argv = [sys.executable, str(BENCH / "launcher.py"), *args]
            env = dict(env, PERFBENCH_SPANS=str(work / f"{tag}.spans.json"),
                       PERFBENCH_SPAWN_NS=str(time.clock_gettime_ns(time.CLOCK_MONOTONIC)))
        else:
            argv = [sys.executable, "-m", "perfex", *args]
        with open(work / f"{tag}.stdout", "wb") as out, open(work / f"{tag}.stderr", "wb") as err:
            proc = subprocess.Popen(argv, cwd=work, env=env, stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        rss_kb = max(rss_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            problems.append(f"{tag} exited with {proc.returncode}")
            break
    wall = time.perf_counter() - start
    for tag, _ in steps:
        err = work / f"{tag}.stderr"
        if err.exists() and err.stat().st_size:
            problems.append(f"{tag} wrote to stderr: {err.read_text(errors='replace')[:200]!r}")
        if traced and (work / f"{tag}.spans.json").exists():
            span_docs.append(json.loads((work / f"{tag}.spans.json").read_text()))
    names = [f"{tag}.stdout" for tag, _ in steps] + list(w.outputs)
    digests = {n: sha256(work / n) for n in names if (work / n).exists()}
    if len(digests) != len(names):
        problems.append("an output file is missing")
    return Op(wall, rss_kb / 1024.0, traced, problems, digests, span_docs)


def tail(walls: list[float]) -> tuple[float, int, int]:
    """Highest percentile with at least 10 samples beyond it, as (value,
    1-based rank, sample count); the percentile is ``100 * rank / count``."""
    ordered = sorted(walls)
    rank = max(len(ordered) - 10, 1)
    return ordered[rank - 1], rank, len(ordered)


def seed_digests(workload: str) -> dict[str, str] | None:
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload)


def measure(w: Workload, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    rows = w.smoke_rows if smoke else w.rows
    WORK_ROOT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK_ROOT))
    try:
        work = run_dir / "work"
        first_setup, input_digests = set_up(w, rows, seed, work)
        setup_times, problems = [first_setup], []
        env = op_env(w)

        ops: list[Op] = []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= MAX_LOOP_SECONDS or (elapsed >= seconds and len(ops) >= MIN_OPS):
                break
            ops.append(run_op(w, rows, seed, work, env, traced=trace and len(ops) % 2 == 1))
            op = ops[-1]
            if len(ops) == 1 and not op.problems:
                op.problems += [f"check: {p}" for p in w.check(work, rows)]
                if seed == DEFAULT_SEED and not smoke and seed_digests(w.name) != op.digests:
                    op.problems.append(f"outputs differ from the recorded digests: {op.digests}")
            elif op.digests != ops[0].digests:
                op.problems.append("outputs differ from the first operation's")
            if len(setup_times) < SETUP_REPEATS and len(ops) % 2 == 0:
                again = run_dir / f"setup{len(setup_times)}"
                took, digests = set_up(w, rows, seed, again)
                setup_times.append(took)
                shutil.rmtree(again)
                if digests != input_digests:
                    problems.append("set-up is not deterministic")

        failed = [op for op in ops if op.problems]
        for i, op in enumerate(ops):
            for p in op.problems:
                print(f"operation {i}: {p}", file=sys.stderr)
        for p in problems:
            print(f"set-up: {p}", file=sys.stderr)
        if len(ops) < MIN_OPS:
            problems.append(f"only {len(ops)} operations in {MAX_LOOP_SECONDS:.0f} s")
            print(f"run: {problems[-1]}", file=sys.stderr)

        walls = [op.wall_s for op in ops if not op.traced]
        if trace:
            traced = [op for op in ops if op.traced]
            per_op = [spans.layer_metrics(op.spans) for op in traced if not op.problems]
            per_op = per_op or [spans.layer_metrics([])]
            values = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
            values["trace.wall_p50_s"] = statistics.median(op.wall_s for op in traced)
            values["trace.overhead_s"] = values["trace.wall_p50_s"] - statistics.median(walls)
        else:
            value, rank, n = tail(walls)
            print("operation wall times (s): " + " ".join(f"{v:.3f}" for v in walls))
            # Information only: with 2 s operations the percentile that keeps
            # 10 samples beyond it lies below the median, so it is no gate.
            print(f"wall_s_tail {value:.6f} s: p{100.0 * rank / n:.1f} of {n} operations "
                  f"({n - rank} beyond it)")
            values = {
                "wall_s_p50": statistics.median(walls),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": max(op.rss_mb for op in ops),
            }
        return {
            "correct": not failed and not problems,
            "attempted": len(ops),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()},
        }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def record_digests(w: Workload, seed: int) -> None:
    """Run one operation at ``seed`` and store its output digests."""
    doc = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    WORK_ROOT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK_ROOT))
    try:
        work = run_dir / "work"
        set_up(w, w.rows, seed, work)
        op = run_op(w, w.rows, seed, work, op_env(w), traced=False)
        problems = op.problems + w.check(work, w.rows)
        if problems:
            raise SystemExit(f"not recording digests: {problems}")
        doc[w.name] = op.digests
        DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--record-digests", action="store_true",
                        help="store the output digests of one operation at --seed")
    args = parser.parse_args(argv)

    if not (SRC / "perfex" / "__init__.py").is_file():
        print(f"perfbench: no perfex sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    table = workloads()
    if args.workload not in table:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(table)}", file=sys.stderr)
        return 2
    w = table[args.workload]
    if args.record_digests:
        record_digests(w, args.seed)
        return 0
    result = measure(w, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
