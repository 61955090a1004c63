"""Run ``perfex.cli.main`` with a span recorded around each module boundary.

Usage (as the traced benchmark runs it)::

    PERFBENCH_SPANS=spans.json PERFBENCH_SPAWN_NS=<ns> \\
        python launcher.py fit --data data.csv --out tree.json

The launcher patches the public functions that one perfex module calls in
another, then calls the CLI exactly as ``python -m perfex`` would.  Spans
are kept in memory and written as one JSON document when the CLI returns.
Nothing inside ``src/perfex`` is changed.  Timestamps come from the
system-wide monotonic clock, so the parent's spawn time and the child's
span times share one time base.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import sys
import threading
import time
import types


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Recorder:
    """Collects finished spans: id, name, start, end, parent id, attributes.

    Each thread keeps its own stack of open spans.  The split search's
    worker threads start with an empty stack; their spans take the main
    thread's innermost open span (the search that submitted them) as parent.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span named
        ``name``; ``describe(args, result)`` adds attributes on success."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            attrs = {}
            start = now_ns()
            try:
                result = fn(*args, **kwargs)
                if describe is not None:
                    attrs = describe(args, result)
                return result
            finally:
                end = now_ns()
                stack.pop()
                self.spans.append(
                    {"id": span_id, "name": name, "start": start, "end": end,
                     "parent": parent, "attrs": attrs}
                )

        setattr(owner, attr, traced)


def wrapper_cost_ns(calls: int = 1000, rounds: int = 5) -> float:
    """Time one traced call spends outside its own span, less a plain call.

    That part of the wrapper (stack lookup, id, building and storing the
    span) runs inside the caller's span, so it would count as the caller's
    self time; ``spans.py`` widens every child interval by it.  Measured on a
    no-op called from inside an open span, median of ``rounds``.
    """
    rec = Recorder()
    probe = types.SimpleNamespace(noop=lambda: None)
    plain = probe.noop
    rec.wrap(probe, "noop", "probe")
    rec._stack().append(-1)  # as if inside an open span

    def loop(fn) -> int:
        start = now_ns()
        for _ in range(calls):
            fn()
        return now_ns() - start

    costs = []
    for _ in range(rounds):
        base = loop(plain)
        rec.spans.clear()
        total = loop(probe.noop)
        inside = sum(s["end"] - s["start"] for s in rec.spans)
        costs.append(max(total - inside - base, 0) / calls)
    return statistics.median(costs)


def install(rec: Recorder) -> None:
    import perfex.cli as cli
    import perfex.dataset as dataset
    import perfex.evaluation as evaluation
    import perfex.splitter as splitter
    import perfex.synth as synth
    import perfex.tree as tree

    def metric_attrs(indices, result):
        return {"rows": int(indices.size), "undefined": not result.defined}

    rec.wrap(cli, "load_table", "dataset.load", lambda a, r: {"rows": r.n})
    rec.wrap(cli, "write_csv", "dataset.write", lambda a, r: {"rows": a[0].n})
    rec.wrap(cli, "build_tree", "tree.build",
             lambda a, r: {"leaves": r.n_leaves, "depth": r.depth()})
    rec.wrap(tree, "best_split", "splitter.search",
             lambda a, r: {"rows": len(a[0]), "found": r is not None})
    rec.wrap(tree, "evaluate", "metrics.eval", lambda a, r: metric_attrs(a[1].indices, r))
    rec.wrap(splitter, "evaluate_indices", "metrics.eval", lambda a, r: metric_attrs(a[2], r))
    rec.wrap(evaluation, "evaluate_indices", "metrics.eval", lambda a, r: metric_attrs(a[2], r))
    rec.wrap(evaluation, "assign", "tree.assign")
    rec.wrap(cli, "serialize_tree", "tree.json")
    # MetaTree.from_json looks deserialize_tree up in perfex.tree at call time.
    rec.wrap(tree, "deserialize_tree", "tree.json")
    rec.wrap(cli, "evaluate_tree", "evaluation.evaluate_tree")
    rec.wrap(cli, "summarize_path", "explain.summarize")
    rec.wrap(cli, "render", "explain.render")
    for attr in ("generate_blobs", "split_dataset", "predict_table"):
        rec.wrap(cli, attr, "synth.generate")
    rec.wrap(synth.CartClassifier, "fit", "synth.generate")

    def file_attrs(args, result):
        return {"bytes": len(args[1].encode("utf-8"))}

    rec.wrap(cli, "atomic_write_text", "files.write", file_attrs)
    rec.wrap(dataset, "atomic_write_text", "files.write", file_attrs)


def main() -> int:
    import perfex.cli

    rec = Recorder()
    install(rec)
    doc = {"spawn_ns": int(os.environ["PERFBENCH_SPAWN_NS"]), "main_ns": now_ns(),
           "wrapper_ns": wrapper_cost_ns()}
    code = 1
    try:
        code = perfex.cli.main(sys.argv[1:])
    finally:
        doc["exit_ns"] = now_ns()
        doc["spans"] = rec.spans
        # json.dumps uses the C encoder; json.dump to a file would not.
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
