"""Per-layer metrics of one operation, computed from the launcher's spans.

An operation is one or more CLI processes; ``layer_metrics`` takes the span
documents of all of them.  Times are inclusive span durations unless named
``self``: a span's self time is its duration minus the union of the
intervals its direct children cover.  The union matters where children
overlap, as the metric spans of the split search's worker threads do.

Part of each traced call runs outside its own span but inside its parent's
(the wrapper's bookkeeping).  The launcher measures that cost per call at
start (``wrapper_ns``); each child interval is widened by half of it on
either side before the union is taken, so self times leave it out.  What
tracing adds inside a span stays in that span's time; ``trace.overhead_s``
shows the total.
"""

from __future__ import annotations

NS = 1e-9


def _union_ns(intervals, lo: int, hi: int) -> int:
    covered = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def _self_ns(span: dict, children: list[dict], wrapper_ns: float) -> int:
    pad = int(wrapper_ns / 2)
    intervals = [(c["start"] - pad, c["end"] + pad) for c in children]
    return span["end"] - span["start"] - _union_ns(intervals, span["start"], span["end"])


def layer_metrics(processes: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one operation from its processes' span documents."""
    startup = 0
    spans: list[dict] = []
    children: dict[tuple[int, int], list[dict]] = {}
    wrapper_ns = [doc["wrapper_ns"] for doc in processes]
    for p, doc in enumerate(processes):
        startup += doc["main_ns"] - doc["spawn_ns"]
        for s in doc["spans"]:
            s = dict(s, proc=p)
            spans.append(s)
            if s["parent"] is not None:
                children.setdefault((p, s["parent"]), []).append(s)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(found, key=None):
        if key is None:
            return sum(s["end"] - s["start"] for s in found) * NS
        return sum(s["attrs"].get(key, 0) for s in found)

    def self_s(found):
        return sum(
            _self_ns(s, children.get((s["proc"], s["id"]), []), wrapper_ns[s["proc"]])
            for s in found
        ) * NS

    def ratio(num, den):
        return num / den if den else 0.0

    searches = named("splitter.search")
    search_ids = {(s["proc"], s["id"]) for s in searches}
    first_search = {}
    for s in searches:
        if s["proc"] not in first_search or s["start"] < first_search[s["proc"]]["start"]:
            first_search[s["proc"]] = s
    evals = named("metrics.eval")
    builds = named("tree.build")
    evaluations = named("evaluation.evaluate_tree")
    eval_ns = total(evals) / NS
    rows_scanned = total(evals, "rows")

    return {
        "cli.startup_s": startup * NS,
        "dataset.load_s": total(named("dataset.load")),
        "dataset.rows_loaded": total(named("dataset.load"), "rows"),
        "dataset.write_s": total(named("dataset.write")),
        "dataset.rows_written": total(named("dataset.write"), "rows"),
        "splitter.search_s": total(searches),
        "splitter.search_self_s": self_s(searches),
        "splitter.root_search_s": total(first_search.values()),
        "splitter.nodes_searched": len(searches),
        "splitter.metric_calls": sum(
            1 for s in evals if (s["proc"], s["parent"]) in search_ids
        ),
        "splitter.split_found_ratio": ratio(total(searches, "found"), len(searches)),
        "metrics.eval_s": eval_ns * NS,
        "metrics.eval_calls": len(evals),
        "metrics.rows_scanned": rows_scanned,
        "metrics.ns_per_row": ratio(eval_ns, rows_scanned),
        "metrics.undefined_ratio": ratio(total(evals, "undefined"), len(evals)),
        "tree.build_s": total(builds),
        "tree.build_self_s": self_s(builds),
        "tree.leaves": total(builds, "leaves"),
        "tree.depth": total(builds, "depth"),
        "tree.assign_s": total(named("tree.assign")),
        "tree.json_s": total(named("tree.json")),
        "evaluation.evaluate_tree_s": total(evaluations),
        "evaluation.self_s": self_s(evaluations),
        "explain.render_s": total(named("explain.render")) + total(named("explain.summarize")),
        "explain.leaves_rendered": len(named("explain.render")),
        "synth.generate_s": total(named("synth.generate")),
        "files.write_s": total(named("files.write")),
        "files.bytes_written": total(named("files.write"), "bytes"),
    }
