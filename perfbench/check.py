"""Output checks written against the file formats alone, with no perfex import.

Each check reads the CSV inputs with the ``csv`` module, routes every row
through the tree JSON by the documented rule (numeric ``x <= value`` or
categorical ``x == value`` goes left) and recomputes what perfex reported.
A check returns a list of problems; an empty list means the outputs hold.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

ECE_TOLERANCE = 1e-12


class Table:
    """Raw cells of a prediction CSV, with the label and score columns split off."""

    def __init__(self, path):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        self.header = rows[0]
        cells = rows[1:]
        true_at = self.header.index("__true__")
        self.n = len(cells)
        self.features = [[r[j] for r in cells] for j in range(true_at)]
        self.y = np.array([r[true_at] for r in cells], dtype=object)
        self.pred = np.array([r[true_at + 1] for r in cells], dtype=object)
        self.scores = np.array(
            [[float(v) for v in r[true_at + 2:]] for r in cells], dtype=np.float64
        ).reshape(self.n, len(self.header) - true_at - 2)
        self.correct = self.y == self.pred


def leaf_docs(node) -> list[dict]:
    """Leaf documents in depth-first pre-order (the order of leaf ids)."""
    out, stack = [], [node]
    while stack:
        node = stack.pop()
        if "leaf" in node:
            out.append(node["leaf"])
        else:
            stack.append(node["right"])
            stack.append(node["left"])
    return out


def route(root, table: Table) -> np.ndarray:
    """Leaf id of every row of ``table``."""
    out = np.full(table.n, -1, dtype=np.int64)
    next_id = 0
    stack = [(root, np.arange(table.n))]
    while stack:
        node, idx = stack.pop()
        if "leaf" in node:
            out[idx] = next_id
            next_id += 1
            continue
        cells = [table.features[node["feature"]][i] for i in idx]
        if node["kind"] == "eq":
            left = np.array([c == node["value"] for c in cells], dtype=bool)
        else:
            left = np.array([float(c) <= node["value"] for c in cells], dtype=bool)
        stack.append((node["right"], idx[~left]))
        stack.append((node["left"], idx[left]))
    return out


def accuracy(table: Table, idx):
    return None if idx.size == 0 else int(table.correct[idx].sum()) / idx.size


def ece(table: Table, idx, bins: int):
    conf = table.scores[idx].max(axis=1)
    correct = table.correct[idx]
    edges = np.array([i / bins for i in range(bins + 1)])
    which = np.clip(np.searchsorted(edges, conf, side="left") - 1, 0, bins - 1)
    parts = []
    for b in range(bins):
        in_bin = which == b
        size = int(in_bin.sum())
        if size:
            gap = int(correct[in_bin].sum()) / size - math.fsum(conf[in_bin]) / size
            parts.append(size / idx.size * abs(gap))
    return math.fsum(parts)


def check_fit(work, metric: str) -> list[str]:
    """``tree.json`` and ``exp.json`` against ``data.csv``."""
    problems = []
    table = Table(work / "data.csv")
    tree = json.loads((work / "tree.json").read_text(encoding="utf-8"))
    explanations = json.loads((work / "exp.json").read_text(encoding="utf-8"))
    leaves = leaf_docs(tree["root"])
    leaf_of = route(tree["root"], table)
    if tree["metric"] != metric or tree["n_build"] != table.n:
        problems.append("tree metric or n_build differs from the input")
    if len(explanations) != len(leaves):
        problems.append("explanations and tree disagree on the leaf count")
    for lid, (leaf, doc) in enumerate(zip(leaves, explanations)):
        idx = np.flatnonzero(leaf_of == lid)
        if leaf["size"] != idx.size or leaf["support"] != idx.size:
            problems.append(f"leaf {lid}: size {leaf['size']} but {idx.size} rows route there")
        if metric == "accuracy":
            ok = leaf["value"] == accuracy(table, idx)
        else:
            ok = abs(leaf["value"] - ece(table, idx, int(metric.split(":")[1]))) <= ECE_TOLERANCE
        if not ok:
            problems.append(f"leaf {lid}: value {leaf['value']} does not match its rows")
        if (doc["leaf"], doc["size"], doc["value"]) != (lid, leaf["size"], leaf["value"]):
            problems.append(f"leaf {lid}: explanation does not match the tree")
    return problems


def check_holdout(work, rows: int) -> list[str]:
    """``report.json`` against the reference tree and the two generated parts."""
    problems = []
    build = Table(work / "data_part1.csv")
    test = Table(work / "data_part2.csv")
    tree = json.loads((work / "ref.json").read_text(encoding="utf-8"))
    report = json.loads((work / "report.json").read_text(encoding="utf-8"))
    if build.n + test.n != rows:
        problems.append(f"parts hold {build.n} + {test.n} rows, not {rows}")
    n_leaves = len(leaf_docs(tree["root"]))
    if len(report["leaves"]) != n_leaves:
        problems.append("report and tree disagree on the leaf count")
    b_leaf, t_leaf = route(tree["root"], build), route(tree["root"], test)
    errors, build_values = [], []
    for lid, doc in enumerate(report["leaves"]):
        bidx, tidx = np.flatnonzero(b_leaf == lid), np.flatnonzero(t_leaf == lid)
        e_build, e_test = accuracy(build, bidx), accuracy(test, tidx)
        want = (lid, bidx.size, tidx.size, e_build, e_test)
        got = (doc["leaf"], doc["n_build"], doc["n_test"], doc["e_build"], doc["e_test"])
        if got != want:
            problems.append(f"leaf {lid}: report {got} but rows give {want}")
        if e_build is not None:
            build_values.append(e_build)
            if e_test is not None:
                errors.append(abs(e_build - e_test))
    mae = math.fsum(errors) / len(errors) if errors else None
    spread = max(build_values) - min(build_values) if build_values else None
    if (report["mae"], report["spread"]) != (mae, spread):
        problems.append("report mae or spread does not match the leaves")
    return problems
