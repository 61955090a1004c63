"""Held-out evaluation of a meta tree: does the map still match the terrain?

Both tables, which share the tree's schema and classes, are routed through
the tree once.  For every leaf the tree's metric is recomputed on the rows
each table sends there, all leaves of a table in one exact grouped evaluation
(:meth:`MetricStats.exact`); the report carries the mean absolute difference
of the two sides (over leaves where both are defined) and the spread of the
build-side values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataset import PredictionTable
from .errors import TreeFormatError
# perfbench/launcher.py wraps perfex.evaluation.evaluate_indices by name.
from .metrics import MetricStats, MetricValue, evaluate_indices  # noqa: F401
from .tree import MetaTree, assign


@dataclass(frozen=True)
class LeafComparison:
    leaf_id: int
    size_build: int
    size_test: int
    e_build: MetricValue
    e_test: MetricValue

    @property
    def abs_error(self) -> Optional[float]:
        if self.e_build.defined and self.e_test.defined:
            return abs(self.e_build.value - self.e_test.value)
        return None


@dataclass(frozen=True)
class EvaluationReport:
    metric: str
    leaves: tuple[LeafComparison, ...]
    mae: Optional[float]
    spread: Optional[float]
    undefined_leaves: tuple[int, ...]

    def to_json(self) -> str:
        doc = {
            "metric": self.metric,
            "mae": self.mae,
            "spread": self.spread,
            "undefined_leaves": list(self.undefined_leaves),
            "leaves": [
                {
                    "leaf": c.leaf_id,
                    "n_build": c.size_build,
                    "n_test": c.size_test,
                    "e_build": c.e_build.value,
                    "e_test": c.e_test.value,
                    "abs_err": c.abs_error,
                }
                for c in self.leaves
            ],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    def to_text(self) -> str:
        def num(v) -> str:
            return "-" if v is None else f"{v:.2f}"

        rows = [("leaf", "n_build", "n_test", "e_build", "e_test", "abs_err")]
        for c in self.leaves:
            rows.append(
                (
                    str(c.leaf_id),
                    str(c.size_build),
                    str(c.size_test),
                    num(c.e_build.value),
                    num(c.e_test.value),
                    num(c.abs_error),
                )
            )
        widths = [max(len(r[i]) for r in rows) for i in range(6)]
        lines = [
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows
        ]
        lines.append(f"mae: {num(self.mae)}")
        lines.append(f"d: {num(self.spread)}")
        return "\n".join(lines) + "\n"


def evaluate_tree(
    tree: MetaTree, build: PredictionTable, test: PredictionTable
) -> EvaluationReport:
    """Compare per-leaf values of ``tree.metric`` on two tables routed through
    ``tree`` (``dataclasses.replace(tree, metric=m)`` evaluates ``m``); a metric
    the tables cannot resolve raises TreeFormatError.  Leaves whose build or
    test side is empty or undefined are excluded from the mean and listed in
    ``undefined_leaves``; the spread is taken over the defined build values.
    """
    n_leaves = tree.n_leaves  # leaf ids run 0..n_leaves-1, so a leaf id is a group
    sides = []
    # Both tables are routed before the metric is resolved against either.
    for table, group in [(build, assign(tree, build)), (test, assign(tree, test))]:
        try:
            stat = MetricStats(tree.metric, table)
        except ValueError as exc:
            raise TreeFormatError(str(exc)) from None
        sides.append(np.bincount(group, minlength=n_leaves).tolist())
        sides.append(stat.exact(stat.stats(np.arange(table.n)), group, n_leaves))
    n_build, e_build, n_test, e_test = sides
    leaves = zip(range(n_leaves), n_build, n_test, e_build, e_test)
    comparisons = tuple(LeafComparison(*leaf) for leaf in leaves)
    errors = [c.abs_error for c in comparisons if c.abs_error is not None]
    build_values = [c.e_build.value for c in comparisons if c.e_build.defined]
    undefined = tuple(c.leaf_id for c in comparisons if c.abs_error is None)
    mae = math.fsum(errors) / len(errors) if errors else None
    spread = max(build_values) - min(build_values) if build_values else None
    return EvaluationReport(tree.metric.name, comparisons, mae, spread, undefined)
