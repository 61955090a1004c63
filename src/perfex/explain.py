"""Readable explanations: merge a leaf's path into per-feature conditions.

A root-to-leaf path may test the same feature several times; the summary
keeps only the tightest bounds.  Numeric and binary features end up with an
exclusive lower bound (from right branches) and an inclusive upper bound
(from left branches), and a binary feature's bounds resolve to 0 or 1 when
described; categorical features are either pinned to one category or carry
a set of excluded ones.

Filtering the build table with a leaf's summaries (at full float precision)
reproduces exactly the rows that leaf holds; the rendered text merely rounds
the same numbers for display.  A summary's row mask routes rows with
:meth:`SplitCandidate.left_mask`, the rule that growth and ``assign`` use.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .dataset import BINARY, FeatureSchema, PredictionTable
from .errors import PerfexError
from .splitter import SplitCandidate
from .tree import LeafStats, check_split

NO_CONDITIONS_TEMPLATE = "(no conditions — all {unit_noun})"
_OPS = {("le", True): "<=", ("le", False): ">", ("eq", True): "=", ("eq", False): "!="}


@dataclass(frozen=True)
class ConditionSummary:
    """Merged constraints a leaf places on one feature: ``lower``/``upper`` for
    numeric and binary features, ``equal`` or ``excluded`` for categorical ones."""

    feature: int
    name: str
    kind: str
    lower: Optional[float] = None  # exclusive
    upper: Optional[float] = None  # inclusive
    equal: Optional[str] = None
    excluded: tuple[str, ...] = ()

    def _steps(self) -> list[tuple[SplitCandidate, bool]]:
        """This summary as ``(split, goes_left)`` pairs, in print order."""
        if self.equal is not None:
            return [(SplitCandidate(self.feature, "eq", self.equal), True)]
        steps = [(SplitCandidate(self.feature, "eq", c), False) for c in self.excluded]
        for bound, goes_left in ((self.lower, False), (self.upper, True)):
            if bound is not None:
                steps.append((SplitCandidate(self.feature, "le", bound), goes_left))
        return steps

    def describe(self) -> str:
        """This feature's conditions as text, joined with commas."""
        if self.kind == BINARY:
            return f"{self.name} = {_resolve_binary(self)}"
        return ", ".join(
            f"{self.name} {_OPS[c.kind, left]} {_fmt(c.value) if c.kind == 'le' else c.value}"
            for c, left in self._steps()
        )

    def mask(self, table: PredictionTable) -> np.ndarray:
        """Row mask for this condition at full precision; on a {0, 1} column a
        binary feature's bounds select the rows of the value they resolve to."""
        col = table.column(self.feature)
        feat = table.schema.features[self.feature]
        keep = np.ones(table.n, dtype=bool)
        for c, goes_left in self._steps():
            left = c.left_mask(col, feat)
            keep &= left if goes_left else ~left
        return keep


def _fmt(v: float) -> str:
    if v == int(v):
        return str(int(v))
    return f"{v:.2f}"


def summarize_path(stats: LeafStats, schema: FeatureSchema) -> list[ConditionSummary]:
    """Collapse a leaf's path into one summary per constrained feature.

    Features appear in order of first use on the path.  Binary features keep
    their bounds, as numeric ones do, and a binary bound that excludes no
    value is dropped.  A step that does not fit ``schema`` raises
    :class:`TreeFormatError` naming the leaf, and a path that denies itself
    (empty interval, pinned and excluded category) :class:`PerfexError`; the
    builder makes neither, so this guards hand-written trees.
    """
    summaries: dict[int, ConditionSummary] = {}
    where = f"leaf {stats.leaf_id}"
    for split, goes_left in stats.path:
        check_split(split, schema.features, where)
        feat = schema.features[split.feature]
        s = summaries.get(split.feature) or ConditionSummary(split.feature, feat.name, feat.kind)
        if split.kind == "eq":
            # Exclusions are kept until the return, so a later pin of one contradicts.
            if (split.value in s.excluded) if goes_left else (s.equal == split.value):
                raise PerfexError(f"contradictory path: {split.value!r} both required and excluded")
            if goes_left:
                if s.equal not in (None, split.value):
                    raise PerfexError(
                        f"contradictory path: pinned to {s.equal!r} and {split.value!r}"
                    )
                s = replace(s, equal=split.value)
            elif s.equal is None and split.value not in s.excluded:
                s = replace(s, excluded=s.excluded + (split.value,))
        else:
            v = float(split.value)
            if goes_left:
                s = replace(s, upper=v if s.upper is None else min(s.upper, v))
            else:
                s = replace(s, lower=v if s.lower is None else max(s.lower, v))
            if s.lower is not None and s.upper is not None and s.lower >= s.upper:
                raise PerfexError("contradictory path: empty numeric interval")
        summaries[split.feature] = s
    return [
        replace(s, excluded=()) if s.equal is not None else s
        for s in summaries.values()
        if s.kind != BINARY or _resolve_binary(s) is not None
    ]


def _resolve_binary(s: ConditionSummary) -> Optional[int]:
    """The value, 0 or 1, that binary summary ``s`` pins; None if it pins none."""
    low = s.lower is not None and 0.0 <= s.lower < 1.0
    high = s.upper is not None and 0.0 <= s.upper < 1.0
    if low and high:
        raise PerfexError(f"contradictory path: binary feature {s.name!r} pinned both ways")
    if high:
        return 0
    if low:
        return 1
    if s.lower is not None and s.lower >= 1.0:
        raise PerfexError(f"contradictory path: binary feature {s.name!r} above 1")
    if s.upper is not None and s.upper < 0.0:
        raise PerfexError(f"contradictory path: binary feature {s.name!r} below 0")
    return None


def leaf_row_mask(summaries, table: PredictionTable) -> np.ndarray:
    """AND of all summary masks: the rows the explanation describes."""
    keep = np.ones(table.n, dtype=bool)
    for s in summaries:
        keep &= s.mask(table)
    return keep


def render(
    stats: LeafStats,
    summaries,
    *,
    unit_noun: str = "datapoints",
    phrase: str = "accuracy",
) -> str:
    """Render one leaf as a short text block::

        There are 134 datapoints for which the
        following conditions hold:
          length > 10.77, length <= 12.39
        and for these datapoints accuracy is 0.68

    Condition lines are indented two spaces, one line per feature.  A leaf
    with no conditions (a root-only tree) gets a placeholder line instead.
    Metric values are shown with two decimals.
    """
    lines = [
        f"There are {stats.size} {unit_noun} for which the",
        "following conditions hold:",
    ]
    if summaries:
        for s in summaries:
            lines.append("  " + s.describe())
    else:
        lines.append("  " + NO_CONDITIONS_TEMPLATE.format(unit_noun=unit_noun))
    value = "n/a" if not stats.metric.defined else f"{stats.metric.value:.2f}"
    lines.append(f"and for these {unit_noun} {phrase} is {value}")
    return "\n".join(lines)


def default_phrase(metric) -> str:
    """A readable default for the metric phrase in rendered explanations."""
    kind = metric.kind
    if kind == "accuracy":
        return "accuracy"
    if kind in ("precision", "recall", "f1"):
        return f"{kind} for class {metric.class_label}"
    if kind.startswith("weighted_"):
        return kind.replace("_", " ")
    if kind == "ece":
        return "the expected calibration error"
    if kind == "mean_min_score":
        joined = ", ".join(metric.class_subset)
        return f"the mean minimum score over classes {joined}"
    return "the metric value"
