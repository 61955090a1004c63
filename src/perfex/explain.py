"""Readable explanations: merge a leaf's path into per-feature conditions.

A root-to-leaf path may test the same feature several times; the summary
keeps only the tightest bounds.  Numeric features end up with an exclusive
lower bound (from right branches) and an inclusive upper bound (from left
branches); binary features resolve to 0 or 1; categorical features are
either pinned to one category or carry a set of excluded ones.

Filtering the build table with a leaf's summaries (at full float precision)
reproduces exactly the rows that leaf holds; the rendered text merely rounds
the same numbers for display.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dataset import BINARY, CATEGORICAL, FeatureSchema, PredictionTable
from .errors import PerfexError
from .splitter import SplitCandidate
from .tree import LeafStats, check_split

NO_CONDITIONS_TEMPLATE = "(no conditions — all {unit_noun})"


@dataclass(frozen=True)
class ConditionSummary:
    """Merged constraints a leaf places on one feature."""

    feature: int
    name: str
    kind: str
    lower: Optional[float] = None  # exclusive
    upper: Optional[float] = None  # inclusive
    value: Optional[int] = None  # binary resolution
    equal: Optional[str] = None
    excluded: tuple[str, ...] = ()

    def describe(self) -> str:
        """This feature's conditions as text, joined with commas."""
        if self.kind == CATEGORICAL:
            if self.equal is not None:
                return f"{self.name} = {self.equal}"
            return ", ".join(f"{self.name} != {c}" for c in self.excluded)
        if self.kind == BINARY:
            return f"{self.name} = {self.value}"
        parts = []
        if self.lower is not None:
            parts.append(f"{self.name} > {_fmt(self.lower)}")
        if self.upper is not None:
            parts.append(f"{self.name} <= {_fmt(self.upper)}")
        return ", ".join(parts)

    def mask(self, table: PredictionTable) -> np.ndarray:
        """Row mask for this condition at full precision."""
        col = table.column(self.feature)
        feat = table.schema.features[self.feature]
        if self.kind == CATEGORICAL:
            if self.equal is not None:
                return col == feat.categories.index(self.equal)
            keep = np.ones(table.n, dtype=bool)
            for c in self.excluded:
                keep &= col != feat.categories.index(c)
            return keep
        if self.kind == BINARY:
            return col == float(self.value)
        keep = np.ones(table.n, dtype=bool)
        if self.lower is not None:
            keep &= col > self.lower
        if self.upper is not None:
            keep &= col <= self.upper
        return keep


def _fmt(v: float) -> str:
    if v == int(v):
        return str(int(v))
    return f"{v:.2f}"


@dataclass
class _Bounds:
    lower: Optional[float] = None
    upper: Optional[float] = None
    equal: Optional[str] = None
    excluded: list[str] = field(default_factory=list)


def summarize_path(stats: LeafStats, schema: FeatureSchema) -> list[ConditionSummary]:
    """Collapse a leaf's path into one summary per constrained feature.

    Features appear in order of first use on the path.  A step that does not
    fit ``schema`` raises :class:`TreeFormatError` naming the leaf, and a path
    that denies itself (empty interval, pinned and excluded category)
    :class:`PerfexError`; the builder makes neither, so this guards
    hand-written trees.
    """
    order: list[int] = []
    bounds: dict[int, _Bounds] = {}
    where = f"leaf {stats.leaf_id}"
    for step in stats.path:
        check_split(SplitCandidate(step.feature, step.kind, step.value), schema.features, where)
        if step.feature not in bounds:
            bounds[step.feature] = _Bounds()
            order.append(step.feature)
        b = bounds[step.feature]
        if step.kind == "eq":
            if step.is_left:
                if step.value in b.excluded:
                    raise PerfexError(
                        f"contradictory path: {step.value!r} both required and excluded"
                    )
                if b.equal is not None and b.equal != step.value:
                    raise PerfexError(
                        f"contradictory path: pinned to {b.equal!r} and {step.value!r}"
                    )
                b.equal = step.value
            else:
                if b.equal is not None:
                    if b.equal == step.value:
                        raise PerfexError(
                            f"contradictory path: {step.value!r} both required and excluded"
                        )
                    continue  # already pinned elsewhere; exclusion is redundant
                if step.value not in b.excluded:
                    b.excluded.append(step.value)
        else:
            v = float(step.value)
            if step.is_left:
                b.upper = v if b.upper is None else min(b.upper, v)
            else:
                b.lower = v if b.lower is None else max(b.lower, v)
            if b.lower is not None and b.upper is not None and b.lower >= b.upper:
                raise PerfexError("contradictory path: empty numeric interval")

    out = []
    for j in order:
        feat = schema.features[j]
        b = bounds[j]
        if feat.kind == CATEGORICAL:
            out.append(
                ConditionSummary(
                    j,
                    feat.name,
                    CATEGORICAL,
                    equal=b.equal,
                    excluded=tuple(b.excluded) if b.equal is None else (),
                )
            )
        elif feat.kind == BINARY:
            resolved = _resolve_binary(b, feat.name)
            if resolved is None:
                continue  # vacuous bound, nothing to say
            out.append(ConditionSummary(j, feat.name, BINARY, value=resolved))
        else:
            out.append(
                ConditionSummary(j, feat.name, feat.kind, lower=b.lower, upper=b.upper)
            )
    return out


def _resolve_binary(b: _Bounds, name: str) -> Optional[int]:
    low = b.lower is not None and 0.0 <= b.lower < 1.0
    high = b.upper is not None and 0.0 <= b.upper < 1.0
    if low and high:
        raise PerfexError(f"contradictory path: binary feature {name!r} pinned both ways")
    if high:
        return 0
    if low:
        return 1
    if b.lower is not None and b.lower >= 1.0:
        raise PerfexError(f"contradictory path: binary feature {name!r} above 1")
    if b.upper is not None and b.upper < 0.0:
        raise PerfexError(f"contradictory path: binary feature {name!r} below 0")
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
