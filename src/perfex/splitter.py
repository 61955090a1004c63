"""Exhaustive single-feature split search maximizing the metric gap.

The search enumerates every admissible condition over every feature, splits
the rows on each, and keeps the condition with the largest absolute metric
difference (*beta*) between the two sides.  A candidate is feasible only if
both sides have at least ``alpha`` rows, both metric values are defined, and
both supports reach ``min_support``.

Determinism contract: candidates are enumerated in a fixed order (ascending
feature index, then ascending threshold or category order) and a candidate
replaces the incumbent only on a strict beta improvement, so the first
maximal candidate in enumeration order always wins.  Beta improvements
smaller than ``BETA_TIE_TOLERANCE`` count as ties.

The search is a sweep over presorted columns (SLIQ / SPRINT split
finding): a tree build takes the metric's per-row statistic codes once for
the whole table and sorts each feature's column once, stably, at the root;
at each split, every sorted order is stable-partitioned between the two
children, so a node's rows come already sorted by every feature.
``x <= v`` sends a prefix of the sorted rows left and ``x == c`` one run of
them, so the bounds of all conditions cut the sorted rows into segments (at
most 257 at the default threshold cap).  One grouped sum per feature gives
the statistic sums of every segment, a cumulative sum over the segments
gives both sides of every condition, and the metric turns them into values
at once.  Count statistics sum exactly, so those betas are the ones a
separate evaluation of each side gives, bit for bit.  Float statistics
(``ece``, ``mean_min_score``) do not: their segment-sum betas decide a
comparison only when they do so by more than a bound on their error, and
every other comparison is decided on exactly evaluated betas.  The winner's
side values and beta are always evaluated exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .dataset import CATEGORICAL, Feature, SubsetView
from .metrics import MetricSpec, MetricStats, MetricValue, evaluate_indices

BETA_TIE_TOLERANCE = 1e-12

# With no explicit cap, features with more distinct values than this are
# reduced to AUTO_CAP quantile thresholds.
AUTO_UNIQUE_LIMIT = 256
AUTO_CAP = 255

_U = 2.0**-53  # unit roundoff of float64
# Metric values and gaps lie in [0, 1].  Rounding inside the value formula
# (both in the screen and in the exact evaluation) and in the gap and
# comparison subtractions adds well under this to any screened gap.
_SCREEN_ROUNDING = 64 * _U


@dataclass(frozen=True)
class SplitCandidate:
    """One admissible condition: ``kind`` is ``"le"`` (x <= value) for
    numeric and binary features or ``"eq"`` (x == value) for categorical."""

    feature: int
    kind: str
    value: float | str

    def left_mask(self, values: np.ndarray, feature: Feature) -> np.ndarray:
        """Which of ``values`` go left: the routing rule for every split.

        ``values`` are stored values of column ``self.feature`` (floats, or
        category codes if categorical) and ``feature`` is its schema entry.
        Rows exactly at a numeric threshold go left.  Raises ValueError when
        the condition does not fit the feature.
        """
        if feature.kind != CATEGORICAL:
            if self.kind == "le":
                return values <= self.value
        elif self.kind == "eq":
            if self.value not in feature.categories:
                raise ValueError(
                    f"value {self.value!r} is not a category of {feature.name!r}"
                )
            return values == feature.categories.index(self.value)
        raise ValueError(
            f"split kind {self.kind!r} does not fit {feature.kind} feature {feature.name!r}"
        )


@dataclass(frozen=True, eq=False)
class SplitResult:
    candidate: SplitCandidate
    left: SubsetView
    right: SubsetView
    e_left: MetricValue
    e_right: MetricValue
    beta: float


@dataclass(frozen=True)
class SearchConfig:
    """Feasibility knobs for the split search.

    ``alpha`` is the minimum row count per side; ``min_support`` the minimum
    metric support per side; ``max_thresholds`` caps the number of numeric
    thresholds per feature (None applies the automatic rule: unlimited up to
    256 distinct values, 255 quantiles beyond).
    """

    alpha: int = 100
    min_support: int = 385
    max_thresholds: int | None = None

    def __post_init__(self):
        if self.alpha < 1:
            raise ValueError("alpha must be at least 1")
        if self.min_support < 0:
            raise ValueError("min_support must be non-negative")
        if self.max_thresholds is not None and self.max_thresholds < 1:
            raise ValueError("max_thresholds must be at least 1 (or None)")


def _first_of_runs(ordered: np.ndarray) -> np.ndarray:
    """The first value of each run of equal values in sorted ``ordered``:
    its distinct values, a run of ``-0.0``/``0.0`` giving its first cell."""
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return ordered[first]


def _thresholds(ordered: np.ndarray, cap: int | None) -> np.ndarray:
    """Thresholds to try for one sorted numeric column: its distinct values,
    or a deduplicated set of nearest-rank quantiles when there are more than
    ``cap``.

    With a cap of ``c`` the thresholds are the ``q/(c+1)`` quantiles of the
    column for ``q = 1..c``, where quantile ``p`` of ``n`` sorted values is
    the one at index ``ceil(p*n) - 1``.  A ``cap`` of None keeps up to
    AUTO_UNIQUE_LIMIT distinct values and takes AUTO_CAP quantiles beyond.
    """
    uniq = _first_of_runs(ordered)
    if cap is None:
        cap = None if uniq.size <= AUTO_UNIQUE_LIMIT else AUTO_CAP
    if cap is None or uniq.size <= cap:
        return uniq
    n = ordered.size
    at = np.ceil(np.arange(1, cap + 1) / (cap + 1) * n).astype(np.int64) - 1
    return _first_of_runs(ordered[np.clip(at, 0, n - 1)])  # sorted: ``at`` ascends


def _conditions(ordered: np.ndarray, feature: Feature, cap: int | None):
    """The conditions tried on one feature, in search order, given its
    sorted column (floats, or category codes).

    Returns ``(values, starts, ends)``: condition ``i`` is ``x <= values[i]``
    (numeric and binary) or ``x == values[i]`` (categorical, a category
    present in the column), and it sends sorted rows ``starts[i]:ends[i]``
    left.
    """
    if feature.kind == CATEGORICAL:
        counts = np.bincount(ordered, minlength=len(feature.categories))
        present = np.flatnonzero(counts)
        ends = np.cumsum(counts)[present]
        return [feature.categories[c] for c in present], ends - counts[present], ends
    thresholds = _thresholds(ordered, cap)
    # Thresholds are values present in the column: the rows at or below one
    # are a prefix of the sorted column.
    ends = np.searchsorted(ordered, thresholds, side="right")
    return thresholds.tolist(), np.zeros_like(ends), ends


class Presorted(NamedTuple):
    """The split search's state for the rows of a node.

    ``stat`` is the metric resolved against the table and ``codes`` the
    statistic codes (:meth:`MetricStats.stats`) of every table row, taken
    once per build.  ``orders[j]`` holds the node's row ids sorted stably by
    column ``j``, so equal values keep row order.
    """

    stat: MetricStats
    codes: tuple
    orders: list


def _stable_order(values: np.ndarray) -> np.ndarray:
    """The stable sorting order of ``values``.  An unstable sort is several
    times faster, and it is the stable order when no two values are equal."""
    order = np.argsort(values)
    if _first_of_runs(np.take(values, order)).size < values.size:
        return np.argsort(values, kind="stable")
    return order


def presort(view: SubsetView, metric: MetricSpec) -> SubsetView:
    """``view`` with its :class:`Presorted` state: one stable sort per column."""
    table = view.table
    stat = MetricStats(metric, table)
    ids = np.int32 if table.n <= np.iinfo(np.int32).max else np.int64
    orders = [view.indices[_stable_order(view.column(j))].astype(ids) for j in range(table.m)]
    return replace(view, presorted=Presorted(stat, stat.stats(np.arange(table.n)), orders))


def partition(view: SubsetView, found: "SplitResult") -> tuple[SubsetView, SubsetView]:
    """The two sides of ``found``, a split of presorted ``view``, presorted in
    turn: each order is stable-partitioned by the winner's left mask.

    The view's orders are handed over one at a time, so its list ends empty
    and the node keeps no orders once its children have theirs.
    """
    pre = view.presorted
    goes_left = np.zeros(view.table.n, dtype=bool)
    goes_left[found.left.indices] = True
    left, right = [], []
    while pre.orders:
        order = pre.orders.pop(0)
        mask = goes_left[order]
        left.append(order[mask])
        right.append(order[~mask])
    return (
        replace(found.left, presorted=pre._replace(orders=left)),
        replace(found.right, presorted=pre._replace(orders=right)),
    )


def best_split(
    view: SubsetView,
    metric: MetricSpec,
    config: SearchConfig | None = None,
) -> SplitResult | None:
    """Find the feasible condition with the largest metric gap.

    Returns None when no candidate is feasible or every feasible candidate
    has a zero gap.  A view without :class:`Presorted` state for ``metric``
    is presorted first.
    """
    config = config or SearchConfig()
    table = view.table
    vidx = view.indices
    n = vidx.size
    if n == 0:
        raise ValueError("cannot split an empty view")

    features = table.schema.features
    pre = view.presorted
    if pre is None or pre.stat.spec != metric:
        pre = presort(view, metric).presorted
    stat, codes = pre.stat, pre.codes
    stats = [a if a is None else np.take(a, vidx, axis=0) for a in codes]
    count_total, amount_total = stat.sums(stats, np.zeros(n, dtype=np.intp), 1)

    def exact(j: int, value):
        cand = SplitCandidate(j, "eq" if features[j].kind == CATEGORICAL else "le", value)
        mask = cand.left_mask(view.column(j), features[j])
        e_left = evaluate_indices(metric, table, vidx[mask])
        e_right = evaluate_indices(metric, table, vidx[~mask])
        return cand, mask, e_left, e_right, abs(e_left.value - e_right.value)

    best_beta = 0.0
    best_error = 0.0
    best = None  # (feature, value)
    best_exact = None  # exact(*best), once computed
    for j, feature in enumerate(features):
        order = pre.orders[j]
        values, starts, ends = _conditions(
            np.take(table.column(j), order), feature, config.max_thresholds
        )
        n_left = ends - starts
        keep = np.flatnonzero((n_left >= config.alpha) & (n - n_left >= config.alpha))
        if keep.size == 0:
            continue
        starts, ends, n_left = starts[keep], ends[keep], n_left[keep]
        r = keep.size
        # Group g > 0 holds sorted rows bounds[g-1]:bounds[g]; group 0 is empty.
        bounds, at = np.unique(np.concatenate([starts, ends, [0, n]]), return_inverse=True)
        group = np.repeat(np.arange(1, bounds.size), np.diff(bounds))
        ordered = [a if a is None else np.take(a, order, axis=0) for a in codes]
        c_cum, a_cum = (np.cumsum(x, axis=0) for x in stat.sums(ordered, group, bounds.size))
        c_left = c_cum[at[r : 2 * r]] - c_cum[at[:r]]
        a_left = a_cum[at[r : 2 * r]] - a_cum[at[:r]]
        v, s = stat.value(
            np.concatenate([c_left, count_total - c_left]),
            np.concatenate([a_left, amount_total - a_left]),
            np.concatenate([n_left, n - n_left]),
        )
        feasible = ~np.isnan(v[:r]) & ~np.isnan(v[r:])
        feasible &= (s[:r] >= config.min_support) & (s[r:] >= config.min_support)
        betas = np.abs(v[:r] - v[r:])
        # Bound on |screened beta - exact beta|, needed for float sums only.
        # A float bincount adds each segment up recursively and the running
        # sum adds up to S = bounds.size - 1 segment sums, so in a prefix, or
        # the node total, no row goes through more than m = n + S roundings:
        # the sum is within gamma_m = m u / (1 - m u) times its absolute sum of
        # the exact one (Higham, Accuracy and Stability of Numerical
        # Algorithms, ch. 4).  A left side is a rounded difference of two
        # prefixes, a right side one of the total and the left side; each
        # rounding adds under gamma_m T, so a side is within 6 gamma_m T, T
        # being the node total of the non-negative amounts.
        m = n + bounds.size - 1
        sum_error = 6.0 * m * _U / (1.0 - m * _U) * float(amount_total.sum())
        errors = sum_error * (1.0 / n_left + 1.0 / (n - n_left)) + _SCREEN_ROUNDING
        rows = np.flatnonzero(feasible)
        # A candidate can win only if its beta may exceed the incumbent's and
        # every earlier candidate's here (an earlier one at least as large
        # would have won first), so the rest are skipped.  Twice the error
        # bounds also cover the rounding of these sums.
        floor = np.concatenate([[best_beta - 2 * best_error], (betas - 2 * errors)[rows][:-1]])
        rows = rows[(betas + 2 * errors)[rows] > np.maximum.accumulate(floor)]
        for i, beta, error in zip(rows.tolist(), betas[rows].tolist(), errors[rows].tolist()):
            gap = abs(beta - best_beta)
            found = None
            if stat.n_amounts and abs(gap - BETA_TIE_TOLERANCE) <= error + best_error:
                # The screened betas cannot decide this comparison: decide
                # it on exact ones.
                found = exact(j, values[keep[i]])
                beta, error = found[4], 0.0
                if best_error:
                    best_exact = exact(*best)
                    best_beta, best_error = best_exact[4], 0.0
                gap = abs(beta - best_beta)
            if gap < BETA_TIE_TOLERANCE:
                continue
            if beta > best_beta:
                best_beta, best_error = beta, error
                best, best_exact = (j, values[keep[i]]), found

    if best is None:
        return None
    cand, mask, e_left, e_right, beta = best_exact or exact(*best)
    left, right = SubsetView(table, vidx[mask]), SubsetView(table, vidx[~mask])
    return SplitResult(cand, left, right, e_left, e_right, beta)
