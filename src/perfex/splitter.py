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
smaller than ``BETA_TIE_TOLERANCE`` count as ties.  Candidate evaluation may
be spread over worker threads; the reduction happens in enumeration order,
so results are independent of thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dataset import CATEGORICAL, Feature, SubsetView
from .metrics import MetricSpec, MetricValue, evaluate_indices

BETA_TIE_TOLERANCE = 1e-12

# With no explicit cap, features with more distinct values than this are
# reduced to AUTO_CAP quantile thresholds.
AUTO_UNIQUE_LIMIT = 256
AUTO_CAP = 255


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


def candidate_thresholds(values: np.ndarray, max_thresholds: int | None = None) -> np.ndarray:
    """Thresholds to try for one numeric column: the distinct values, or a
    deduplicated set of nearest-rank quantiles when there are too many.

    With a cap of ``c`` the thresholds are the ``q/(c+1)`` quantiles of the
    column for ``q = 1..c``, where quantile ``p`` of ``n`` sorted values is
    the one at index ``ceil(p*n) - 1``.
    """
    values = np.asarray(values, dtype=np.float64)
    uniq = np.unique(values)
    cap = max_thresholds
    if cap is None:
        cap = None if uniq.size <= AUTO_UNIQUE_LIMIT else AUTO_CAP
    if cap is None or uniq.size <= cap:
        return uniq
    ordered = np.sort(values)
    n = ordered.size
    picks = []
    for q in range(1, cap + 1):
        p = q / (cap + 1)
        i = int(np.ceil(p * n)) - 1
        picks.append(ordered[min(max(i, 0), n - 1)])
    return np.unique(np.array(picks))


def _candidates(view: SubsetView, config: SearchConfig):
    """Every condition the search considers for ``view``, in search order.

    Yields ``(candidate, column, left_count)``.  ``column`` is the view's
    slice of the candidate's feature column, taken once per feature;
    ``left_count`` lets the alpha check run before any mask is built.
    """
    for j, feature in enumerate(view.table.schema.features):
        col = view.column(j)
        uniq, counts = np.unique(col, return_counts=True)
        if feature.kind == CATEGORICAL:
            for code, count in zip(uniq, counts):
                yield SplitCandidate(j, "eq", feature.categories[int(code)]), col, int(count)
        else:
            cum = np.cumsum(counts)
            thresholds = candidate_thresholds(col, config.max_thresholds)
            # Thresholds are values present in the column, so the row count
            # of the left side is the cumulative count at that value.
            at = np.searchsorted(uniq, thresholds, side="right") - 1
            for v, a in zip(thresholds, at):
                yield SplitCandidate(j, "le", float(v)), col, int(cum[a])


def best_split(
    view: SubsetView,
    metric: MetricSpec,
    config: SearchConfig | None = None,
    threads: int = 1,
) -> SplitResult | None:
    """Find the feasible condition with the largest metric gap.

    Returns None when no candidate is feasible or every feasible candidate
    has a zero gap.
    """
    config = config or SearchConfig()
    table = view.table
    vidx = view.indices
    n = vidx.size
    if n == 0:
        raise ValueError("cannot split an empty view")

    features = table.schema.features
    jobs = [
        (cand, col)
        for cand, col, n_left in _candidates(view, config)
        if n_left >= config.alpha and n - n_left >= config.alpha
    ]

    def score(job):
        cand, col = job
        mask = cand.left_mask(col, features[cand.feature])
        e_left = evaluate_indices(metric, table, vidx[mask])
        e_right = evaluate_indices(metric, table, vidx[~mask])
        if not (e_left.defined and e_right.defined):
            return None
        if e_left.support < config.min_support or e_right.support < config.min_support:
            return None
        return abs(e_left.value - e_right.value), e_left, e_right

    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(score, jobs, chunksize=max(1, len(jobs) // (threads * 4))))
    else:
        outcomes = [score(job) for job in jobs]

    best_beta = 0.0
    best = None
    for job, outcome in zip(jobs, outcomes):
        if outcome is None:
            continue
        beta, e_left, e_right = outcome
        if abs(beta - best_beta) < BETA_TIE_TOLERANCE:
            continue
        if beta > best_beta:
            best_beta = beta
            best = (job, e_left, e_right)

    if best is None:
        return None
    (cand, col), e_left, e_right = best
    mask = cand.left_mask(col, features[cand.feature])
    return SplitResult(
        cand,
        SubsetView(table, vidx[mask]),
        SubsetView(table, vidx[~mask]),
        e_left,
        e_right,
        best_beta,
    )
