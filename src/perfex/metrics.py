"""Performance metrics evaluated on row subsets.

Every metric maps a set of rows to a :class:`MetricValue`: a number in
[0, 1], the row count the value's confidence interval applies to (its
*support*), and a defined flag.  Undefined values (empty denominators) are
first-class: they propagate instead of being silently replaced by zero, and
the split search treats them as infeasible.

Metric selection strings
------------------------
``accuracy`` | ``precision:<class>`` | ``recall:<class>`` | ``f1:<class>`` |
``weighted_precision`` | ``weighted_recall`` | ``weighted_f1`` |
``ece:<bins>`` (1 to ``MAX_ECE_BINS``) | ``mean_min_score:<class>,<class>[,...]``

:func:`parse_metric` only splits a name; :class:`MetricSpec` checks it.
A class label is read verbatim, spaces included, so ``parse_metric(spec.name)
== spec``; a mean_min_score label can be neither empty nor hold a comma.

Each metric is defined once, as per-row statistics (:class:`MetricStats`).
One grouped call, :meth:`MetricStats.exact`, gives every exact value: a
row set's, a split's two sides in growth, or a held-out table's leaves.

Determinism: value computations use exact integer counting where possible
and exactly rounded float summation (``math.fsum``) elsewhere, so a metric
value does not depend on row order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dataset import PredictionTable, SubsetView
from .errors import MissingScoresError

ACCURACY = "accuracy"
PRECISION = "precision"
RECALL = "recall"
F1 = "f1"
WEIGHTED_PRECISION = "weighted_precision"
WEIGHTED_RECALL = "weighted_recall"
WEIGHTED_F1 = "weighted_f1"
ECE = "ece"
MEAN_MIN_SCORE = "mean_min_score"

_CLASS_KINDS = (PRECISION, RECALL, F1)
_WEIGHTED_KINDS = (WEIGHTED_PRECISION, WEIGHTED_RECALL, WEIGHTED_F1)
KINDS = (ACCURACY,) + _CLASS_KINDS + _WEIGHTED_KINDS + (ECE, MEAN_MIN_SCORE)

DEFAULT_ECE_BINS = 10
# Each bin is three statistic columns of every row group the split sweep sums:
# far more bins only exhaust memory, and bins this narrow hold few rows anyway.
MAX_ECE_BINS = 1000


@dataclass(frozen=True)
class MetricValue:
    """A metric outcome: ``value`` (or None when undefined) plus its support."""

    value: float | None
    support: int

    @property
    def defined(self) -> bool:
        return self.value is not None


@dataclass(frozen=True)
class MetricSpec:
    """Which metric to compute, with its parameters.

    Use the factory classmethods or :func:`parse_metric`; the ``name``
    property gives back the canonical selection string.
    """

    kind: str
    class_label: str | None = None
    bins: int = 0
    class_subset: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown metric {self.kind!r}")
        if self.kind in _CLASS_KINDS and not self.class_label:
            raise ValueError(f"metric {self.kind!r} needs a class label, e.g. {self.kind}:a")
        if self.kind == ECE and self.bins < 1:
            raise ValueError("ece needs at least one bin")
        if self.kind == ECE and self.bins > MAX_ECE_BINS:
            raise ValueError(f"ece takes at most {MAX_ECE_BINS} bins, got {self.bins}")
        if self.kind == MEAN_MIN_SCORE:
            if len(self.class_subset) < 2:
                raise ValueError("mean_min_score needs at least two classes")
            if len(set(self.class_subset)) != len(self.class_subset):
                raise ValueError("duplicate class in mean_min_score subset")
            if any(not lbl or "," in lbl for lbl in self.class_subset):
                raise ValueError("a mean_min_score class label is empty or holds ','")
        # Only the kind's own argument, so that ``name`` holds all of a spec.
        own = (self.kind in _CLASS_KINDS, self.kind == ECE, self.kind == MEAN_MIN_SCORE)
        if (self.class_label is not None, self.bins != 0, self.class_subset != ()) != own:
            raise ValueError(f"metric {self.kind!r} was given an argument it does not take")

    # -- factories ---------------------------------------------------------

    @classmethod
    def accuracy(cls) -> "MetricSpec":
        return cls(ACCURACY)

    @classmethod
    def precision(cls, class_label: str) -> "MetricSpec":
        return cls(PRECISION, class_label=class_label)

    @classmethod
    def recall(cls, class_label: str) -> "MetricSpec":
        return cls(RECALL, class_label=class_label)

    @classmethod
    def f1(cls, class_label: str) -> "MetricSpec":
        return cls(F1, class_label=class_label)

    @classmethod
    def weighted(cls, which: str) -> "MetricSpec":
        kind = f"weighted_{which}"
        if kind not in _WEIGHTED_KINDS:
            raise ValueError(f"no weighted variant of {which!r}")
        return cls(kind)

    @classmethod
    def ece(cls, bins: int = DEFAULT_ECE_BINS) -> "MetricSpec":
        return cls(ECE, bins=int(bins))

    @classmethod
    def mean_min_score(cls, class_subset) -> "MetricSpec":
        return cls(MEAN_MIN_SCORE, class_subset=tuple(class_subset))

    # -- properties ----------------------------------------------------------

    @property
    def requires_scores(self) -> bool:
        return self.kind in (ECE, MEAN_MIN_SCORE)

    @property
    def name(self) -> str:
        if self.kind in _CLASS_KINDS:
            return f"{self.kind}:{self.class_label}"
        if self.kind == ECE:
            return f"ece:{self.bins}"
        if self.kind == MEAN_MIN_SCORE:
            return f"mean_min_score:{','.join(self.class_subset)}"
        return self.kind


def parse_metric(text: str) -> MetricSpec:
    """Split a metric selection string into a :class:`MetricSpec`, which
    checks it.  Spaces around the kind are dropped; an argument is verbatim."""
    kind, sep, arg = text.partition(":")
    kind = kind.strip()
    if kind == ECE:
        try:
            bins = int(arg) if sep else DEFAULT_ECE_BINS
        except ValueError:
            raise ValueError(f"ece bin count {arg!r} is not an integer") from None
        return MetricSpec(ECE, bins=bins)
    if kind == MEAN_MIN_SCORE:
        return MetricSpec(kind, class_subset=tuple(arg.split(",")))
    if kind in _CLASS_KINDS:
        return MetricSpec(kind, class_label=arg)
    spec = MetricSpec(kind)
    if sep:
        raise ValueError(f"metric {kind!r} takes no argument")
    return spec


# -- evaluation -------------------------------------------------------------


class MetricStats:
    """A metric resolved against one table, as sufficient statistics.

    Every metric here is a function of per-row statistics summed over a row
    set: ``n_counts`` integer *count* columns and ``n_amounts`` non-negative
    float *amount* columns.

    - accuracy: counts [correct];
    - precision, recall, f1 (one class) and weighted_* (every class):
      counts [pred == c] per class, then [true == c], then [both];
    - ece:B: counts [in bin b] per bin, then [in bin b and correct];
      amounts [confidence if in bin b] per bin;
    - mean_min_score: amounts [min score over the class subset].

    :meth:`stats` gives each row's column codes, :meth:`sums` adds them up
    over many row groups at once, :meth:`value` turns sums into values and
    :meth:`exact` turns exact sums into values.
    An amount sum that is off by ``e`` moves a value by at most ``e / n``
    before rounding, ``n`` being the row count of that set.

    Construction checks the metric's classes and score requirement once.
    """

    def __init__(self, spec: MetricSpec, table: PredictionTable):
        for lbl in (spec.class_label, *spec.class_subset):
            if lbl is not None and lbl not in table.classes.labels:
                raise ValueError(f"metric references unknown class {lbl!r}")
        if spec.requires_scores and table.scores is None:
            raise MissingScoresError(f"metric {spec.name} needs score columns")
        self.spec = spec
        self.table = table
        if spec.kind in _CLASS_KINDS:
            codes = [table.classes.labels.index(spec.class_label)]
        elif spec.kind in _WEIGHTED_KINDS:
            codes = range(table.classes.k)
        else:
            codes = [table.classes.labels.index(lbl) for lbl in spec.class_subset]
        self._codes = np.array(codes, dtype=np.int64)
        k = self._codes.size
        self.n_counts = {ACCURACY: 1, ECE: 2 * spec.bins, MEAN_MIN_SCORE: 0}.get(spec.kind, 3 * k)
        self.n_amounts = {ECE: spec.bins, MEAN_MIN_SCORE: 1}.get(spec.kind, 0)
        # The code for no count column, in the narrowest dtype; class places.
        self._none = np.min_scalar_type(self.n_counts).type(self.n_counts)
        self._place = np.full(table.classes.k, self._none)
        self._place[self._codes] = np.arange(k)

    def stats(self, idx: np.ndarray):
        """Per-row codes ``(counts, weights)`` of rows ``idx``: row ``i`` adds one
        to each count column in ``counts[i]`` (``n_counts``: to none) and
        ``weights[i]`` (None: no amounts) to one amount column: the row's bin
        ``counts[i, 0]`` for ece, else column 0."""
        table, kind, none = self.table, self.spec.kind, self._none
        correct = table.correct[idx]
        if kind == ACCURACY:
            return np.where(correct, none.dtype.type(0), none)[:, None], None
        if kind == MEAN_MIN_SCORE:
            return np.empty((idx.size, 0), none.dtype), table.scores[idx][:, self._codes].min(axis=1)
        if kind == ECE:
            bins = self.spec.bins
            # Column by column: max(axis=1) is ten times slower on a few classes.
            conf = functools.reduce(np.maximum, table.scores[idx].T)
            # Equal-width bins on [0, 1], each (lo, hi] but the first [0, hi]:
            # a row's bin is the number of inner edges below its confidence.
            edges = np.array([i / bins for i in range(1, bins)])
            which = np.searchsorted(edges, conf, side="left").astype(none.dtype)
            return np.stack([which, np.where(correct, bins + which, none)], axis=1), conf
        pred, true = self._place[table.pred_codes[idx]], self._place[table.y_codes[idx]]
        k, found = self._codes.size, true != none
        tp = np.where(found & correct, 2 * k + true, none)
        return np.stack([pred, np.where(found, k + true, none), tp], axis=1), None

    def _amount_keys(self, group: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """``g * n_amounts + a`` per row of group ``g``, ``a`` its amount column."""
        return group * self.n_amounts + (counts[:, 0] if self.spec.kind == ECE else 0)

    def sums(self, stats, group: np.ndarray, n_groups: int) -> tuple[np.ndarray, np.ndarray]:
        """Statistic sums ``(counts, amounts)`` of row groups: row ``g`` sums
        the rows of ``stats`` whose ``group`` is ``g``.  Counts are exact; a
        group's amounts are added up recursively, in the order given."""
        counts, weights = stats
        width, a = self.n_counts + 1, self.n_amounts
        c = np.bincount((group[:, None] * width + counts).ravel(), minlength=n_groups * width)
        w = np.zeros(0)
        if a:
            w = np.bincount(self._amount_keys(group, counts), weights, minlength=n_groups * a)
        return c.reshape(n_groups, width)[:, :-1], w.reshape(n_groups, a)

    def exact(self, stats, group: np.ndarray, n_groups: int) -> list[MetricValue]:
        """Values of row groups, as :meth:`sums` groups them, from exact sums:
        the counts of :meth:`sums`, and each group's amount column added once
        by ``math.fsum``, which is correctly rounded, whatever the row order."""
        counts, _ = self.sums(stats, group, n_groups)
        amounts = np.zeros((n_groups, self.n_amounts))
        if amounts.size:
            keys = self._amount_keys(group, stats[0])
            ends = np.cumsum(np.bincount(keys, minlength=amounts.size)).tolist()
            w = stats[1][np.argsort(keys)]
            amounts.flat = [math.fsum(w[s:e]) for s, e in zip([0] + ends, ends)]
        n = np.bincount(group, minlength=n_groups)
        pairs = zip(*(x.tolist() for x in self.value(counts, amounts, n)))
        return [MetricValue(None if math.isnan(v) else v, s) for v, s in pairs]

    def value(
        self, counts: np.ndarray, amounts: np.ndarray, n: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Values and supports of row sets from their statistic sums.

        Row ``r`` of ``counts`` (int64) and ``amounts`` (float64) holds the
        column sums over a set of ``n[r]`` rows.  Returns ``(values,
        supports)``, a value being NaN where the metric is undefined.  The
        arithmetic is that of one scalar evaluation, elementwise: int/int
        division, and ``math.fsum`` across classes and bins, so equal sums
        give bit-equal values.
        """
        kind = self.spec.kind
        with np.errstate(divide="ignore", invalid="ignore"):
            if kind == ACCURACY:
                return _defined(n > 0, counts[:, 0] / n), n
            if kind == MEAN_MIN_SCORE:
                return _defined(n > 0, amounts[:, 0] / n), n
            if kind == ECE:
                bins = self.spec.bins
                size, hits = counts[:, :bins], counts[:, bins:]
                parts = (size / n[:, None]) * np.abs(hits / size - amounts / size)
                return _defined(n > 0, _fsum_rows(np.where(size > 0, parts, 0.0))), n
            k = self._codes.size
            pred, true, tp = counts[:, :k], counts[:, k : 2 * k], counts[:, 2 * k :]
            values, supports = _per_class(kind.removeprefix("weighted_"), pred, true, tp)
            if kind in _CLASS_KINDS:
                return values[:, 0], supports[:, 0]
            # Weighted by true-class counts over the classes present; one
            # undefined constituent makes the whole average undefined.
            present = true > 0
            terms = np.where(present, true * values, 0.0)
            defined = (n > 0) & ~(present & np.isnan(values)).any(axis=1)
            return _defined(defined, _fsum_rows(terms) / n), n


def _defined(mask: np.ndarray, values: np.ndarray) -> np.ndarray:
    return np.where(mask, values, np.nan)


def _fsum_rows(a: np.ndarray) -> np.ndarray:
    return np.array([math.fsum(row) for row in a.tolist()], dtype=np.float64)


def _per_class(kind: str, pred, true, tp) -> tuple[np.ndarray, np.ndarray]:
    """Per-class precision, recall or f1 (NaN where undefined) and supports
    from the [pred == c], [true == c] and [both] count sums."""
    precision = _defined(pred > 0, tp / pred)
    recall = _defined(true > 0, tp / true)
    if kind == PRECISION:
        return precision, pred
    if kind == RECALL:
        return recall, true
    s = precision + recall
    return _defined(s != 0.0, 2.0 * precision * recall / s), np.minimum(pred, true)


def evaluate(spec: MetricSpec, view: SubsetView) -> MetricValue:
    """Evaluate a metric on the rows of ``view``.

    Returns an undefined :class:`MetricValue` when the metric's denominator
    is empty on these rows (for example precision of a class that is never
    predicted here).  Raises :class:`MissingScoresError` when a score-based
    metric meets a table without score columns.
    """
    return evaluate_indices(spec, view.table, view.indices)


def evaluate_indices(spec: MetricSpec, table: PredictionTable, indices: np.ndarray) -> MetricValue:
    """:func:`evaluate` on a raw index array: one group of :meth:`MetricStats.exact`."""
    metric = MetricStats(spec, table)
    return metric.exact(metric.stats(indices), np.zeros(indices.size, dtype=np.intp), 1)[0]
