"""Slow reference implementations the oracle tests compare against.

Everything here is written with plain Python loops over plain lists, on
purpose: it shares no code with the package's vectorized paths, so agreement
between the two sides is evidence, not tautology.  The split-search oracle
takes the side-value function as a parameter; passing the package's metric
evaluator makes betas bit-comparable while the search logic stays
independent.  The CSV loader reference parses and checks every cell itself
and shares only ``PredictionTable``'s own checks with the package.  The
growth reference is the exception: it calls the package's split search, but
on a fresh view at every node, so that no node inherits its parent's sorted
orders.
"""

import csv
import io
import itertools
import math
from pathlib import Path

import numpy as np

from perfex.dataset import (
    BINARY,
    CATEGORICAL,
    NUMERIC,
    PRED_COLUMN,
    SCORE_PREFIX,
    TRUE_COLUMN,
    ClassSet,
    Feature,
    FeatureSchema,
    PredictionTable,
    SubsetView,
)
from perfex.errors import DataFormatError, EmptyTableError
from perfex.evaluation import EvaluationReport, LeafComparison
from perfex.metrics import evaluate_indices
from perfex.splitter import SearchConfig, best_split
from perfex.tree import Internal, Leaf, MetaTree, assign, schema_fingerprint


class NeedsScores(Exception):
    """Raised where the package would raise MissingScoresError."""


# -- metric reference --------------------------------------------------------


def naive_metric(desc, classes, rows):
    """Evaluate one metric with explicit loops.

    ``desc``: ("accuracy",) | ("precision", label) | ("recall", label) |
    ("f1", label) | ("weighted_precision",) | ("weighted_recall",) |
    ("weighted_f1",) | ("ece", bins) | ("mean_min_score", (l1, l2, ...)).
    ``rows``: list of (true, pred, scores-or-None), scores aligned with
    ``classes``.  Returns (value-or-None, support).
    """
    kind = desc[0]
    n = len(rows)
    if kind == "accuracy":
        if n == 0:
            return (None, 0)
        hits = sum(1 for y, p, _ in rows if y == p)
        return (hits / n, n)
    if kind == "precision":
        c = desc[1]
        sel = [(y, p) for y, p, _ in rows if p == c]
        if not sel:
            return (None, 0)
        hits = sum(1 for y, p in sel if y == p)
        return (hits / len(sel), len(sel))
    if kind == "recall":
        c = desc[1]
        sel = [(y, p) for y, p, _ in rows if y == c]
        if not sel:
            return (None, 0)
        hits = sum(1 for y, p in sel if y == p)
        return (hits / len(sel), len(sel))
    if kind == "f1":
        c = desc[1]
        p, sp = naive_metric(("precision", c), classes, rows)
        r, sr = naive_metric(("recall", c), classes, rows)
        support = min(sp, sr)
        if p is None or r is None or p + r == 0.0:
            return (None, support)
        return (2.0 * p * r / (p + r), support)
    if kind in ("weighted_precision", "weighted_recall", "weighted_f1"):
        base = kind.split("_", 1)[1]
        if n == 0:
            return (None, 0)
        total = 0.0
        for c in classes:
            weight = sum(1 for y, _, _ in rows if y == c)
            if weight == 0:
                continue
            v, _ = naive_metric((base, c), classes, rows)
            if v is None:
                return (None, n)
            total += weight * v
        return (total / n, n)
    if kind == "ece":
        bins = desc[1]
        if n == 0:
            return (None, 0)
        confs = []
        for y, p, s in rows:
            if s is None:
                raise NeedsScores
            confs.append((max(s), y == p))
        total = 0.0
        for b in range(bins):
            lo = b / bins
            hi = (b + 1) / bins
            member = [
                (c, ok) for c, ok in confs if c <= hi and (c > lo or b == 0)
            ]
            if not member:
                continue
            size = len(member)
            acc = sum(1 for _, ok in member if ok) / size
            avg = sum(c for c, _ in member) / size
            total += (size / n) * abs(acc - avg)
        return (total, n)
    if kind == "mean_min_score":
        subset = desc[1]
        if n == 0:
            return (None, 0)
        cols = [classes.index(c) for c in subset]
        total = 0.0
        for y, p, s in rows:
            if s is None:
                raise NeedsScores
            total += min(s[j] for j in cols)
        return (total / n, n)
    raise AssertionError(kind)


def all_metric_descs(classes, with_subsets=True):
    """Every metric description worth checking on a table with ``classes``."""
    out = [("accuracy",)]
    for c in classes:
        out.extend([("precision", c), ("recall", c), ("f1", c)])
    out.extend([("weighted_precision",), ("weighted_recall",), ("weighted_f1",)])
    out.extend([("ece", 1), ("ece", 5), ("ece", 10)])
    if with_subsets:
        out.append(("mean_min_score", tuple(classes[:2])))
        if len(classes) > 2:
            out.append(("mean_min_score", tuple(classes)))
    return out


# -- split-search reference --------------------------------------------------


def naive_thresholds(values, cap=None):
    """Distinct sorted values, or nearest-rank quantiles past the cap.

    ``cap=None`` applies the automatic rule: everything up to 256 distinct
    values, 255 quantiles beyond.
    """
    distinct = sorted(set(values))
    if cap is None:
        cap = None if len(distinct) <= 256 else 255
    if cap is None or len(distinct) <= cap:
        return distinct
    ordered = sorted(values)
    n = len(ordered)
    picks = []
    for q in range(1, cap + 1):
        i = math.ceil((q / (cap + 1)) * n) - 1
        picks.append(ordered[min(max(i, 0), n - 1)])
    return sorted(set(picks))


def naive_best_split(plain, alpha, min_support, value_fn, cap=None, tie_tol=1e-12):
    """Exhaustive search over all conditions, first maximal candidate wins.

    ``plain`` is a dict from :func:`random_plain_table`; ``value_fn`` maps a
    list of row indices to (value-or-None, support).  Returns
    (feature, kind, value, beta) or None.  Enumeration order: features by
    index, numeric thresholds ascending, categories in schema order; a
    candidate is feasible when both sides have ``alpha`` rows, a defined
    value, and ``min_support`` support; an incumbent is replaced only on a
    strict beta improvement larger than ``tie_tol``.
    """
    n = len(plain["y"])
    best = None
    best_beta = 0.0
    for j, (_, kind, cats) in enumerate(plain["features"]):
        col = plain["columns"][j]
        if kind == "categorical":
            present = set(col)
            conds = [("eq", c) for c in cats if c in present]
        else:
            conds = [("le", v) for v in naive_thresholds(col, cap)]
        for ckind, v in conds:
            if ckind == "eq":
                left = [i for i in range(n) if col[i] == v]
            else:
                left = [i for i in range(n) if col[i] <= v]
            left_set = set(left)
            right = [i for i in range(n) if i not in left_set]
            if len(left) < alpha or len(right) < alpha:
                continue
            v1, s1 = value_fn(left)
            v2, s2 = value_fn(right)
            if v1 is None or v2 is None:
                continue
            if s1 < min_support or s2 < min_support:
                continue
            beta = abs(v1 - v2)
            if abs(beta - best_beta) < tie_tol:
                continue
            if beta > best_beta:
                best = (j, ckind, v, beta)
                best_beta = beta
    return best


# -- growth reference ---------------------------------------------------------


def naive_grow(table, metric, stopping, alpha, max_thresholds=None, leaf_rows=None):
    """The tree ``build_tree`` should grow, grown by searching each node on a
    fresh ``SubsetView`` of its rows, so every node sorts its columns from
    scratch instead of partitioning its parent's orders.  Each leaf's rows
    are appended to ``leaf_rows``, when given, in leaf-id order."""
    config = SearchConfig(alpha, stopping.min_support, max_thresholds)
    ids = itertools.count()

    def grow(indices, value, depth):
        if depth < stopping.max_depth:
            found = best_split(SubsetView(table, indices), metric, config)
            if found is not None and found.beta >= stopping.min_beta:
                left = grow(found.left.indices, found.e_left, depth + 1)
                right = grow(found.right.indices, found.e_right, depth + 1)
                return Internal(found.candidate, left, right)
        if leaf_rows is not None:
            leaf_rows.append(indices)
        return Leaf(next(ids), indices.size, value)

    rows = np.arange(table.n, dtype=np.int64)
    root = grow(rows, evaluate_indices(metric, table, rows), 0)
    fingerprint = schema_fingerprint(table.schema, table.classes)
    return MetaTree(root, metric, stopping, alpha, fingerprint, table.n)


# -- held-out evaluation reference --------------------------------------------


def naive_evaluate_tree(tree, build, test):
    """The report ``evaluate_tree`` should give, with one ``flatnonzero`` and
    one ``evaluate_indices`` per leaf and side (the per-leaf loop the grouped
    evaluation replaced, kept verbatim but for the metric's source)."""
    metric = tree.metric
    assigned_build = assign(tree, build)
    assigned_test = assign(tree, test)

    comparisons = []
    errors = []
    build_values = []
    undefined = []
    for stats in tree.leaf_stats():
        lid = stats.leaf_id
        bidx = np.flatnonzero(assigned_build == lid)
        tidx = np.flatnonzero(assigned_test == lid)
        e_build = evaluate_indices(metric, build, bidx)
        e_test = evaluate_indices(metric, test, tidx)
        comp = LeafComparison(lid, int(bidx.size), int(tidx.size), e_build, e_test)
        comparisons.append(comp)
        if e_build.defined:
            build_values.append(e_build.value)
        if comp.abs_error is None:
            undefined.append(lid)
        else:
            errors.append(comp.abs_error)

    mae = math.fsum(errors) / len(errors) if errors else None
    spread = max(build_values) - min(build_values) if build_values else None
    return EvaluationReport(
        metric=metric.name,
        leaves=tuple(comparisons),
        mae=mae,
        spread=spread,
        undefined_leaves=tuple(undefined),
    )


# -- CART reference -----------------------------------------------------------


def naive_cart(columns, y, k, max_depth):
    """A Gini-grown tree that scores one threshold at a time, in the shape
    ``CartClassifier`` builds: ``("leaf", class frequencies)`` or
    ``("split", feature, threshold, left, right)``.

    ``columns`` are lists of floats and ``y`` class indices below ``k``.
    Features go in index order and thresholds (:func:`naive_thresholds`) in
    ascending order; a candidate replaces the incumbent only on a strictly
    lower weighted impurity, and a node splits only if the best impurity is
    below its own.  Squared class shares are summed in class order, as numpy
    sums fewer than eight of them, so impurities match bit for bit.
    """

    def gini(counts):
        n = sum(counts)
        return 1.0 - sum((c / n) * (c / n) for c in counts)

    def grow(rows, depth):
        counts = [0] * k
        for i in rows:
            counts[y[i]] += 1
        n = len(rows)
        leaf = ("leaf", [c / n for c in counts])
        if depth >= max_depth or n < 2 or gini(counts) == 0.0:
            return leaf
        best = None  # (impurity, feature, threshold)
        for j, col in enumerate(columns):
            for v in naive_thresholds([col[i] for i in rows]):
                left = [0] * k
                for i in rows:
                    if col[i] <= v:
                        left[y[i]] += 1
                n_left = sum(left)
                if n_left == n:
                    continue
                right = [c - c_left for c, c_left in zip(counts, left)]
                impurity = (n_left * gini(left) + (n - n_left) * gini(right)) / n
                if best is None or impurity < best[0]:
                    best = (impurity, j, v)
        if best is None or best[0] >= gini(counts):
            return leaf
        _, j, v = best
        return (
            "split",
            j,
            v,
            grow([i for i in rows if columns[j][i] <= v], depth + 1),
            grow([i for i in rows if columns[j][i] > v], depth + 1),
        )

    return grow(list(range(len(y))), 0)


# -- random test tables ------------------------------------------------------


def random_plain_table(rng, max_rows=200, max_features=3, with_scores=None):
    """A random mixed-kind table as plain lists.

    Numeric columns draw from a small value pool so duplicate thresholds and
    boundary ties actually occur.  Returns a dict with keys ``features``
    (name, kind, categories-or-None), ``columns``, ``classes``, ``y``,
    ``pred``, ``scores`` (row lists or None).
    """
    n = int(rng.integers(8, max_rows + 1))
    m = int(rng.integers(1, max_features + 1))
    k = int(rng.integers(2, 5))
    classes = [f"c{z}" for z in range(k)]
    features = []
    columns = []
    for j in range(m):
        kind = str(rng.choice(["numeric", "binary", "categorical"]))
        if kind == "numeric":
            pool = rng.normal(0.0, 1.0, size=int(rng.integers(2, 9)))
            col = [float(rng.choice(pool)) for _ in range(n)]
            features.append((f"f{j}", "numeric", None))
        elif kind == "binary":
            col = [float(rng.integers(0, 2)) for _ in range(n)]
            features.append((f"f{j}", "binary", None))
        else:
            pool = [f"g{z}" for z in range(int(rng.integers(2, 5)))]
            col = [str(rng.choice(pool)) for _ in range(n)]
            features.append((f"f{j}", "categorical", tuple(sorted(set(col)))))
        columns.append(col)
    y = [classes[int(rng.integers(0, k))] for _ in range(n)]
    pred = [classes[int(rng.integers(0, k))] for _ in range(n)]
    if with_scores is None:
        with_scores = bool(rng.integers(0, 2))
    scores = None
    if with_scores:
        scores = [list(map(float, rng.dirichlet([1.0] * k))) for _ in range(n)]
    return {
        "features": features,
        "columns": columns,
        "classes": classes,
        "y": y,
        "pred": pred,
        "scores": scores,
    }


def plain_rows(plain):
    """The (true, pred, scores) row list :func:`naive_metric` wants."""
    scores = plain["scores"]
    return [
        (y, p, scores[i] if scores is not None else None)
        for i, (y, p) in enumerate(zip(plain["y"], plain["pred"]))
    ]


# -- CSV loader reference ----------------------------------------------------
#
# The whole-text loader the streamed ``load_table`` replaced, kept verbatim:
# every cell goes through ``_parse_float`` after the whole file is decoded,
# split into records and transposed.  The streamed loader must return the
# same table, or raise the same exception with the same message.


def _parse_float(cell: str, row: int, column: str) -> float:
    if cell == "":
        raise DataFormatError(f"missing value in column {column!r}", row=row)
    try:
        v = float(cell)
    except ValueError:
        raise DataFormatError(
            f"cannot parse {cell!r} in column {column!r} as a number", row=row
        ) from None
    if not math.isfinite(v):
        raise DataFormatError(f"non-finite value in column {column!r}", row=row)
    return v


def _parse_column(cells, column: str) -> list[float]:
    return [_parse_float(cell, i, column) for i, cell in enumerate(cells, 1)]


def _require_cells(cells, column: str) -> None:
    if "" in cells:
        raise DataFormatError(
            f"missing value in column {column!r}", row=cells.index("") + 1
        )


def _records(text: str) -> list[list[str]]:
    """The CSV records of ``text``, header first.  A record the ``csv`` module
    rejects (a field over its size limit) raises a DataFormatError naming it."""
    records = []
    try:
        for record in csv.reader(io.StringIO(text, newline="")):
            records.append(record)
    except csv.Error as exc:
        if not records:
            raise DataFormatError(f"header: {exc}") from None
        raise DataFormatError(str(exc), row=len(records)) from None
    return records


def _infer_feature(name: str, cells) -> Feature:
    # Inference rule: a column with any cell float() rejects is categorical;
    # one whose distinct values sit inside {0, 1} is binary; everything else
    # is numeric.  "nan" and "inf" count as numbers, so a non-finite cell is
    # rejected by _parse_float rather than read as a category.
    try:
        distinct = set(map(float, cells))
    except ValueError:
        return Feature(name, CATEGORICAL, tuple(sorted(set(cells))))
    return Feature(name, BINARY if distinct <= {0.0, 1.0} else NUMERIC)


def naive_load_table(
    source,
    schema: FeatureSchema | None = None,
    classes: ClassSet | None = None,
    *,
    scores_are_probabilities: bool = True,
) -> PredictionTable:
    """Load a prediction table from CSV.

    Parameters
    ----------
    source:
        A filesystem path, ``bytes``, or a readable file object.
    schema:
        Optional schema.  When omitted, feature kinds are inferred from the
        data: all-numeric columns with values inside {0, 1} become binary,
        columns with non-numeric cells become categorical (categories sorted),
        the rest numeric.
    classes:
        Optional declared class set.  When score columns are present their
        order defines the class set and ``classes``, if also given, must
        agree.  With neither, classes are the sorted distinct labels seen in
        ``__true__`` and ``__pred__``.

    Raises
    ------
    DataFormatError
        On any malformed content; the offending 1-based data row is named
        where applicable.  A record the ``csv`` module rejects comes first,
        then the header.  After every row's width is checked, cells are
        checked column by column, left to right, so the error names the
        first bad cell of the first bad column.  An empty table is an error.
    UnknownClassError
        When a label is not in the declared class set.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            data = fh.read()
    elif isinstance(source, (bytes, bytearray)):
        data = bytes(source)
    else:
        data = source.read()
        if isinstance(data, str):
            data = data.encode("utf-8")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bad byte's row: the last record of the text before it plus a stand-in.
        row = len(_records(data[: exc.start].decode("utf-8") + "?")) - 1
        where = "text" if row else "header"
        raise DataFormatError(f"{where} is not valid UTF-8", row=row or None) from None

    rows = _records(text)
    if not rows:
        raise DataFormatError("empty file: no header")
    header = rows.pop(0)

    if TRUE_COLUMN not in header:
        raise DataFormatError(f"header has no {TRUE_COLUMN} column")
    true_at = header.index(TRUE_COLUMN)
    feature_names = header[:true_at]
    if not feature_names:
        raise DataFormatError("no feature columns before the label columns")
    if len(header) <= true_at + 1 or header[true_at + 1] != PRED_COLUMN:
        raise DataFormatError(f"{PRED_COLUMN} must immediately follow {TRUE_COLUMN}")
    score_headers = header[true_at + 2 :]
    for h in score_headers:
        if not h.startswith(SCORE_PREFIX):
            raise DataFormatError(f"unexpected trailing column {h!r}")
    for names in (feature_names, score_headers):
        if len(set(names)) < len(names):
            dup = next(h for i, h in enumerate(names) if h in names[:i])
            raise DataFormatError(f"duplicate column {dup!r}")
    if len(score_headers) == 1:
        raise DataFormatError(f"one score column {score_headers[0]!r}; need one per class")
    if SCORE_PREFIX in score_headers:
        raise DataFormatError(f"score column {SCORE_PREFIX!r} names no class")
    score_labels = [h[len(SCORE_PREFIX) :] for h in score_headers]

    if score_labels:
        declared = ClassSet(tuple(score_labels))
        if classes is not None and classes != declared:
            raise DataFormatError("declared classes do not match score columns")
        classes = declared

    if not rows:
        raise EmptyTableError("table has no data rows")
    width = len(header)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DataFormatError(
                f"expected {width} cells, got {len(row)}", row=i + 1
            )
    cells = list(zip(*rows))
    del rows  # the columns hold the same strings; free the row lists early

    raw_features = cells[:true_at]
    if schema is None:
        schema = FeatureSchema(tuple(map(_infer_feature, feature_names, raw_features)))
    elif schema.names != tuple(feature_names):
        raise DataFormatError("schema feature names do not match the CSV header")

    columns = []
    for feature, raw in zip(schema.features, raw_features):
        if feature.kind == CATEGORICAL:
            _require_cells(raw, feature.name)
            columns.append(raw)
        else:
            columns.append(_parse_column(raw, feature.name))

    y_true, y_pred = cells[true_at], cells[true_at + 1]
    _require_cells(y_true, TRUE_COLUMN)
    _require_cells(y_pred, PRED_COLUMN)
    if classes is None:
        labels = sorted(set(y_true) | set(y_pred))
        if len(labels) < 2:
            raise DataFormatError(f"{TRUE_COLUMN} and {PRED_COLUMN} hold one class only")
        classes = ClassSet(tuple(labels))

    scores = None
    if score_labels:
        parsed = map(_parse_column, cells[true_at + 2 :], score_headers)
        scores = np.array(list(parsed), dtype=np.float64).T

    return PredictionTable(
        schema,
        classes,
        columns,
        y_true,
        y_pred,
        scores,
        scores_are_probabilities=scores_are_probabilities,
    )
