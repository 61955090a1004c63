"""Hand-built tables and converters shared across the test modules."""

import io

import numpy as np

from perfex import (
    ClassSet,
    Feature,
    FeatureSchema,
    GaussianSpec,
    MetricSpec,
    PredictionTable,
    generate_blobs,
    predict_table,
)
from perfex.dataset import _write_rows
from perfex.synth import GaussianDensityClassifier


def make_table(kinds, columns, y, pred, scores=None, classes=None, categories=None):
    """Assemble a PredictionTable from plain lists with minimal ceremony.

    ``kinds`` is one letter per feature: n(umeric), b(inary), c(ategorical).
    Categorical categories default to the sorted distinct values.
    """
    feats = []
    for j, kind in enumerate(kinds):
        name = f"f{j}"
        if kind == "c":
            cats = categories[j] if categories else tuple(sorted(set(columns[j])))
            feats.append(Feature(name, "categorical", tuple(cats)))
        elif kind == "b":
            feats.append(Feature(name, "binary"))
        else:
            feats.append(Feature(name, "numeric"))
    if classes is None:
        classes = tuple(sorted(set(y) | set(pred)))
    return PredictionTable(
        FeatureSchema(tuple(feats)), ClassSet(tuple(classes)), columns, y, pred, scores
    )


# Ten rows on one numeric axis, named z.  On the z <= -1 side 2 of 5
# predictions are correct, on the z > -1 side 4 of 5, so the best split sits
# at -1 with leaf accuracies of exactly 0.4 and 0.8 and a gap of exactly 0.4.
WORKED_Z = [-5.0, -4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0, 5.0]
WORKED_CORRECT = [False, True, False, True, False, True, True, True, False, True]


def worked_example_table():
    y = ["a"] * 10
    pred = [("a" if ok else "b") for ok in WORKED_CORRECT]
    feats = FeatureSchema((Feature("z", "numeric"),))
    return PredictionTable(feats, ClassSet(("a", "b")), [WORKED_Z], y, pred)


def hostile_table():
    """60 rows with a numeric, a binary and a categorical feature, three
    classes and scores; a depth-3 accuracy tree splits on all three."""
    rng = np.random.default_rng(3)
    n, labels = 60, ("a", "b", "c")
    x = rng.normal(size=n).round(3)
    flag = rng.integers(0, 2, n)
    color = rng.choice(["red", "green", "blue"], n)
    y = rng.choice(labels, n)
    correct = (color == "red") | ((flag == 1) & (x > 0))
    pred = np.where(correct, y, np.where(y == "a", "b", "a"))
    scores = np.full((n, 3), 0.1)
    scores[np.arange(n), [labels.index(p) for p in pred]] = 0.8
    columns = [x.tolist(), flag.astype(float).tolist(), color.tolist()]
    return make_table("nbc", columns, y.tolist(), pred.tolist(), scores, classes=labels)


def plain_to_table(plain):
    """Build the real PredictionTable for a random plain table."""
    feats = []
    for name, kind, cats in plain["features"]:
        if kind == "categorical":
            feats.append(Feature(name, "categorical", cats))
        else:
            feats.append(Feature(name, kind))
    return PredictionTable(
        FeatureSchema(tuple(feats)),
        ClassSet(tuple(plain["classes"])),
        plain["columns"],
        plain["y"],
        plain["pred"],
        plain["scores"],
    )


def desc_to_spec(desc):
    """Map a naive metric description tuple onto a MetricSpec."""
    kind = desc[0]
    if kind == "accuracy":
        return MetricSpec.accuracy()
    if kind == "precision":
        return MetricSpec.precision(desc[1])
    if kind == "recall":
        return MetricSpec.recall(desc[1])
    if kind == "f1":
        return MetricSpec.f1(desc[1])
    if kind == "weighted_precision":
        return MetricSpec.weighted("precision")
    if kind == "weighted_recall":
        return MetricSpec.weighted("recall")
    if kind == "weighted_f1":
        return MetricSpec.weighted("f1")
    if kind == "ece":
        return MetricSpec.ece(desc[1])
    if kind == "mean_min_score":
        return MetricSpec.mean_min_score(desc[1])
    raise AssertionError(desc)


def baseline_table(n, m=8, seed=7):
    """The benchmark recipe's table: three blobs ``0``, ``1``, ``2`` of about
    n/3 rows each, sigma 1, blob ``c`` centred at 2 on feature ``c`` of ``m``;
    predictions and scores from a density classifier with the means scaled
    by 0.8 and sigma 1.2."""
    specs = []
    for c in range(3):
        mean = [0.0] * m
        mean[c] = 2.0
        specs.append(GaussianSpec(str(c), tuple(mean), 1.0, n // 3 + (c < n % 3)))
    classifier = GaussianDensityClassifier(
        [(s.label, tuple(0.8 * v for v in s.mean), 1.2) for s in specs]
    )
    return predict_table(classifier, generate_blobs(specs, seed))


def tables_equal(a, b) -> bool:
    """Field-by-field equality of two PredictionTables, exact on every array."""
    if a.schema != b.schema or a.classes != b.classes:
        return False
    if a.n != b.n:
        return False
    if a.scores_are_probabilities != b.scores_are_probabilities:
        return False
    for j in range(a.m):
        if not np.array_equal(a.column(j), b.column(j)):
            return False
    if not (np.array_equal(a.y_codes, b.y_codes) and np.array_equal(a.pred_codes, b.pred_codes)):
        return False
    if (a.scores is None) != (b.scores is None):
        return False
    if a.scores is not None and not np.array_equal(a.scores, b.scores):
        return False
    return True


def table_to_csv_text(table) -> str:
    """The CSV text ``write_csv`` writes for ``table``."""
    buf = io.StringIO()
    _write_rows(table, buf)
    return buf.getvalue()
