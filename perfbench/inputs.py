"""Seeded input generation for the benchmark workloads.

Every input is a pure function of the workload seed, so the same seed gives
byte-identical files.  Class geometry is fixed; the seed only changes the
draws, which keeps tree shape (and so the work per operation) nearly the
same from seed to seed.  These functions import perfex and run in the
benchmark's own process during set-up; the timed operations only ever see
the files written here.
"""

from __future__ import annotations

import numpy as np

from perfex.dataset import (
    BINARY,
    CATEGORICAL,
    NUMERIC,
    Feature,
    FeatureSchema,
    PredictionTable,
    write_csv,
)
from perfex.metrics import MetricSpec
from perfex.synth import (
    CartClassifier,
    GaussianSpec,
    blob_specs,
    generate_blobs,
    predict_table,
    split_dataset,
)
from perfex.tree import StoppingRule, build_tree, serialize_tree

# fit-numeric: three 8-D Gaussian classes that differ in a few coordinates.
NUMERIC_MEANS = (
    (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (1.5, 1.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0),
    (0.0, 1.5, 1.0, 0.0, 0.5, 0.0, 0.0, 0.0),
)

# fit-scores: four 3-D classes.
SCORES_MEANS = (
    (0.0, 0.0, 0.0),
    (1.5, 0.0, 0.5),
    (0.0, 1.5, 0.5),
    (1.0, 1.0, 1.5),
)
SCORES_LEVELS = 12  # categories of the categorical feature

# holdout: the reference tree is shallow so set-up stays cheap; evaluate's
# cost is dominated by the two CSV loads whatever the tree's size.
HOLDOUT_REF_DEPTH = 3


def _labeled_halves(means, rows: int, seed: int):
    """Blobs with ``2 * rows`` rows split 50/50: (train half, predicted half)."""
    k = len(means)
    total = 2 * rows
    specs = [
        GaussianSpec(str(c), means[c], 1.0, total // k + (1 if c < total % k else 0))
        for c in range(k)
    ]
    train, held = split_dataset(generate_blobs(specs, seed), (0.5, 0.5), seed)
    classifier = CartClassifier(max_depth=3).fit(train)
    return predict_table(classifier, held)


def write_fit_numeric(rows: int, seed: int, out_dir) -> None:
    """``data.csv``: 8 continuous features, 3 classes, predictions from a
    depth-3 CART trained on a disjoint half."""
    write_csv(_labeled_halves(NUMERIC_MEANS, rows, seed), out_dir / "data.csv")


def write_fit_scores(rows: int, seed: int, out_dir) -> None:
    """``data.csv``: 3 continuous, 1 integer (<= 200 distinct values), 1
    binary and 1 12-level categorical feature; 4 classes with scores."""
    base = _labeled_halves(SCORES_MEANS, rows, seed)
    rng = np.random.default_rng([seed, 1])
    n = base.n
    x0, x1, x2 = (base.column(j) for j in range(3))
    level = np.clip(np.round(100.0 + 30.0 * x0 + rng.normal(0.0, 10.0, n)), 0, 199)
    flag = (x1 + rng.normal(0.0, 0.5, n) > 0.0).astype(np.float64)
    region = np.clip(((x2 + 2.0) / 4.0 * SCORES_LEVELS).astype(np.int64), 0, SCORES_LEVELS - 1)
    reassign = rng.random(n) < 0.1
    region[reassign] = rng.integers(0, SCORES_LEVELS, int(reassign.sum()))
    categories = tuple(f"r{i:02d}" for i in range(SCORES_LEVELS))
    schema = FeatureSchema(
        (
            Feature("x0", NUMERIC),
            Feature("x1", NUMERIC),
            Feature("x2", NUMERIC),
            Feature("level", NUMERIC),
            Feature("flag", BINARY),
            Feature("region", CATEGORICAL, categories),
        )
    )
    table = PredictionTable(
        schema,
        base.classes,
        [x0, x1, x2, level, flag, [categories[c] for c in region]],
        base.y_labels(),
        base.pred_labels(),
        base.scores,
    )
    write_csv(table, out_dir / "data.csv")


def write_holdout(rows: int, seed: int, out_dir) -> None:
    """``ref.json``: the reference tree for ``perfex generate --preset blobs
    --n rows --split 50/50 --seed seed``, fitted on the first part.

    This repeats in-process what that command does, so the tree's schema
    fingerprint matches the CSVs the timed operation writes.
    """
    data = generate_blobs(blob_specs(rows), seed)
    parts = split_dataset(data, (0.5, 0.5), seed)
    classifier = CartClassifier(max_depth=3).fit(parts[0])
    build = predict_table(classifier, parts[0])
    tree = build_tree(
        build, MetricSpec.accuracy(), StoppingRule(max_depth=HOLDOUT_REF_DEPTH)
    )
    (out_dir / "ref.json").write_text(serialize_tree(tree), encoding="utf-8")
