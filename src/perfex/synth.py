"""Synthetic datasets and small built-in classifiers for end-to-end runs.

Generation is reproducible byte-for-byte: every generator uses PCG64 streams
spawned from the caller's seed, one stream per class, so adding a class or
changing its count never perturbs the draws of another class.

Labels are int32 codes into the dataset's class set, as in a
:class:`~perfex.dataset.PredictionTable`; they become text only where
:func:`predict_table` hands them to one.

The built-in classifiers are deliberately simple (an analytic density rule,
a single axis threshold, a small Gini-grown decision tree).  They exist so
a full table with predictions and scores can be produced from nothing; any
real model's predictions enter through the same CSV contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import (
    ClassSet,
    Feature,
    FeatureSchema,
    NUMERIC,
    PredictionTable,
    stratified_split_indices,
)
from .splitter import _thresholds


@dataclass(frozen=True)
class GaussianSpec:
    """One class blob: label, mean vector, isotropic sigma, sample count."""

    label: str
    mean: tuple[float, ...]
    sigma: float
    count: int

    def __post_init__(self):
        object.__setattr__(self, "mean", tuple(float(v) for v in self.mean))
        bad = [v for v in (*self.mean, self.sigma) if not math.isfinite(v)]
        if bad:
            raise ValueError(f"blob mean and sigma must be finite, got {bad[0]}")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.count < 1:
            raise ValueError("count must be at least 1")


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Plain features-plus-labels data, before any classifier has run.

    ``y`` holds each row's true label as an int32 code into ``classes``.
    """

    features: np.ndarray  # (n, m) float64
    y: np.ndarray  # (n,) int32
    feature_names: tuple[str, ...]
    classes: ClassSet

    def __post_init__(self):
        x = np.asarray(self.features, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("features must be a 2-D array")
        y = np.asarray(self.y)
        if y.shape != (x.shape[0],) or y.dtype.kind not in "iu":
            raise ValueError("y must hold one integer label code per row")
        if y.size and (y.min() < 0 or y.max() >= self.classes.k):
            raise ValueError("label code outside the class set")
        if x.shape[1] != len(self.feature_names):
            raise ValueError("feature_names length does not match columns")
        for name, arr in (("features", x), ("y", y.astype(np.int32, copy=False))):
            if arr.flags.writeable:
                arr = arr.copy()
                arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def m(self) -> int:
        return self.features.shape[1]

    def schema(self) -> FeatureSchema:
        return FeatureSchema(tuple(Feature(name, NUMERIC) for name in self.feature_names))

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(self.features[idx], self.y[idx], self.feature_names, self.classes)


def generate_blobs(specs, seed, feature_names=None) -> LabeledDataset:
    """Sample isotropic Gaussian blobs, one per spec, in spec order.

    Rows come out grouped by class; each class draws from its own spawned
    stream, so the same seed always reproduces the same dataset.
    """
    specs = tuple(specs)
    if not specs:
        raise ValueError("need at least one blob spec")
    dim = len(specs[0].mean)
    if any(len(s.mean) != dim for s in specs):
        raise ValueError("all blob means must have the same dimension")
    labels = [s.label for s in specs]
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate blob labels")
    if feature_names is None:
        feature_names = tuple(f"x{j}" for j in range(dim)) if dim != 2 else ("x", "y")
    streams = np.random.SeedSequence(seed).spawn(len(specs))
    blocks = []
    for spec, stream in zip(specs, streams):
        rng = np.random.Generator(np.random.PCG64(stream))
        blocks.append(rng.normal(loc=spec.mean, scale=spec.sigma, size=(spec.count, dim)))
    y = np.repeat(np.arange(len(specs), dtype=np.int32), [s.count for s in specs])
    return LabeledDataset(np.vstack(blocks), y, tuple(feature_names), ClassSet(tuple(labels)))


# The bundled 1-D task's class-0 mean and the sigma of both classes.
TWO_GAUSSIAN_MU0 = 10.0
TWO_GAUSSIAN_SIGMA = 2.0


def generate_two_gaussian(delta: float, n_per_class: int, seed) -> LabeledDataset:
    """The bundled 1-D task: class 0 at TWO_GAUSSIAN_MU0, class 1 ``delta`` above."""
    specs = (
        GaussianSpec("0", (TWO_GAUSSIAN_MU0,), TWO_GAUSSIAN_SIGMA, n_per_class),
        GaussianSpec("1", (TWO_GAUSSIAN_MU0 + delta,), TWO_GAUSSIAN_SIGMA, n_per_class),
    )
    return generate_blobs(specs, seed, feature_names=("z",))


def flip_labels(
    dataset: LabeledDataset, feature: int, threshold: float, prob: float, seed
) -> LabeledDataset:
    """Swap the true label (two-class data) with probability ``prob`` on rows
    where ``feature > threshold``.  Uses its own stream from ``seed``."""
    if dataset.classes.k != 2:
        raise ValueError("label flipping is defined for two-class data")
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    eligible = dataset.features[:, feature] > threshold
    flip = eligible & (rng.random(dataset.n) < prob)
    y = np.where(flip, 1 - dataset.y, dataset.y)
    return LabeledDataset(dataset.features, y, dataset.feature_names, dataset.classes)


def split_dataset(dataset: LabeledDataset, fractions, seed) -> list[LabeledDataset]:
    """Stratified partition of a labeled dataset (for example 0.5/0.25/0.25)."""
    parts = stratified_split_indices(dataset.y, dataset.classes.k, fractions, seed)
    return [dataset.subset(idx) for idx in parts]


# -- built-in classifiers ---------------------------------------------------


class GaussianDensityClassifier:
    """Predicts the class whose isotropic Gaussian density is highest.

    Scores are the densities normalized to sum to 1 (computed from
    log-densities for stability).  Ties go to the first class.
    """

    def __init__(self, components):
        comps = tuple(components)
        if len(comps) < 2:
            raise ValueError("need at least two components")
        self.class_labels = tuple(label for label, _, _ in comps)
        self._means = np.array([mean for _, mean, _ in comps], dtype=np.float64)
        if self._means.ndim == 1:
            self._means = self._means[:, None]
        self._sigmas = np.array([sigma for _, _, sigma in comps], dtype=np.float64)
        values = np.concatenate([self._means.ravel(), self._sigmas])
        if not np.isfinite(values).all():
            bad = values[~np.isfinite(values)][0]
            raise ValueError(f"component mean and sigma must be finite, got {bad}")
        if (self._sigmas <= 0).any():
            raise ValueError("sigma must be positive")

    def score_matrix(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        dim = X.shape[1]
        with np.errstate(over="ignore"):  # an infinite distance is a density of zero
            d2 = ((X[:, None, :] - self._means[None, :, :]) ** 2).sum(axis=2)
        log_dens = -d2 / (2.0 * self._sigmas**2) - dim * np.log(
            self._sigmas * math.sqrt(2.0 * math.pi)
        )
        log_dens -= log_dens.max(axis=1, keepdims=True)
        dens = np.exp(log_dens)
        return dens / dens.sum(axis=1, keepdims=True)


class AxisThresholdClassifier:
    """Hard rule on one feature: ``below`` when x < threshold, else ``above``.
    Scores are one-hot."""

    def __init__(self, feature: int, threshold: float, below: str, above: str):
        self.feature = feature
        self.threshold = float(threshold)
        self.class_labels = (below, above)

    def score_matrix(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        is_below = X[:, self.feature] < self.threshold
        scores = np.zeros((X.shape[0], 2), dtype=np.float64)
        scores[is_below, 0] = 1.0
        scores[~is_below, 1] = 1.0
        return scores


class CartClassifier:
    """A small depth-limited decision tree grown on Gini impurity.

    Splits use the meta tree's "x <= threshold goes left" convention and its
    thresholds.  Like the meta tree's split search, each node sorts every
    feature once and scores all of its thresholds in one sweep.  The first
    split of least weighted impurity wins, and only if that impurity is below
    the node's own.  Leaf scores are the training class frequencies in that
    leaf.
    """

    def __init__(self, max_depth: int = 3):
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        self.max_depth = max_depth
        self.class_labels: tuple[str, ...] = ()
        self._root = None

    def fit(self, dataset: LabeledDataset) -> "CartClassifier":
        self.class_labels = dataset.classes.labels
        k = dataset.classes.k
        X = dataset.features
        y = dataset.y

        def gini(counts: np.ndarray) -> np.ndarray:
            """Gini impurity of each row of class counts (no empty rows)."""
            p = counts / counts.sum(axis=1, keepdims=True)
            return 1.0 - (p * p).sum(axis=1)

        def grow(idx: np.ndarray, depth: int):
            node_n = idx.size
            counts = np.bincount(y[idx], minlength=k).astype(np.float64)
            best = gini(counts[None])[0]
            if depth >= self.max_depth or node_n < 2 or best == 0.0:
                return ("leaf", counts / node_n)
            onehot = y[idx][:, None] == np.arange(k)
            split = None  # (feature, threshold)
            for j in range(X.shape[1]):
                col = X[idx, j]
                order = np.argsort(col, kind="stable")
                ordered = col[order]
                thresholds = _thresholds(ordered, None)
                # x <= threshold sends a prefix of the sorted rows left.
                n_left = np.searchsorted(ordered, thresholds, side="right")
                inner = n_left < node_n
                if not inner.any():
                    continue
                thresholds, n_left = thresholds[inner], n_left[inner]
                left = np.cumsum(onehot[order], axis=0)[n_left - 1].astype(np.float64)
                g = gini(np.concatenate([left, counts - left]))
                r = n_left.size
                impurity = (n_left * g[:r] + (node_n - n_left) * g[r:]) / node_n
                i = int(np.argmin(impurity))
                if impurity[i] < best:
                    best, split = impurity[i], (j, float(thresholds[i]))
            if split is None:
                return ("leaf", counts / node_n)
            j, v = split
            mask = X[idx, j] <= v
            left = grow(idx[mask], depth + 1)
            right = grow(idx[~mask], depth + 1)
            return ("split", j, v, left, right)

        self._root = grow(np.arange(dataset.n, dtype=np.int64), 0)
        return self

    def score_matrix(self, X: np.ndarray) -> np.ndarray:
        if self._root is None:
            raise ValueError("classifier is not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        out = np.empty((X.shape[0], len(self.class_labels)), dtype=np.float64)
        stack = [(self._root, np.arange(X.shape[0], dtype=np.int64))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if node[0] == "leaf":
                out[idx] = node[1]
                continue
            _, j, v, left, right = node
            mask = X[idx, j] <= v
            stack.append((left, idx[mask]))
            stack.append((right, idx[~mask]))
        return out


def predict_table(classifier, dataset: LabeledDataset) -> PredictionTable:
    """Run a built-in classifier over a dataset and assemble the full table.

    The classifier's classes must be exactly the dataset's (any order); score
    columns come out in the dataset's class order and the predicted label is
    the argmax score, first class winning ties.
    """
    if set(classifier.class_labels) != set(dataset.classes.labels):
        raise ValueError("classifier and dataset disagree on the class set")
    raw = classifier.score_matrix(dataset.features)
    order = [classifier.class_labels.index(lbl) for lbl in dataset.classes.labels]
    scores = raw[:, order]
    decode = dataset.classes.labels.__getitem__
    pred = list(map(decode, scores.argmax(axis=1).tolist()))
    columns = [dataset.features[:, j] for j in range(dataset.m)]
    return PredictionTable(
        dataset.schema(),
        dataset.classes,
        columns,
        list(map(decode, dataset.y.tolist())),
        pred,
        scores,
    )


# -- bundled presets ---------------------------------------------------------

DEMO_BLOB_CENTERS = ((10.0, 10.0), (20.0, 12.0), (15.0, 15.0))
DEMO_BLOB_SIGMA = 3.0
DEMO_BLOB_TOTAL = 10000


def blob_specs(n_total: int = DEMO_BLOB_TOTAL) -> tuple[GaussianSpec, ...]:
    """Three overlapping 2-D blobs; rows are divided as evenly as possible."""
    k = len(DEMO_BLOB_CENTERS)
    base, extra = divmod(n_total, k)
    return tuple(
        GaussianSpec(str(i), center, DEMO_BLOB_SIGMA, base + (1 if i < extra else 0))
        for i, center in enumerate(DEMO_BLOB_CENTERS)
    )


def two_gaussian_classifier(delta: float) -> GaussianDensityClassifier:
    """The matched analytic classifier for :func:`generate_two_gaussian`."""
    return GaussianDensityClassifier((
        ("0", (TWO_GAUSSIAN_MU0,), TWO_GAUSSIAN_SIGMA),
        ("1", (TWO_GAUSSIAN_MU0 + delta,), TWO_GAUSSIAN_SIGMA),
    ))


EXAMPLE2D_FLIP_THRESHOLD = 12.0
EXAMPLE2D_FLIP_PROB = 0.5


def preset_example2d(seed, n_per_class: int = 150):
    """Two well-separated 2-D blobs with noisy labels in the upper band.

    Red sits at (10, 10), blue at (30, 10), both sigma 2.  Labels above
    y = 12 are swapped with probability 0.5, so a rule that only looks at x
    stays perfect below the band and degrades inside it.  Returns the
    dataset and that x-threshold rule classifier.
    """
    specs = (
        GaussianSpec("red", (10.0, 10.0), 2.0, n_per_class),
        GaussianSpec("blue", (30.0, 10.0), 2.0, n_per_class),
    )
    data = generate_blobs(specs, seed, feature_names=("x", "y"))
    data = flip_labels(
        data,
        feature=1,
        threshold=EXAMPLE2D_FLIP_THRESHOLD,
        prob=EXAMPLE2D_FLIP_PROB,
        seed=np.random.SeedSequence([int(seed), 1]),
    )
    classifier = AxisThresholdClassifier(0, 20.0, "red", "blue")
    return data, classifier
