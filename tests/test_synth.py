"""Synthetic data generators and the bundled classifiers."""

import math

import numpy as np
import pytest

from perfex import (
    CartClassifier,
    ClassSet,
    GaussianSpec,
    LabeledDataset,
    MetricSpec,
    blob_specs,
    generate_blobs,
    generate_two_gaussian,
    predict_table,
    preset_example2d,
    split_dataset,
    two_gaussian_classifier,
)
from perfex.metrics import evaluate
from perfex.synth import AxisThresholdClassifier, GaussianDensityClassifier, flip_labels

from tests._naive import naive_cart
from tests._tables import table_to_csv_text


def two_gaussian_table(delta, n_per_class, seed):
    """Two-Gaussian data scored by its own matched density classifier."""
    data = generate_two_gaussian(delta, n_per_class, seed)
    return predict_table(two_gaussian_classifier(delta), data)


def test_two_gaussian_sample_statistics():
    ds = generate_two_gaussian(3.0, 5000, seed=0)
    x = ds.features[:, 0]
    lo, hi = x[:5000], x[5000:]
    # Sample means sit within 4 standard errors of the targets.
    se = 2.0 / math.sqrt(5000)
    assert abs(lo.mean() - 10.0) < 4 * se
    assert abs(hi.mean() - 13.0) < 4 * se
    assert abs(lo.std() - 2.0) < 0.15
    assert ds.y[:3].tolist() == [0, 0, 0] and ds.y[-1] == 1
    assert ds.feature_names == ("z",)


def test_generation_is_deterministic_per_seed():
    a = two_gaussian_table(2.0, 500, seed=9)
    b = two_gaussian_table(2.0, 500, seed=9)
    assert table_to_csv_text(a) == table_to_csv_text(b)
    c = two_gaussian_table(2.0, 500, seed=10)
    assert table_to_csv_text(a) != table_to_csv_text(c)


def test_per_class_streams_are_independent():
    # Growing class 1 must not change the rows drawn for class 0.
    small = generate_blobs(
        (GaussianSpec("a", (0.0,), 1.0, 50), GaussianSpec("b", (5.0,), 1.0, 50)), seed=4
    )
    big = generate_blobs(
        (GaussianSpec("a", (0.0,), 1.0, 50), GaussianSpec("b", (5.0,), 1.0, 80)), seed=4
    )
    assert np.array_equal(small.features[:50], big.features[:50])


def test_blob_specs_row_budget():
    specs = blob_specs(10000)
    assert [s.count for s in specs] == [3334, 3333, 3333]
    assert [s.label for s in specs] == ["0", "1", "2"]
    assert blob_specs(7)[0].count == 3  # 3/2/2
    ds = generate_blobs(blob_specs(300), seed=0)
    assert ds.n == 300 and ds.m == 2
    assert ds.feature_names == ("x", "y")


def test_matched_density_classifier_decides_at_the_midpoint():
    clf = two_gaussian_classifier(3.0)  # means 10 and 13, midpoint 11.5
    scores = clf.score_matrix(np.array([[10.0], [11.49], [11.5], [11.51], [14.0]]))
    pred = scores.argmax(axis=1)
    assert list(pred[:2]) == [0, 0]
    assert list(pred[3:]) == [1, 1]
    assert scores[2, 0] == pytest.approx(0.5, abs=1e-12)  # exactly between
    assert np.allclose(scores.sum(axis=1), 1.0, atol=1e-12)
    assert ((scores >= 0) & (scores <= 1)).all()


def test_error_region_mass_matches_the_overlap():
    # Misclassification happens where the wrong density wins; for equal
    # sigmas that is the tail beyond delta/2, with mass Phi(-delta/(2*sigma)).
    delta, sigma = 3.0, 2.0
    t = two_gaussian_table(delta, 20000, seed=2)
    acc = evaluate(MetricSpec.accuracy(), t.full_view())
    phi = 0.5 * (1 + math.erf((-delta / (2 * sigma)) / math.sqrt(2)))
    assert acc.value == pytest.approx(1 - phi, abs=0.012)


def test_delta_zero_gives_coin_flip_accuracy():
    t = two_gaussian_table(0.0, 5000, seed=3)
    acc = evaluate(MetricSpec.accuracy(), t.full_view())
    assert acc.value == pytest.approx(0.5, abs=0.03)


def test_axis_threshold_is_a_hard_rule():
    clf = AxisThresholdClassifier(0, 20.0, "red", "blue")
    scores = clf.score_matrix(np.array([[19.9, 0.0], [20.0, 0.0], [25.0, 0.0]]))
    assert scores.tolist() == [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]


def test_cart_fits_separable_data_perfectly():
    ds = generate_blobs(
        (GaussianSpec("a", (0.0, 0.0), 0.5, 100), GaussianSpec("b", (10.0, 10.0), 0.5, 100)),
        seed=5,
    )
    clf = CartClassifier(max_depth=2).fit(ds)
    t = predict_table(clf, ds)
    assert evaluate(MetricSpec.accuracy(), t.full_view()).value == 1.0
    # Leaf scores are class frequencies: rows of the score matrix sum to 1.
    assert np.allclose(t.scores.sum(axis=1), 1.0)


def test_cart_beats_majority_on_blobs():
    ds = generate_blobs(blob_specs(3000), seed=6)
    clf = CartClassifier(max_depth=3).fit(ds)
    t = predict_table(clf, ds)
    acc = evaluate(MetricSpec.accuracy(), t.full_view()).value
    assert acc > 0.55  # majority class would give about a third


def bits(node):
    """A fitted tree with every float as its exact hex text."""
    if node[0] == "leaf":
        return ("leaf", [float(p).hex() for p in node[1]])
    _, j, v, left, right = node
    return ("split", j, float(v).hex(), bits(left), bits(right))


def test_cart_matches_the_per_threshold_reference():
    # Integer-valued features tie often, so many thresholds score alike and
    # the first-minimum rule and the leaf check decide the tree.
    rng = np.random.default_rng(11)
    labels = ("a", "b", "c")
    # First a table no split improves: both values hold one "a" and one "b",
    # and every impurity is exactly 0.5.
    tables = [(np.array([[0.0], [0.0], [1.0], [1.0]]), np.array([0, 1, 0, 1]))]
    for _ in range(40):
        n = int(rng.integers(2, 120))
        X = rng.integers(0, 6, size=(n, int(rng.integers(1, 4)))).astype(np.float64)
        tables.append((X, (X[:, 0].astype(np.int64) + rng.integers(0, 2, size=n)) % 3))
    splits = 0
    for X, y in tables:
        m = X.shape[1]
        ds = LabeledDataset(X, y, tuple(f"x{j}" for j in range(m)), ClassSet(labels))
        depth = int(rng.integers(1, 5))
        got = bits(CartClassifier(max_depth=depth).fit(ds)._root)
        assert got == bits(naive_cart(X.T.tolist(), y.tolist(), 3, depth))
        splits += str(got).count("split")
    assert splits > 40  # most trees split, many more than once


def test_cart_requires_fit_before_scoring():
    with pytest.raises(ValueError):
        CartClassifier().score_matrix(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        CartClassifier(max_depth=0)


def test_cart_rejects_a_dataset_with_no_rows():
    # Fitted on no rows, every leaf would hold 0/0 class frequencies.
    empty = generate_blobs(blob_specs(30), seed=0).subset(np.empty(0, np.int64))
    with pytest.raises(ValueError, match="^training data has no rows$"):
        CartClassifier().fit(empty)


def test_flip_labels_only_touches_rows_above_threshold():
    ds = generate_blobs(
        (GaussianSpec("a", (0.0, 0.0), 1.0, 200), GaussianSpec("b", (3.0, 3.0), 1.0, 200)),
        seed=7,
    )
    flipped = flip_labels(ds, feature=1, threshold=0.5, prob=1.0, seed=1)
    above = ds.features[:, 1] > 0.5
    for i in range(ds.n):
        if above[i]:
            assert flipped.y[i] != ds.y[i]
        else:
            assert flipped.y[i] == ds.y[i]
    same = flip_labels(ds, feature=1, threshold=0.5, prob=0.0, seed=1)
    assert np.array_equal(same.y, ds.y)
    with pytest.raises(ValueError):
        flip_labels(generate_blobs(blob_specs(30), seed=0), 0, 0.0, 0.5, 1)


def test_example2d_preset_shape():
    data, clf = preset_example2d(seed=0)
    assert data.n == 300
    assert data.classes.labels == ("red", "blue")
    assert data.feature_names == ("x", "y")
    assert isinstance(clf, AxisThresholdClassifier)
    assert clf.threshold == 20.0
    # Below the noisy band the x rule is perfect; inside it, labels flip.
    t = predict_table(clf, data)
    below = data.features[:, 1] <= 12.0
    correct = np.array(t.y_labels()) == np.array(t.pred_labels())
    assert correct[below].all()
    assert not correct[~below].all()


def test_split_dataset_is_stratified():
    ds = generate_blobs(blob_specs(300), seed=8)  # 100 rows per class
    train, t1, t2 = split_dataset(ds, (0.5, 0.25, 0.25), seed=8)
    assert (train.n, t1.n, t2.n) == (150, 75, 75)
    assert np.bincount(train.y, minlength=3).tolist() == [50, 50, 50]
    # The three parts partition the original rows.
    rows = sorted(map(tuple, np.vstack([train.features, t1.features, t2.features])))
    assert rows == sorted(map(tuple, ds.features))


def test_predict_table_validates_class_sets():
    ds = generate_two_gaussian(1.0, 50, seed=0)
    clf = GaussianDensityClassifier((("x", (0.0,), 1.0), ("y", (1.0,), 1.0)))
    with pytest.raises(ValueError):
        predict_table(clf, ds)


@pytest.mark.parametrize("mean, sigma, bad", [
    (10.0, math.nan, "nan"), (math.inf, 1.0, "inf"), (-math.inf, 1.0, "-inf"),
    (math.nan, 1.0, "nan"),
])
def test_density_classifier_rejects_non_finite_components(mean, sigma, bad):
    with pytest.raises(ValueError, match=f"^component mean and sigma must be finite, got {bad}$"):
        GaussianDensityClassifier((("0", (mean,), sigma), ("1", (12.0,), 2.0)))
    with pytest.raises(ValueError, match="sigma must be positive"):
        GaussianDensityClassifier((("0", (10.0,), 0.0), ("1", (12.0,), 2.0)))


def test_predict_table_reorders_scores_to_dataset_classes():
    ds = generate_two_gaussian(4.0, 50, seed=1)  # classes ("0", "1")
    reversed_clf = GaussianDensityClassifier((("1", (14.0,), 2.0), ("0", (10.0,), 2.0)))
    t = predict_table(reversed_clf, ds)
    straight = predict_table(two_gaussian_classifier(4.0), ds)
    assert np.allclose(t.scores, straight.scores, atol=1e-12)
    assert t.pred_labels() == straight.pred_labels()


def test_labeled_dataset_checks_its_codes():
    X, classes = np.zeros((3, 1)), ClassSet(("a", "b"))
    ds = LabeledDataset(X, np.array([0, 1, 1]), ("x",), classes)
    assert ds.y.dtype == np.int32 and not ds.y.flags.writeable
    with pytest.raises(ValueError, match="one integer label code per row"):
        LabeledDataset(X, np.array([0, 1]), ("x",), classes)
    with pytest.raises(ValueError, match="one integer label code per row"):
        LabeledDataset(X, np.array([0.0, 1.0, 1.0]), ("x",), classes)
    for y in ([0, 2, 1], [0, -1, 1]):
        with pytest.raises(ValueError, match="label code outside the class set"):
            LabeledDataset(X, np.array(y), ("x",), classes)


def test_gaussian_spec_validation():
    with pytest.raises(ValueError):
        GaussianSpec("a", (0.0,), -1.0, 10)
    for mean, sigma, bad in [((math.nan,), 1.0, "nan"), ((0.0, math.inf), 1.0, "inf"),
                             ((0.0,), math.nan, "nan"), ((0.0,), -math.inf, "-inf")]:
        with pytest.raises(ValueError, match=f"^blob mean and sigma must be finite, got {bad}$"):
            GaussianSpec("a", mean, sigma, 10)
    with pytest.raises(ValueError):
        GaussianSpec("a", (0.0,), 1.0, 0)
    with pytest.raises(ValueError):
        generate_blobs((), seed=0)
    with pytest.raises(ValueError):
        generate_blobs(
            (GaussianSpec("a", (0.0,), 1.0, 5), GaussianSpec("a", (1.0,), 1.0, 5)), seed=0
        )
