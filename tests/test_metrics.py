"""Metric values against hand counts and the naive loop oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfex import (
    ClassSet,
    Feature,
    FeatureSchema,
    MetricSpec,
    MetricValue,
    MissingScoresError,
    PredictionTable,
    parse_metric,
)
from perfex.metrics import MAX_ECE_BINS, MetricStats, evaluate, evaluate_indices

from tests._naive import NeedsScores, all_metric_descs, naive_metric, plain_rows, random_plain_table
from tests._tables import desc_to_spec, worked_example_table, make_table, plain_to_table


def ev(spec, table):
    return evaluate(spec, table.full_view())


def test_accuracy_hand_counts():
    t = worked_example_table()
    v = ev(MetricSpec.accuracy(), t)
    assert v.value == 0.6 and v.support == 10
    perfect = make_table("n", [[1.0, 2.0]], ["a", "b"], ["a", "b"])
    assert ev(MetricSpec.accuracy(), perfect).value == 1.0


def test_precision_recall_hand_counts():
    # Predicted b four times, three of them truly b; b appears five times in y.
    y = ["b", "b", "b", "b", "b", "a"]
    p = ["b", "b", "b", "a", "a", "b"]
    t = make_table("n", [list(map(float, range(6)))], y, p)
    prec = ev(MetricSpec.precision("b"), t)
    assert prec.value == 0.75 and prec.support == 4
    rec = ev(MetricSpec.recall("b"), t)
    assert rec.value == 3 / 5 and rec.support == 5
    f1 = ev(MetricSpec.f1("b"), t)
    assert f1.value == 2 * 0.75 * 0.6 / (0.75 + 0.6)
    assert f1.support == 4  # the smaller of the two supports


def test_undefined_propagates_not_zero():
    # Class b never predicted: precision undefined, recall 0, f1 undefined.
    t = make_table("n", [[1.0, 2.0]], ["b", "a"], ["a", "a"])
    assert ev(MetricSpec.precision("b"), t) == MetricValue(None, 0)
    assert ev(MetricSpec.recall("b"), t).value == 0.0
    f1 = ev(MetricSpec.f1("b"), t)
    assert f1.value is None and f1.support == 0
    assert not f1.defined
    # Both defined but zero: f1 undefined with the min support.
    t2 = make_table("n", [[1.0, 2.0]], ["b", "a"], ["a", "b"])
    f2 = ev(MetricSpec.f1("b"), t2)
    assert f2.value is None and f2.support == 1
    # Weighted variants inherit any undefined constituent.
    w = ev(MetricSpec.weighted("precision"), t)
    assert w.value is None and w.support == 2


def test_weighted_recall_equals_accuracy():
    rng = np.random.default_rng(5)
    plain = random_plain_table(rng, max_rows=60, with_scores=False)
    t = plain_to_table(plain)
    wr = ev(MetricSpec.weighted("recall"), t)
    acc = ev(MetricSpec.accuracy(), t)
    assert wr.value == pytest.approx(acc.value, abs=1e-12)
    assert wr.support == acc.support == t.n


def test_weighted_skips_absent_classes():
    # Class c has no true rows; its undefined precision must not matter.
    t = make_table(
        "n",
        [[1.0, 2.0, 3.0]],
        ["a", "a", "b"],
        ["a", "b", "b"],
        classes=("a", "b", "c"),
    )
    w = ev(MetricSpec.weighted("precision"), t)
    # precision(a) = 1, precision(b) = 1/2, weights 2/3 and 1/3.
    assert w.value == pytest.approx((2 * 1.0 + 1 * 0.5) / 3, abs=1e-15)


def test_ece_perfectly_calibrated_is_zero():
    scores = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    t = make_table(
        "n", [[1.0, 2.0, 3.0]], ["a", "a", "b"], ["a", "a", "b"], scores=scores
    )
    assert ev(MetricSpec.ece(10), t).value == 0.0


def test_ece_two_bins_hand_computed():
    # Confidence is the max score: 0.6 and 0.7 land in (0.5, 1.0], 0.34 in
    # the low bin (only possible with three or more classes).
    scores = [[0.6, 0.2, 0.2], [0.7, 0.2, 0.1], [0.34, 0.33, 0.33]]
    y = ["a", "b", "a"]
    p = ["a", "a", "b"]
    t = make_table("n", [[1.0, 2.0, 3.0]], y, p, scores=scores, classes=("a", "b", "c"))
    got = ev(MetricSpec.ece(2), t)
    # High bin: acc 1/2, avg conf 0.65.  Low bin: acc 0, avg conf 0.34.
    want = (2 / 3) * abs(0.5 - 0.65) + (1 / 3) * 0.34
    assert got.value == pytest.approx(want, abs=1e-15)
    assert got.support == 3


def test_ece_bin_edges_left_closed_only_at_zero():
    # Exact-edge confidences fall in the lower bin; 0.0 goes to the first.
    scores = [[0.5, 0.5], [1.0, 0.0], [0.0, 1.0]]
    y = ["a", "a", "b"]
    p = ["a", "b", "b"]
    t = make_table("n", [[1.0, 2.0, 3.0]], y, p, scores=scores)
    got = ev(MetricSpec.ece(2), t).value
    want, _ = naive_metric(("ece", 2), ["a", "b"], list(zip(y, p, scores)))
    assert got == pytest.approx(want, abs=1e-15)
    # Confidence 0.5 sits in the low bin with accuracy 1; both 1.0 rows sit
    # in the high bin with accuracy 1/2 and average confidence 1.
    assert got == pytest.approx((1 / 3) * 0.5 + (2 / 3) * 0.5, abs=1e-15)


def test_ece_first_bin_contains_zero_confidence():
    # Raw (non-probability) scores may be all zero; those rows must land in
    # the first bin rather than fall off the edge.
    t = PredictionTable(
        FeatureSchema((Feature("f0", "numeric"),)),
        ClassSet(("a", "b")),
        [[1.0, 2.0]],
        ["a", "b"],
        ["a", "a"],
        scores=[[0.0, 0.0], [0.2, 0.0]],
        scores_are_probabilities=False,
    )
    got = ev(MetricSpec.ece(2), t)
    # One bin holds both rows: acc 1/2, avg conf 0.1.
    assert got.value == pytest.approx(abs(0.5 - 0.1), abs=1e-15)


def test_mean_min_score_hand_computed():
    scores = [[0.5, 0.3, 0.2], [0.1, 0.8, 0.1]]
    t = make_table(
        "n", [[1.0, 2.0]], ["a", "b"], ["a", "b"],
        scores=scores, classes=("a", "b", "c"),
    )
    got = ev(MetricSpec.mean_min_score(("a", "b")), t)
    assert got.value == pytest.approx((0.3 + 0.1) / 2, abs=1e-15)
    assert got.support == 2


def test_score_metrics_require_scores():
    t = worked_example_table()
    with pytest.raises(MissingScoresError):
        ev(MetricSpec.ece(10), t)
    with pytest.raises(MissingScoresError):
        ev(MetricSpec.mean_min_score(("a", "b")), t)


def test_empty_selection_is_undefined():
    t = worked_example_table()
    empty = np.empty(0, dtype=np.int64)
    for spec in (MetricSpec.accuracy(), MetricSpec.weighted("f1"), MetricSpec.recall("a")):
        assert evaluate_indices(spec, t, empty) == MetricValue(None, 0)


def test_unknown_class_in_spec_rejected():
    t = worked_example_table()
    with pytest.raises(ValueError, match="unknown class"):
        ev(MetricSpec.precision("zz"), t)
    with pytest.raises(ValueError, match="unknown class"):
        ev(MetricSpec.mean_min_score(("a", "zz")), t)


def test_row_order_invariance_is_exact():
    rng = np.random.default_rng(11)
    plain = random_plain_table(rng, max_rows=80, with_scores=True)
    t = plain_to_table(plain)
    perm = rng.permutation(t.n)
    shuffled = {
        "features": plain["features"],
        "columns": [[col[i] for i in perm] for col in plain["columns"]],
        "classes": plain["classes"],
        "y": [plain["y"][i] for i in perm],
        "pred": [plain["pred"][i] for i in perm],
        "scores": [plain["scores"][i] for i in perm],
    }
    t2 = plain_to_table(shuffled)
    for desc in all_metric_descs(plain["classes"]):
        spec = desc_to_spec(desc)
        a = ev(spec, t)
        b = ev(spec, t2)
        assert a == b  # bit-exact, not approximately equal


def test_matches_naive_loops_on_random_tables():
    rng = np.random.default_rng(23)
    for _ in range(120):
        plain = random_plain_table(rng, max_rows=50, max_features=1)
        t = plain_to_table(plain)
        rows = plain_rows(plain)
        for desc in all_metric_descs(plain["classes"]):
            spec = desc_to_spec(desc)
            try:
                want = naive_metric(desc, plain["classes"], rows)
            except NeedsScores:
                with pytest.raises(MissingScoresError):
                    ev(spec, t)
                continue
            got = ev(spec, t)
            if want[0] is None:
                assert got.value is None, (desc, got)
            else:
                assert got.value == pytest.approx(want[0], abs=1e-12)
            assert got.support == want[1]


def test_parse_metric_round_trips():
    names = [
        "accuracy",
        "precision:a",
        "recall:b",
        "f1:long class name",
        "weighted_precision",
        "weighted_recall",
        "weighted_f1",
        "ece:10",
        "ece:3",
        "mean_min_score:a,b",
        "mean_min_score:a,b,c",
    ]
    for name in names:
        assert parse_metric(name).name == name
    assert parse_metric("ece").bins == 10  # default bin count


def test_parse_metric_rejects_malformed():
    bad = [
        "nope",
        "accuracy:x",
        "precision",
        "precision:",
        "ece:ten",
        "mean_min_score:a",
        "weighted_f1:a",
        "",
    ]
    for text in bad:
        with pytest.raises(ValueError):
            parse_metric(text)


def test_spec_validation():
    with pytest.raises(ValueError):
        MetricSpec("precision")
    with pytest.raises(ValueError):
        MetricSpec.ece(0)
    with pytest.raises(ValueError):
        MetricSpec.mean_min_score(("a",))
    with pytest.raises(ValueError):
        MetricSpec.mean_min_score(("a", "a"))
    with pytest.raises(ValueError):
        MetricSpec.weighted("accuracy")
    with pytest.raises(ValueError, match=f"ece takes at most {MAX_ECE_BINS} bins"):
        MetricSpec.ece(MAX_ECE_BINS + 1)
    assert MetricSpec.ece(MAX_ECE_BINS).bins == MAX_ECE_BINS
    assert MetricSpec.ece(5).requires_scores
    assert not MetricSpec.accuracy().requires_scores


def test_parse_metric_bounds_the_ece_bin_count():
    # Rejected by MetricSpec, before MetricStats would make a bin edge.
    assert MAX_ECE_BINS == 1000
    assert parse_metric("ece:1000").bins == 1000
    for text in ("ece:1001", "ece:1000000000"):
        with pytest.raises(ValueError, match=r"ece takes at most 1000 bins, got \d+$"):
            parse_metric(text)


def exact_key(value: MetricValue):
    """A metric value as its bits, None included."""
    return (None if value.value is None else value.value.hex(), value.support)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 8),
    st.booleans(),
)
def test_grouped_exact_values_equal_one_evaluation_per_group(seed, n_groups, round_scores):
    # Groups n_used..n_groups-1 get no rows, and with few rows so may others.
    rng = np.random.default_rng(seed)
    plain = random_plain_table(rng, max_rows=60, max_features=1, with_scores=True)
    if round_scores:  # eighths: many equal confidences, some on a bin edge
        k = len(plain["classes"])
        plain["scores"] = (rng.multinomial(8, [1 / k] * k, len(plain["y"])) / 8).tolist()
    t = plain_to_table(plain)
    n_used = int(rng.integers(1, n_groups + 1))
    group = rng.integers(0, n_used, t.n)
    for desc in all_metric_descs(plain["classes"]):
        spec = desc_to_spec(desc)
        stat = MetricStats(spec, t)
        got = stat.exact(stat.stats(np.arange(t.n)), group, n_groups)
        want = [evaluate_indices(spec, t, np.flatnonzero(group == g)) for g in range(n_groups)]
        assert [exact_key(v) for v in got] == [exact_key(v) for v in want], desc
