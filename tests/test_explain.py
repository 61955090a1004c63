"""Path summaries and rendered explanation blocks."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfex import (
    ClassSet,
    Feature,
    FeatureSchema,
    MetricSpec,
    PerfexError,
    PredictionTable,
    StoppingRule,
    TreeFormatError,
    build_tree,
    default_phrase,
    leaf_row_mask,
    render,
    summarize_path,
)
from perfex.explain import NO_CONDITIONS_TEMPLATE
from perfex.metrics import MetricValue
from perfex.splitter import SplitCandidate
from perfex.tree import LeafStats

from tests._naive import random_plain_table
from tests._tables import plain_to_table

NUM = FeatureSchema((Feature("length", "numeric"),))
MIXED = FeatureSchema(
    (
        Feature("length", "numeric"),
        Feature("flag", "binary"),
        Feature("color", "categorical", ("blue", "green", "red")),
    )
)


def step(feature, kind, value, goes_left):
    """One path step: a split and the side the path takes."""
    return SplitCandidate(feature, kind, value), goes_left


def stats(path, size=10, value=0.5):
    return LeafStats(0, size, MetricValue(value, size), tuple(path))


def test_repeated_left_branches_keep_the_tightest_upper_bound():
    s = stats([step(0, "le", 12.0, True), step(0, "le", 9.5, True)])
    out = summarize_path(s, NUM)
    assert len(out) == 1
    assert out[0].upper == 9.5 and out[0].lower is None
    assert out[0].describe() == "length <= 9.50"


def test_interval_renders_lower_bound_first():
    s = stats([step(0, "le", 12.39, True), step(0, "le", 10.77, False)])
    out = summarize_path(s, NUM)
    assert out[0].describe() == "length > 10.77, length <= 12.39"


def test_integer_thresholds_drop_decimals():
    s = stats([step(0, "le", 5.0, True)])
    assert summarize_path(s, NUM)[0].describe() == "length <= 5"
    s = stats([step(0, "le", -3.0, False)])
    assert summarize_path(s, NUM)[0].describe() == "length > -3"


def test_the_reference_block_renders_byte_identically():
    path = (
        step(0, "le", 12.39, True),
        step(0, "le", 10.77, False),
    )
    s = LeafStats(0, 134, MetricValue(0.6791044776119403, 134), path)
    summaries = summarize_path(s, NUM)
    got = render(s, summaries)
    want = (
        "There are 134 datapoints for which the\n"
        "following conditions hold:\n"
        "  length > 10.77, length <= 12.39\n"
        "and for these datapoints accuracy is 0.68"
    )
    assert got == want


def test_root_leaf_renders_placeholder_line():
    s = LeafStats(0, 20, MetricValue(0.75, 20), ())
    got = render(s, summarize_path(s, NUM))
    assert got.splitlines()[2] == "  (no conditions — all datapoints)"
    assert NO_CONDITIONS_TEMPLATE.format(unit_noun="rows") == "(no conditions — all rows)"


def test_custom_unit_noun_and_phrase():
    s = LeafStats(0, 7, MetricValue(0.07, 7), (step(0, "le", 2.0, True),))
    got = render(s, summarize_path(s, NUM), unit_noun="trips", phrase="the recall of class b")
    assert got.startswith("There are 7 trips for which the")
    assert got.endswith("and for these trips the recall of class b is 0.07")


def test_binary_feature_resolves_to_0_or_1():
    s = stats([step(1, "le", 0.0, True)])
    assert summarize_path(s, MIXED)[0].describe() == "flag = 0"
    s = stats([step(1, "le", 0.0, False)])
    assert summarize_path(s, MIXED)[0].describe() == "flag = 1"
    # A vacuous bound (everything <= 1) says nothing and is dropped.
    s = stats([step(1, "le", 1.0, True)])
    assert summarize_path(s, MIXED) == []


def test_binary_contradiction_raises():
    s = stats([step(1, "le", 0.0, True), step(1, "le", 0.0, False)])
    with pytest.raises(PerfexError):
        summarize_path(s, MIXED)


def test_categorical_pin_and_exclusions():
    s = stats([step(2, "eq", "red", True)])
    assert summarize_path(s, MIXED)[0].describe() == "color = red"
    s = stats([step(2, "eq", "red", False), step(2, "eq", "blue", False)])
    assert summarize_path(s, MIXED)[0].describe() == "color != red, color != blue"
    # Pinned later: earlier exclusions of other categories become redundant.
    s = stats([step(2, "eq", "red", False), step(2, "eq", "blue", True)])
    out = summarize_path(s, MIXED)
    assert out[0].describe() == "color = blue"
    assert out[0].excluded == ()


def test_categorical_contradictions_raise():
    s = stats([step(2, "eq", "red", True), step(2, "eq", "red", False)])
    with pytest.raises(PerfexError):
        summarize_path(s, MIXED)
    s = stats([step(2, "eq", "red", False), step(2, "eq", "red", True)])
    with pytest.raises(PerfexError):
        summarize_path(s, MIXED)
    s = stats([step(2, "eq", "red", True), step(2, "eq", "blue", True)])
    with pytest.raises(PerfexError):
        summarize_path(s, MIXED)


def test_a_pin_of_a_category_excluded_before_another_pin_contradicts():
    # The exclusion of red outlives the pin to blue, so pinning red is named as
    # a required-and-excluded contradiction, not as a second pin.
    s = stats([step(2, "eq", "red", False), step(2, "eq", "blue", True),
               step(2, "eq", "red", True)])
    with pytest.raises(PerfexError, match=r"^contradictory path: 'red' both required and excluded$"):
        summarize_path(s, MIXED)


def test_empty_numeric_interval_raises():
    s = stats([step(0, "le", 5.0, True), step(0, "le", 7.0, False)])
    with pytest.raises(PerfexError):
        summarize_path(s, NUM)
    # Equal bounds are empty too: > 5 and <= 5 has no rows.
    s = stats([step(0, "le", 5.0, True), step(0, "le", 5.0, False)])
    with pytest.raises(PerfexError):
        summarize_path(s, NUM)


def test_features_appear_in_first_use_order():
    s = stats(
        [
            step(2, "eq", "red", True),
            step(0, "le", 4.0, True),
            step(2, "eq", "red", True),
        ]
    )
    out = summarize_path(s, MIXED)
    assert [c.name for c in out] == ["color", "length"]
    # One line per feature, at most.
    assert len(out) == len({c.feature for c in out})


def test_full_precision_masks_round_trip_the_leaf_rows():
    # The rendered text rounds to two decimals, but filtering uses the exact
    # thresholds, so every leaf's row set is reproduced exactly.
    rng = np.random.default_rng(71)
    for _ in range(8):
        plain = random_plain_table(rng, max_rows=250, with_scores=False)
        t = plain_to_table(plain)
        rule = StoppingRule(max_depth=4, min_beta=0.0, confidence_z=1.0, max_interval_width=1.0)
        tree = build_tree(t, MetricSpec.accuracy(), rule, alpha=5)
        for stats_, leaf in zip(tree.leaf_stats(), tree.leaves()):
            summaries = summarize_path(stats_, t.schema)
            mask = leaf_row_mask(summaries, t)
            assert np.array_equal(np.flatnonzero(mask), leaf.indices)


# Every combination of a few lengths, both flag values and all colors.
GRID = list(itertools.product([-2.0, -1.0, 0.0, 0.25, 0.5, 1.0, 2.5, 3.0], [0.0, 1.0],
                              ["blue", "green", "red"]))
GRID_TABLE = PredictionTable(MIXED, ClassSet(("a", "b")), [list(c) for c in zip(*GRID)],
                             ["a"] * len(GRID), ["a"] * len(GRID))
GRID_STEPS = st.one_of(
    st.builds(step, st.just(0), st.just("le"),
              st.sampled_from([-1.0, 0.0, 0.3, 0.5, 1.0, 2.5]), st.booleans()),
    st.builds(step, st.just(1), st.just("le"),
              st.sampled_from([-0.5, 0.0, 0.5, 1.0, 1.5]), st.booleans()),
    st.builds(step, st.just(2), st.just("eq"),
              st.sampled_from(["blue", "green", "red"]), st.booleans()),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(GRID_STEPS, max_size=6))
def test_a_path_summarizes_to_exactly_the_rows_its_steps_select(path):
    selected = np.ones(GRID_TABLE.n, dtype=bool)
    for split, goes_left in path:
        left = split.left_mask(GRID_TABLE.column(split.feature), MIXED.features[split.feature])
        selected &= left if goes_left else ~left
    try:
        out = summarize_path(stats(path), MIXED)
    except PerfexError:
        # Only a path that no value of its features can satisfy is refused.
        assert not selected.any()
        return
    assert np.array_equal(leaf_row_mask(out, GRID_TABLE), selected)
    # One summary per feature, in first-use order; only a binary bound that
    # excludes no value is left out.
    first_use = list(dict.fromkeys(split.feature for split, _ in path))
    features = [c.feature for c in out]
    assert features == [f for f in first_use if f in features]
    assert set(first_use) - set(features) <= {1}
    assert all(c.describe() in ("flag = 0", "flag = 1") for c in out if c.kind == "binary")


def test_two_decimal_rounding_in_text_only():
    s = stats([step(0, "le", 12.3456789, True), step(0, "le", 10.7654321, False)])
    out = summarize_path(s, NUM)
    assert out[0].describe() == "length > 10.77, length <= 12.35"
    assert out[0].upper == 12.3456789  # the stored bound keeps full precision


def test_default_phrase_per_metric():
    assert default_phrase(MetricSpec.accuracy()) == "accuracy"
    assert default_phrase(MetricSpec.recall("b")) == "recall for class b"
    assert default_phrase(MetricSpec.weighted("f1")) == "weighted f1"
    assert default_phrase(MetricSpec.ece(10)) == "the expected calibration error"
    assert "a, b" in default_phrase(MetricSpec.mean_min_score(("a", "b")))


# Features x (numeric) and c (categorical, a/b), as a hand-written tree may
# misuse them: a step that does not fit is named with its leaf.
XC = FeatureSchema((Feature("x", "numeric"), Feature("c", "categorical", ("a", "b"))))


def misfit(last):
    return LeafStats(3, 10, MetricValue(0.5, 10), (step(0, "le", 1.0, True), last))


def test_category_step_on_a_numeric_feature_is_named():
    with pytest.raises(
        TreeFormatError, match=r"^split kind 'eq' does not fit numeric feature 'x' in leaf 3$"
    ):
        summarize_path(misfit(step(0, "eq", "a", True)), XC)


def test_threshold_step_on_a_categorical_feature_is_named():
    with pytest.raises(
        TreeFormatError, match=r"^split kind 'le' does not fit categorical feature 'c' in leaf 3$"
    ):
        summarize_path(misfit(step(1, "le", 0.5, False)), XC)


def test_step_on_an_unknown_category_is_named():
    with pytest.raises(TreeFormatError, match=r"^value 'zz' is not a category of 'c' in leaf 3$"):
        summarize_path(misfit(step(1, "eq", "zz", True)), XC)


def test_step_on_a_feature_out_of_range_is_named():
    with pytest.raises(TreeFormatError, match=r"^feature index 5 out of range in leaf 3$"):
        summarize_path(misfit(step(5, "le", 0.5, True)), XC)


def test_undefined_leaf_value_renders_na():
    s = LeafStats(0, 3, MetricValue(None, 0), ())
    got = render(s, [])
    assert got.endswith("is n/a")
