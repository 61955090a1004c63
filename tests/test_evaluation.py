"""Held-out comparison reports: per-leaf errors, mae, spread, formats."""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from perfex import (
    ClassSet,
    MetricSpec,
    MissingScoresError,
    PredictionTable,
    SchemaMismatchError,
    StoppingRule,
    TreeFormatError,
    assign,
    build_tree,
    deserialize_tree,
    evaluate_tree,
    parse_metric,
    serialize_tree,
)
from perfex.dataset import stratified_split
from perfex.metrics import evaluate_indices

from tests._naive import all_metric_descs, naive_evaluate_tree, random_plain_table
from tests._tables import (
    baseline_table,
    desc_to_spec,
    make_table,
    plain_to_table,
    worked_example_table,
)

ACC = MetricSpec.accuracy()
LOOSE = StoppingRule(max_depth=6, min_beta=0.0, confidence_z=1.96, max_interval_width=1.0)


def fig_tree():
    t = worked_example_table()
    return t, build_tree(t, ACC, LOOSE, alpha=1)


def test_same_table_gives_zero_mae():
    t, tree = fig_tree()
    rep = evaluate_tree(tree, t, t)
    assert rep.mae == 0.0
    assert rep.metric == "accuracy"
    assert rep.spread == 0.4  # leaf values 0.4 and 0.8, exactly
    assert rep.undefined_leaves == ()
    assert [c.leaf_id for c in rep.leaves] == [0, 1]
    assert all(c.size_build == c.size_test for c in rep.leaves)


def test_hand_computed_mae_and_spread():
    t, tree = fig_tree()
    # Held-out rows: 3 land left (2 correct -> 2/3), 6 land right (2 -> 1/3).
    z = [-3.0, -2.0, -1.0, -0.5, 0.0, 1.0, 2.0, 3.0, 4.0]
    ok = [True, True, False, False, False, True, True, False, False]
    test = PredictionTable(
        t.schema, t.classes, [z[:3] + [0.5, 0.7] + z[5:]], ["a"] * 9,
        [("a" if v else "b") for v in ok],
    )
    rep = evaluate_tree(tree, t, test)
    left, right = rep.leaves
    assert left.size_test == 3 and right.size_test == 6
    assert left.e_test.value == pytest.approx(2 / 3, abs=1e-15)
    assert right.e_test.value == pytest.approx(2 / 6, abs=1e-15)
    want_mae = (abs(0.4 - 2 / 3) + abs(0.8 - 2 / 6)) / 2
    assert rep.mae == pytest.approx(want_mae, abs=1e-15)
    assert rep.spread == 0.4


def test_empty_test_side_is_excluded_from_mae():
    t, tree = fig_tree()
    # All held-out rows have z > -1, so the left leaf gets no test rows.
    test = PredictionTable(
        t.schema, t.classes, [[0.0, 1.0, 2.0]], ["a"] * 3, ["a", "a", "b"]
    )
    rep = evaluate_tree(tree, t, test)
    assert rep.undefined_leaves == (0,)
    left, right = rep.leaves
    assert left.size_test == 0 and left.e_test.value is None
    assert left.abs_error is None
    assert rep.mae == pytest.approx(abs(0.8 - 2 / 3), abs=1e-15)
    assert rep.spread == 0.4  # spread is about the build side only


def test_all_leaves_undefined_gives_none_mae():
    t, tree = fig_tree()
    # y is never b, so recall:b is undefined on every leaf and both sides.
    rep = evaluate_tree(replace(tree, metric=MetricSpec.recall("b")), t, t)
    assert rep.mae is None
    assert rep.spread is None
    assert rep.undefined_leaves == (0, 1)


def test_metric_defaults_to_tree_metric():
    t, tree = fig_tree()
    rep = evaluate_tree(tree, t, t)
    assert rep.metric == tree.metric.name
    other = evaluate_tree(replace(tree, metric=MetricSpec.weighted("recall")), t, t)
    assert other.metric == "weighted_recall"


def test_report_json_round_trips():
    t, tree = fig_tree()
    rep = evaluate_tree(tree, t, t)
    text = rep.to_json()
    assert text.endswith("\n")
    doc = json.loads(text)
    assert text == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert doc["mae"] == 0.0
    assert doc["metric"] == "accuracy"
    assert doc["leaves"][0] == {
        "leaf": 0,
        "n_build": 5,
        "n_test": 5,
        "e_build": 0.4,
        "e_test": 0.4,
        "abs_err": 0.0,
    }


def test_report_text_layout():
    t, tree = fig_tree()
    rep = evaluate_tree(tree, t, t)
    text = rep.to_text()
    lines = text.splitlines()
    assert lines[0].split() == ["leaf", "n_build", "n_test", "e_build", "e_test", "abs_err"]
    assert lines[1].split() == ["0", "5", "5", "0.40", "0.40", "0.00"]
    assert lines[-2] == "mae: 0.00"
    assert lines[-1] == "d: 0.40"


def test_report_text_marks_undefined_with_dash():
    t, tree = fig_tree()
    rep = evaluate_tree(replace(tree, metric=MetricSpec.recall("b")), t, t)
    text = rep.to_text()
    assert "mae: -" in text
    assert text.splitlines()[1].split()[-1] == "-"


def test_mae_agrees_with_per_leaf_recomputation():
    rng = np.random.default_rng(61)
    for _ in range(10):
        plain = random_plain_table(rng, max_rows=200, with_scores=False)
        build = plain_to_table(plain)
        # A random row subset stands in as the held-out table; it shares the
        # schema and classes, which assign() requires.
        perm = rng.permutation(build.n)
        test = build.subset(np.sort(perm[: max(5, build.n // 2)]))
        rule = StoppingRule(max_depth=3, min_beta=0.0, confidence_z=1.0, max_interval_width=1.0)
        tree = build_tree(build, ACC, rule, alpha=5)
        rep = evaluate_tree(tree, build, test)
        errs = [c.abs_error for c in rep.leaves if c.abs_error is not None]
        if errs:
            assert rep.mae == pytest.approx(sum(errs) / len(errs), abs=1e-15)
        else:
            assert rep.mae is None
        vals = [c.e_build.value for c in rep.leaves if c.e_build.defined]
        assert rep.spread == max(vals) - min(vals)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["accuracy", "weighted_f1", "ece:10", "mean_min_score:c0,c1"]),
    st.integers(0, 40),
)
def test_report_equals_one_evaluation_per_leaf_and_side(seed, name, other):
    # Grouped evaluation must give the per-leaf loop's report byte for byte,
    # for the tree's metric and for another one, with leaves that get no
    # test rows.
    rng = np.random.default_rng(seed)
    plain = random_plain_table(rng, max_rows=150, with_scores=True)
    build = plain_to_table(plain)
    metric = parse_metric(name)
    assume(evaluate_indices(metric, build, np.arange(build.n)).defined)
    rule = StoppingRule(max_depth=3, min_beta=0.0, confidence_z=1.0, max_interval_width=1.0)
    tree = build_tree(build, metric, rule, alpha=3)
    # The held-out rows skip leaf 0 and a random share of the others.
    keep = (assign(tree, build) != 0) & (rng.random(build.n) < 0.6)
    test = build.subset(np.flatnonzero(keep))
    descs = all_metric_descs(plain["classes"])
    for evaluated in (tree, replace(tree, metric=desc_to_spec(descs[other % len(descs)]))):
        got = evaluate_tree(evaluated, build, test)
        want = naive_evaluate_tree(evaluated, build, test)
        assert got.to_json() == want.to_json()
        assert got.to_text() == want.to_text()
        assert got.leaves[0].size_test == 0


def test_both_tables_are_routed_before_the_metric_is_resolved():
    t, tree = fig_tree()  # no score columns
    ece = replace(tree, metric=MetricSpec.ece(10))
    other = make_table("n", [[1.0, 2.0]], ["a", "b"], ["a", "b"])  # feature named f0
    with pytest.raises(SchemaMismatchError):
        evaluate_tree(ece, t, other)
    with pytest.raises(MissingScoresError):
        evaluate_tree(ece, t, t)


def test_a_tree_metric_naming_a_class_the_tables_lack_is_a_tree_format_error():
    t, tree = fig_tree()
    doc = json.loads(serialize_tree(tree))
    doc["metric"] = "precision:zz"  # hand-edited: the tables have classes a and b
    edited = deserialize_tree(json.dumps(doc))
    with pytest.raises(TreeFormatError, match="^metric references unknown class 'zz'$"):
        evaluate_tree(edited, t, t)


# sha256 of the evaluate_tree report JSON on a stratified 50/50 split (seed 0)
# of the 20,000-row benchmark table, the tree built on the first half with
# default settings.  Recorded with the per-leaf evaluation, before held-out
# evaluation grouped its rows, with the numpy version the golden trees were.
GOLDEN_NUMPY = "2.4.6"
GOLDEN_REPORTS = {
    "accuracy": "964eb5b719fc70c39320230983ef8d811891dfc380f23883eba17067bf8cde14",
    "weighted_f1": "55036bcb59869df9666abf6afee19ffb05faa884b0961b516cc10c082d0df80d",
    "ece:10": "c1e5425f8266c24a5dc49f8f780c7fa8922e3914a1a42ccd5a376d71804df7cc",
    "mean_min_score:0,1": "4531b9cc9f4fc7c93d78c07bec64ff4b494e4ac024b7c0b38a88d0d42f15b74d",
}


@pytest.mark.skipif(
    np.__version__ != GOLDEN_NUMPY,
    reason=f"golden reports were recorded with numpy {GOLDEN_NUMPY}, this is {np.__version__}",
)
def test_golden_reports_on_the_benchmark_table():
    build, test = stratified_split(baseline_table(20_000), (0.5, 0.5), 0)
    for name, digest in GOLDEN_REPORTS.items():
        report = evaluate_tree(build_tree(build, parse_metric(name)), build, test)
        assert hashlib.sha256(report.to_json().encode("utf-8")).hexdigest() == digest, name
