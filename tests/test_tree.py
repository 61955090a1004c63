"""Tree growth, stopping, row routing, and the JSON wire format."""

import hashlib
import json
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from perfex import (
    EmptyTableError,
    MetricSpec,
    PerfexError,
    SchemaMismatchError,
    SearchConfig,
    SplitCandidate,
    StoppingRule,
    SubsetView,
    TreeFormatError,
    UndefinedMetricError,
    assign,
    best_split,
    build_tree,
    deserialize_tree,
    evaluate_tree,
    min_samples,
    parse_metric,
    serialize_tree,
    summarize_path,
    write_csv,
)
from perfex.dataset import ClassSet, Feature, FeatureSchema, PredictionTable
from perfex.metrics import KINDS, MetricStats, evaluate_indices
from perfex import tree as tree_module
from perfex.tree import Internal, Leaf

from tests._naive import all_metric_descs, naive_grow, random_plain_table
from tests._subprocess import child_env
from tests._tables import (
    baseline_table,
    desc_to_spec,
    hostile_table,
    make_table,
    plain_to_table,
    worked_example_table,
)

ACC = MetricSpec.accuracy()
LOOSE = StoppingRule(max_depth=6, min_beta=0.0, confidence_z=1.96, max_interval_width=1.0)


def test_min_samples_reference_values():
    got = min_samples(1.96, 0.1)
    assert abs(got.exact - 384.16) < 1e-9
    assert got.required == 385
    got = min_samples(2.576, 0.05)
    assert got.exact == pytest.approx(2654.3104, abs=1e-9)
    assert got.required == 2655
    # Exact integer bound: required equals the bound itself, no off-by-one.
    assert min_samples(2.0, 0.1).required == 400
    assert min_samples(1.96, 1.0) == (pytest.approx(3.8416), 4)
    assert min_samples(1.0, 1.0).required == 1


def test_min_samples_validation():
    with pytest.raises(ValueError):
        min_samples(0.0, 0.1)
    with pytest.raises(ValueError):
        min_samples(1.96, 0.0)
    with pytest.raises(ValueError):
        min_samples(1.96, 1.5)


def test_stopping_rule_defaults_and_bounds():
    rule = StoppingRule()
    assert (rule.max_depth, rule.min_beta) == (6, 0.05)
    assert (rule.confidence_z, rule.max_interval_width) == (1.96, 0.1)
    assert rule.min_support == 385
    assert LOOSE.min_support == 4
    with pytest.raises(ValueError):
        StoppingRule(max_depth=0)
    with pytest.raises(ValueError):
        StoppingRule(min_beta=-0.1)
    with pytest.raises(ValueError):
        StoppingRule(max_interval_width=0.0)


@pytest.mark.parametrize("settings, message", [
    ({"min_beta": float("nan")}, "min_beta must be non-negative and finite, got nan"),
    ({"min_beta": float("inf")}, "min_beta must be non-negative and finite, got inf"),
    ({"confidence_z": float("nan")}, "confidence_z must be positive and finite, got nan"),
    ({"confidence_z": float("inf")}, "confidence_z must be positive and finite, got inf"),
    ({"max_interval_width": float("nan")}, r"interval_width must be in \(0, 1\], got nan"),
    # Finite settings whose row count overflows a float.
    ({"confidence_z": 1e200}, r"confidence_z 1e\+200 and interval_width 0.1 give"),
    ({"max_interval_width": 1e-200}, "confidence_z 1.96 and interval_width 1e-200 give"),
], ids=["nan-beta", "inf-beta", "nan-z", "inf-z", "nan-width", "huge-z", "tiny-width"])
def test_stopping_rule_names_the_bad_setting(settings, message):
    # nan fails every comparison, so a sign check alone would let it through.
    with pytest.raises(ValueError, match=message):
        StoppingRule(**settings)


def test_worked_example_tree_is_exact():
    t = worked_example_table()
    tree = build_tree(t, ACC, LOOSE, alpha=1)
    assert tree.depth() == 1
    assert isinstance(tree.root, Internal)
    assert (tree.root.candidate.feature, tree.root.candidate.value) == (0, -1.0)
    leaves = tree.leaf_stats()
    assert [leaf.leaf_id for leaf in leaves] == [0, 1]
    assert [leaf.size for leaf in leaves] == [5, 5]
    assert leaves[0].metric.value == 0.4
    assert leaves[1].metric.value == 0.8
    assert tree.n_build == 10


def test_all_correct_table_gives_single_leaf():
    t = make_table("n", [[1.0, 2.0, 3.0]], ["a"] * 3, ["a"] * 3, classes=("a", "b"))
    tree = build_tree(t, ACC, LOOSE, alpha=1)
    assert tree.depth() == 0
    assert isinstance(tree.root, Leaf)
    assert tree.root.metric.value == 1.0


def test_min_beta_blocks_small_gaps():
    # min_support 4 keeps single-row extremes out, so the best gap is 0.4.
    t = worked_example_table()
    strict = StoppingRule(max_depth=6, min_beta=0.5, confidence_z=1.96, max_interval_width=1.0)
    tree = build_tree(t, ACC, strict, alpha=1)
    assert tree.n_leaves == 1
    inclusive = StoppingRule(max_depth=6, min_beta=0.4, confidence_z=1.96, max_interval_width=1.0)
    assert build_tree(t, ACC, inclusive, alpha=1).n_leaves > 1  # boundary splits


def test_max_depth_is_respected():
    t = worked_example_table()
    one = StoppingRule(max_depth=1, min_beta=0.0, confidence_z=1.0, max_interval_width=1.0)
    tree = build_tree(t, ACC, one, alpha=1)
    assert tree.depth() <= 1


def test_planted_threshold_recovered_exactly():
    # Correctness flips exactly at x = 4.25; the unique best cut is the
    # largest observed value at or below the plant, and it must be found
    # exactly (no rounding, no off-by-one in the threshold enumeration).
    # The column has more than 256 distinct values, so the automatic
    # quantile capping must be lifted for the enumeration to be exhaustive.
    rng = np.random.default_rng(3)
    x = np.round(rng.uniform(0.0, 10.0, size=400), 3)
    y = ["a"] * 400
    p = ["a" if v <= 4.25 else "b" for v in x]
    t = make_table("n", [list(x)], y, p)
    rule = StoppingRule(max_depth=1, min_beta=0.05, confidence_z=1.0, max_interval_width=1.0)
    tree = build_tree(t, ACC, rule, alpha=20, max_thresholds=400)
    cut = tree.root.candidate.value
    assert x[x <= 4.25].max() == cut
    assert tree.root.left.metric.value == 1.0
    assert tree.root.right.metric.value == 0.0
    # Under the automatic cap the beta is near-perfect but the exact
    # boundary value may be thinned out of the candidate set.
    capped = build_tree(t, ACC, rule, alpha=20)
    assert capped.root.candidate.value <= 4.25
    assert abs(capped.root.left.metric.value - capped.root.right.metric.value) > 0.95


def test_leaf_ids_follow_preorder_and_partition_rows():
    rng = np.random.default_rng(17)
    plain = random_plain_table(rng, max_rows=300, max_features=3, with_scores=False)
    t = plain_to_table(plain)
    rule = StoppingRule(max_depth=4, min_beta=0.01, confidence_z=1.0, max_interval_width=1.0)
    tree = build_tree(t, ACC, rule, alpha=5)
    leaves = tree.leaf_stats()
    assert [leaf.leaf_id for leaf in leaves] == list(range(len(leaves)))
    routed = assign(tree, t)
    total = 0
    for leaf in leaves:
        got = np.flatnonzero(routed == leaf.leaf_id)
        assert leaf.size == got.size
        total += leaf.size
    assert total == t.n


def bits(value):
    """A metric value as its bits, None included."""
    return (None if value.value is None else value.value.hex(), value.support)


def grown_trees():
    """A tree of depth 3 for every metric of ``all_metric_descs``, every kind
    among them, on one random table with scores (151 rows, 3 classes); and
    the table."""
    plain = random_plain_table(np.random.default_rng(19), max_rows=250, with_scores=True)
    t = plain_to_table(plain)
    rule = StoppingRule(max_depth=3, min_beta=0.0, confidence_z=1.0, max_interval_width=1.0)
    specs = [desc_to_spec(desc) for desc in all_metric_descs(plain["classes"])]
    assert {spec.kind for spec in specs} == set(KINDS)
    return [build_tree(t, spec, rule, alpha=10) for spec in specs], t


def test_leaf_metric_values_match_recomputation():
    trees, t = grown_trees()
    for tree in trees:
        assert tree.n_leaves > 1
        routed = assign(tree, t)
        for leaf in tree.leaf_stats():
            again = evaluate_indices(tree.metric, t, np.flatnonzero(routed == leaf.leaf_id))
            # Stored values, not re-derived ones, bit for bit.
            assert bits(leaf.metric) == bits(again), tree.metric.name


def test_a_build_resolves_its_metric_once(monkeypatch):
    # One MetricStats, and one stats() call on the whole table, per build:
    # the root value, the sweep and the winners' side values all come from it.
    calls = []

    def counting(name):
        fn = getattr(MetricStats, name)

        def counted(self, *args):
            calls.append(name)
            return fn(self, *args)

        return counted

    for name in ("__init__", "stats"):
        monkeypatch.setattr(MetricStats, name, counting(name))
    trees, _ = grown_trees()
    assert calls == ["__init__", "stats"] * len(trees)


def test_no_admissible_split_remains_at_any_leaf():
    # Stopping soundness: rerunning the search under each leaf either finds
    # nothing or a gap below min_beta (unless the depth limit cut it off).
    rng = np.random.default_rng(29)
    plain = random_plain_table(rng, max_rows=300, with_scores=False)
    t = plain_to_table(plain)
    rule = StoppingRule(max_depth=8, min_beta=0.05, confidence_z=1.0, max_interval_width=1.0)
    tree = build_tree(t, ACC, rule, alpha=5)
    routed = assign(tree, t)
    for stats in tree.leaf_stats():
        if len(stats.path) >= rule.max_depth:
            continue
        view = SubsetView(t, np.flatnonzero(routed == stats.leaf_id))
        again = best_split(view, ACC, SearchConfig(alpha=5, min_support=rule.min_support))
        assert again is None or again.beta < rule.min_beta


def test_build_validates_inputs():
    t = worked_example_table()
    with pytest.raises(ValueError):
        build_tree(t, ACC, LOOSE, alpha=0)
    with pytest.raises(ValueError):
        build_tree(t, ACC, LOOSE, alpha=11)
    schema = FeatureSchema((Feature("x", "numeric"),))
    empty = PredictionTable(schema, ClassSet(("a", "b")), [[]], [], [])
    with pytest.raises(EmptyTableError):
        build_tree(empty, ACC, LOOSE, alpha=1)
    # Metric undefined on the whole table: class b never predicted.
    t2 = make_table("n", [[1.0, 2.0]], ["a", "b"], ["a", "a"])
    with pytest.raises(UndefinedMetricError):
        build_tree(t2, MetricSpec.precision("b"), LOOSE, alpha=1)


def test_assign_boundary_rows_go_left():
    t = worked_example_table()
    tree = build_tree(t, ACC, LOOSE, alpha=1)  # splits at z <= -1
    probe = PredictionTable(
        t.schema, t.classes, [[-1.0, -0.999999]], ["a", "a"], ["a", "b"]
    )
    routed = assign(tree, probe)
    left_id = tree.root.left.leaf_id
    right_id = tree.root.right.leaf_id
    assert list(routed) == [left_id, right_id]


def test_assign_rejects_schema_mismatch():
    t = worked_example_table()
    tree = build_tree(t, ACC, LOOSE, alpha=1)
    other = make_table("n", [[1.0, 2.0]], ["a", "b"], ["a", "b"])  # feature named f0
    with pytest.raises(SchemaMismatchError):
        assign(tree, other)
    # Same feature names but different classes: also a mismatch.
    other2 = PredictionTable(
        t.schema, ClassSet(("a", "c")), [[1.0, 2.0]], ["a", "c"], ["a", "c"]
    )
    with pytest.raises(SchemaMismatchError):
        assign(tree, other2)


def test_assign_names_the_first_bad_node_in_preorder():
    t = worked_example_table()
    built = build_tree(t, ACC, LOOSE, alpha=1)
    leaf = built.root.left
    bad_feature = Internal(SplitCandidate(3, "le", 0.0), leaf, leaf)
    bad_kind = Internal(SplitCandidate(0, "eq", "red"), leaf, leaf)
    root = Internal(
        SplitCandidate(0, "le", -1.0), Internal(SplitCandidate(0, "le", -3.0), leaf, bad_feature),
        bad_kind,
    )
    tree = replace(built, root=root)
    with pytest.raises(TreeFormatError, match="feature index 3 out of range in root.left.right$"):
        assign(tree, t)


def test_assign_matches_split_semantics_on_fresh_rows():
    rng = np.random.default_rng(37)
    plain = random_plain_table(rng, max_rows=200, with_scores=False)
    t = plain_to_table(plain)
    rule = StoppingRule(max_depth=3, min_beta=0.0, confidence_z=1.0, max_interval_width=1.0)
    tree = build_tree(t, ACC, rule, alpha=5)
    routed = assign(tree, t)
    # Walking each row down by hand agrees with the vectorized routing.
    for i in list(range(0, t.n, 7)):
        node = tree.root
        while isinstance(node, Internal):
            c = node.candidate
            col = t.column(c.feature)
            if c.kind == "eq":
                feat = t.schema.features[c.feature]
                go_left = col[i] == feat.categories.index(c.value)
            else:
                go_left = col[i] <= c.value
            node = node.left if go_left else node.right
        assert routed[i] == node.leaf_id


def test_serialize_round_trip_preserves_everything():
    rng = np.random.default_rng(41)
    plain = random_plain_table(rng, max_rows=200)
    t = plain_to_table(plain)
    rule = StoppingRule(max_depth=3, min_beta=0.0, confidence_z=1.0, max_interval_width=1.0)
    tree = build_tree(t, ACC, rule, alpha=5)
    text = serialize_tree(tree)
    assert text.endswith("\n")
    back = deserialize_tree(text)
    assert serialize_tree(back) == text
    assert back.metric == tree.metric
    assert back.stopping == tree.stopping
    assert back.alpha == tree.alpha
    assert back.schema_fingerprint == tree.schema_fingerprint
    assert back.n_build == tree.n_build
    assert [l.leaf_id for l in back.leaf_stats()] == [l.leaf_id for l in tree.leaf_stats()]
    assert np.array_equal(assign(back, t), assign(tree, t))


def test_serialized_form_is_canonical_json():
    t = worked_example_table()
    tree = build_tree(t, ACC, LOOSE, alpha=1)
    text = serialize_tree(tree)
    doc = json.loads(text)
    assert text == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert doc["format_version"] == 1
    assert doc["metric"] == "accuracy"
    assert doc["root"]["kind"] == "le"
    assert doc["root"]["left"]["leaf"]["value"] == 0.4


def test_hand_written_tree_loads_and_routes():
    t = worked_example_table()
    built = build_tree(t, ACC, LOOSE, alpha=1)
    doc = {
        "format_version": 1,
        "metric": "accuracy",
        "alpha": 1,
        "stopping": {
            "max_depth": 6,
            "min_beta": 0.0,
            "confidence_z": 1.96,
            "max_interval_width": 1.0,
        },
        "schema_fingerprint": built.schema_fingerprint,
        "n_build": 10,
        "root": {
            "feature": 0,
            "kind": "le",
            "value": -1,
            "left": {"leaf": {"id": 0, "size": 5, "value": 0.4, "support": 5}},
            "right": {"leaf": {"id": 1, "size": 5, "value": 0.8, "support": 5}},
        },
    }
    tree = deserialize_tree(json.dumps(doc))
    assert isinstance(tree.root.candidate.value, float)
    routed = assign(tree, t)
    assert list(routed) == [0] * 5 + [1] * 5


def test_deserialize_rejects_malformed_documents():
    t = worked_example_table()
    good = json.loads(serialize_tree(build_tree(t, ACC, LOOSE, alpha=1)))

    def broken(mutate):
        doc = json.loads(json.dumps(good))
        mutate(doc)
        return json.dumps(doc)

    cases = [
        lambda d: d.update(format_version=2),
        lambda d: d.pop("metric"),
        lambda d: d.update(metric="nope"),
        lambda d: d.update(alpha="1"),
        lambda d: d["stopping"].pop("min_beta"),
        lambda d: d["stopping"].update(max_depth=0),
        lambda d: d["stopping"].update(confidence_z=1e200),  # z * z overflows
        lambda d: d["root"].update(kind="lt"),
        lambda d: d["root"]["left"]["leaf"].update(value="0.4"),
        lambda d: d["root"]["left"]["leaf"].update(size=-1),
        lambda d: d["root"]["left"]["leaf"].pop("support"),
        lambda d: d["root"].update(feature=-1),
        lambda d: d["root"].update(value=True),
        lambda d: d["root"].pop("right"),
    ]
    for mutate in cases:
        with pytest.raises(TreeFormatError):
            deserialize_tree(broken(mutate))
    with pytest.raises(TreeFormatError):
        deserialize_tree("not json {")
    with pytest.raises(TreeFormatError):
        deserialize_tree("[1,2]")


def test_deserialize_rejects_non_finite_numbers():
    # json reads NaN and Infinity; a NaN threshold would send every row right.
    t = worked_example_table()
    good = json.loads(serialize_tree(build_tree(t, ACC, LOOSE, alpha=1)))
    cases = [
        (lambda d: d["root"].update(value=float("nan")), "'value' in root$"),
        (lambda d: d["root"]["left"]["leaf"].update(value=float("inf")), "'value' in root.left$"),
        (lambda d: d["root"]["right"]["leaf"].update(value=-float("inf")), "'value' in root.right$"),
        (lambda d: d["stopping"].update(confidence_z=float("inf")), "'confidence_z' in stopping$"),
    ]
    for mutate, where in cases:
        doc = json.loads(json.dumps(good))
        mutate(doc)
        with pytest.raises(TreeFormatError, match="non-finite " + where):
            deserialize_tree(json.dumps(doc))


@pytest.mark.parametrize(
    "mutate, where",
    [
        (lambda d: d["root"].update(value=10**400), "'value' too large for a float in root$"),
        (lambda d: d["root"]["left"]["leaf"].update(value=10**400),
         "'value' too large for a float in root.left$"),
        (lambda d: d["stopping"].update(min_beta=10**400),
         "'min_beta' too large for a float in stopping$"),
        (lambda d: d["stopping"].update(confidence_z=-(10**400)),
         "'confidence_z' too large for a float in stopping$"),
        (lambda d: d["stopping"].update(max_interval_width=10**400),
         "'max_interval_width' too large for a float in stopping$"),
    ],
    ids=["le-value", "leaf-value", "min_beta", "confidence_z", "max_interval_width"],
)
def test_deserialize_rejects_ints_too_large_for_a_float(mutate, where):
    # json reads integers of any size; float() of one past 1.8e308 overflows.
    t = worked_example_table()
    doc = json.loads(serialize_tree(build_tree(t, ACC, LOOSE, alpha=1)))
    mutate(doc)
    with pytest.raises(TreeFormatError, match=where):
        deserialize_tree(json.dumps(doc))


def test_deserialize_rejects_ints_past_the_digit_limit():
    # json.loads raises a plain ValueError for an int of more than 4,300 digits.
    t = worked_example_table()
    text = serialize_tree(build_tree(t, ACC, LOOSE, alpha=1))
    text = text.replace('"value":0.4', '"value":1' + "0" * 5000)
    with pytest.raises(TreeFormatError, match="^not valid JSON: Exceeds the limit"):
        deserialize_tree(text)


def test_deserialize_bounds_the_ece_bin_count():
    t = worked_example_table()
    doc = json.loads(serialize_tree(build_tree(t, ACC, LOOSE, alpha=1)))
    doc["metric"] = "ece:1000000000"
    with pytest.raises(TreeFormatError, match="ece takes at most 1000 bins, got 1000000000$"):
        deserialize_tree(json.dumps(doc))


def test_deserialize_rejects_deeply_nested_tree():
    t = worked_example_table()
    doc = json.loads(serialize_tree(build_tree(t, ACC, LOOSE, alpha=1)))
    doc["root"] = "ROOT"
    leaf = '{"leaf":{"id":0,"size":1,"value":0.5,"support":1}}'
    depth = 3000
    root = '{"feature":0,"kind":"le","value":0.0,"left":' * depth + leaf
    root += (',"right":' + leaf + "}") * depth
    with pytest.raises(TreeFormatError, match="nested too deeply"):
        deserialize_tree(json.dumps(doc).replace('"ROOT"', root))


def test_a_chain_tree_at_the_growth_bound_round_trips():
    # Growth stops at _MAX_GROWTH_DEPTH, so a tree of that depth must also
    # write and read back from inside a test runner's deeper stack.
    t = worked_example_table()
    built = build_tree(t, ACC, LOOSE, alpha=1)
    value = built.root.left.metric
    node = Leaf(0, 1, value)
    for leaf_id in range(1, tree_module._MAX_GROWTH_DEPTH + 1):  # ids in pre-order
        node = Internal(SplitCandidate(0, "le", 0.5), node, Leaf(leaf_id, 1, value))
    chain = replace(built, root=node)
    text = serialize_tree(chain)
    back = deserialize_tree(text)
    assert back.depth() == tree_module._MAX_GROWTH_DEPTH
    assert serialize_tree(back) == text


@st.composite
def stopping_rules(draw):
    """Valid :class:`StoppingRule` settings, the float fields drawn as floats."""
    finite = {"allow_nan": False, "allow_infinity": False}
    settings = {
        "max_depth": draw(st.integers(1, 10**6)),
        "min_beta": draw(st.floats(min_value=0.0, **finite)),
        "confidence_z": draw(st.floats(min_value=0.0, exclude_min=True, **finite)),
        "max_interval_width": draw(st.floats(0.0, 1.0, exclude_min=True)),
    }
    try:
        return StoppingRule(**settings)
    except ValueError:  # z^2 / D^2 too large to represent
        assume(False)


@settings(max_examples=200, deadline=None)
@given(stopping_rules())
def test_any_valid_stopping_rule_round_trips_byte_for_byte(rule):
    tree = replace(build_tree(worked_example_table(), ACC, LOOSE, alpha=1), stopping=rule)
    text = serialize_tree(tree)
    back = deserialize_tree(text)
    assert back.stopping == rule
    assert serialize_tree(back) == text


HOSTILE_TABLE = hostile_table()
HOSTILE_TREE = serialize_tree(build_tree(HOSTILE_TABLE, ACC, replace(LOOSE, max_depth=3), alpha=1))
HOSTILE_VALUES = (None, True, -1, 1e308, 10**400, float("nan"), float("inf"), "x", [], {},
                  "purple", "red", "eq", "le", 0.5)
METRIC_NAMES = ("precision:zz", "mean_min_score:a,zz", "recall:c", "ece:10", "weighted_f1",
                "ece:1000000000", "nope")
# Past the JSON parser's nesting limit, and past the tree reader's.
DEEP_JSON = "[" * 100_000 + "]" * 100_000
DEEP_LEAF = '{"leaf":{"id":0,"size":1,"value":0.5,"support":1}}'
DEEP_TREE = ('{"feature":0,"kind":"le","value":0.0,"left":' * 3000 + DEEP_LEAF
             + (',"right":' + DEEP_LEAF + "}") * 3000)


def json_slots(node, path=()):
    """The path to every value inside a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from json_slots(value, path + (key,))


@st.composite
def hostile_tree_texts(draw):
    """HOSTILE_TREE with one to three edits: a key deleted, a value replaced,
    the metric renamed, a split's feature out of range, or a value nested
    past a reader's limit."""
    doc = json.loads(HOSTILE_TREE)
    for _ in range(draw(st.integers(1, 3))):
        slots = list(json_slots(doc))
        edit = draw(st.sampled_from(["delete", "value", "metric", "feature", "deep"]))
        if edit == "metric":
            doc["metric"] = draw(st.sampled_from(METRIC_NAMES))
            continue
        if edit == "feature":
            slots = [p for p in slots if p[-1] == "feature"] or slots
        *where, key = draw(st.sampled_from(slots))
        parent = doc
        for step in where:
            parent = parent[step]
        if edit == "delete":
            del parent[key]
        elif edit == "feature":
            parent[key] = draw(st.sampled_from([3, 99, -1]))
        elif edit == "deep":
            parent[key] = draw(st.sampled_from(["<DEEP JSON>", "<DEEP TREE>"]))
        else:
            parent[key] = draw(st.sampled_from(HOSTILE_VALUES))
    text = json.dumps(doc)
    return text.replace('"<DEEP JSON>"', DEEP_JSON).replace('"<DEEP TREE>"', DEEP_TREE)


def use_tree(text, table):
    """Read tree JSON and make the four calls that use a tree on ``table``."""
    tree = deserialize_tree(text)
    for stats in tree.leaf_stats():
        summarize_path(stats, table.schema)
    assign(tree, table)
    evaluate_tree(tree, table, table)


@settings(max_examples=300, deadline=None)
@given(hostile_tree_texts())
def test_hostile_tree_json_fails_only_with_a_perfex_error(text):
    try:
        use_tree(text, HOSTILE_TABLE)
    except PerfexError:
        pass


def edited(**changes):
    doc = json.loads(HOSTILE_TREE)
    doc.update(changes)
    return json.dumps(doc)


HOSTILE_DOCS = {
    "unknown-class-in-metric": edited(metric="precision:zz"),
    "unknown-metric": edited(metric="nope"),
    "no-root": json.dumps({k: v for k, v in json.loads(HOSTILE_TREE).items() if k != "root"}),
    "null-stopping": edited(stopping=None),
    "string-version": edited(format_version="1"),
    "feature-out-of-range": HOSTILE_TREE.replace('"feature":1', '"feature":99'),
    "unknown-category": HOSTILE_TREE.replace('"value":"red"', '"value":"purple"'),
    "nan-threshold": HOSTILE_TREE.replace('"value":-0.053', '"value":NaN'),
    "huge-int-leaf-value": HOSTILE_TREE.replace('"value":1.0}', '"value":1' + "0" * 400 + "}", 1),
    "deep-json": edited(root="<DEEP>").replace('"<DEEP>"', DEEP_JSON),
    "deep-tree": edited(root="<DEEP>").replace('"<DEEP>"', DEEP_TREE),
}


def test_the_hostile_tree_is_usable_and_each_fixed_edit_applies():
    use_tree(HOSTILE_TREE, HOSTILE_TABLE)
    assert all(text != HOSTILE_TREE for text in HOSTILE_DOCS.values())


@pytest.mark.parametrize("text", HOSTILE_DOCS.values(), ids=HOSTILE_DOCS.keys())
def test_evaluate_reports_a_hostile_tree_in_one_line(tmp_path, text):
    write_csv(HOSTILE_TABLE, tmp_path / "t.csv")
    (tmp_path / "bad.json").write_text(text)
    p = subprocess.run(
        [sys.executable, "-m", "perfex", "evaluate", "--tree", "bad.json", "--build", "t.csv",
         "--test", "t.csv"],
        cwd=tmp_path, env=child_env(), capture_output=True,
    )
    assert p.returncode == 1
    assert p.stderr.startswith(b"perfex evaluate: ") and p.stderr.count(b"\n") == 1, p.stderr
    assert b"Traceback" not in p.stderr


def test_leaf_stats_paths_in_leaf_id_order():
    t = worked_example_table()
    tree = build_tree(t, ACC, LOOSE, alpha=1)
    stats = tree.leaf_stats()
    assert [s.leaf_id for s in stats] == [0, 1]
    assert stats[0].path[0][1] is True
    assert stats[1].path[0][1] is False
    assert stats[0].path[0][0].value == -1.0
    assert stats[0].size == 5 and stats[0].metric.value == 0.4


def test_each_leaf_path_selects_the_rows_assign_sends_to_that_leaf():
    # A path is the leaf's (split, goes_left) steps: ANDing each split's
    # left_mask, or its negation, gives the leaf's rows, also after a round
    # trip through the tree file, which leaves every path equal.
    t, kinds = HOSTILE_TABLE, set()
    for metric in (ACC, parse_metric("ece:10")):
        built = build_tree(t, metric, replace(LOOSE, max_depth=3), alpha=1)
        back = deserialize_tree(serialize_tree(built))
        assert [s.path for s in back.leaf_stats()] == [s.path for s in built.leaf_stats()]
        for tree in (built, back):
            leaf_of = assign(tree, t)
            for stats in tree.leaf_stats():
                selected = np.ones(t.n, dtype=bool)
                for split, goes_left in stats.path:
                    feature = t.schema.features[split.feature]
                    left = split.left_mask(t.column(split.feature), feature)
                    selected &= left if goes_left else ~left
                    kinds.add(feature.kind)
                assert np.array_equal(selected, leaf_of == stats.leaf_id), metric.name
    assert kinds == {"numeric", "binary", "categorical"}


@st.composite
def growth_tables(draw):
    """Tables for growth: numeric columns of a few integers with many ties
    and zeros of both signs, binary and categorical columns, 2-4 classes with
    scores, labels that follow the first feature more often than not."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(20, 300))
    kinds = draw(st.text("nbc", min_size=1, max_size=4))
    k = draw(st.integers(2, 4))
    columns = []
    for kind in kinds:
        if kind == "n":
            col = rng.integers(-3, 4, n).astype(np.float64)
            col[col == 0.0] = rng.choice([-0.0, 0.0], int((col == 0.0).sum()))
        elif kind == "b":
            col = rng.integers(0, 2, n).astype(np.float64)
        else:
            col = [f"g{z}" for z in rng.integers(0, 4, n)]
        columns.append(col)
    classes = tuple(str(c) for c in range(k))
    y = rng.integers(0, k, n)
    first = columns[0]
    lean = (np.asarray(first) == first[0]) if kinds[0] == "c" else np.asarray(first) > 0
    pred = np.where(rng.random(n) < np.where(lean, 0.8, 0.4), y, rng.integers(0, k, n))
    scores = rng.dirichlet(np.ones(k), n)
    return make_table(
        kinds, columns, [classes[c] for c in y], [classes[c] for c in pred], scores, classes
    )


@settings(max_examples=200, deadline=None)
@given(
    growth_tables(),
    st.sampled_from(["accuracy", "weighted_f1", "ece:10", "mean_min_score:0,1"]),
    st.integers(1, 4),
    st.integers(1, 8),
    st.sampled_from([None, 3]),
)
def test_presorted_growth_matches_searching_each_node_from_scratch(t, name, depth, alpha, cap):
    # Partitioning the parent's sorted orders must give every node the rows
    # a fresh stable sort gives it, so the trees agree byte for byte,
    # thresholds of -0.0/0.0 runs included.
    metric = parse_metric(name)
    assume(evaluate_indices(metric, t, np.arange(t.n)).defined)
    rule = StoppingRule(max_depth=depth, min_beta=0.0, confidence_z=1.0, max_interval_width=1.0)
    got = build_tree(t, metric, rule, alpha=alpha, max_thresholds=cap)
    rows = []
    want = naive_grow(t, metric, rule, alpha, max_thresholds=cap, leaf_rows=rows)
    assert serialize_tree(got) == serialize_tree(want)
    # Growth's rows at each leaf are the rows routing sends there.
    routed = assign(got, t)
    assert len(rows) == got.n_leaves
    for leaf_id, want_rows in enumerate(rows):
        assert np.array_equal(np.flatnonzero(routed == leaf_id), want_rows)


# sha256 of the tree JSON on the 20,000-row benchmark table, recorded before
# growth presorted its columns.  The table comes from numpy's generators and
# float arithmetic, so the digests hold for the numpy version they were
# recorded with, the one perfbench/digests.json was recorded with.
GOLDEN_NUMPY = "2.4.6"
GOLDEN_TREES = {
    "accuracy": "781daaba4bbb2d0356045a0a74e19c1b5e600aa144a3e3886d9ae883aaaf9c02",
    "weighted_f1": "b59def05a60fb29cea03255d5f8733451c9070dfe28be3e84a9cdbd2c935705c",
    "ece:10": "135a93f4232084eb1b27369bad4a03d7ccb6b0b946a744028d0908f1a673440d",
    "mean_min_score:0,1": "e3d6173e17f5fb4f96692e2ec1b18fa2114566a49fce95c550f3cbe45825f4b1",
}


@pytest.mark.skipif(
    np.__version__ != GOLDEN_NUMPY,
    reason=f"golden trees were recorded with numpy {GOLDEN_NUMPY}, this is {np.__version__}",
)
def test_golden_trees_on_the_benchmark_table():
    t = baseline_table(20_000)
    for name, digest in GOLDEN_TREES.items():
        text = serialize_tree(build_tree(t, parse_metric(name)))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, name


def test_build_memory_stays_near_one_set_of_orders():
    # A 100k x 8 accuracy build peaked at 9.3 MiB of traced allocations
    # before presorting and at 11.0 MiB with it; with every ancestor's sorted
    # orders kept alive it peaks at 26.1 MiB.  The bound leaves about 45%
    # headroom over the presorted build.
    t = baseline_table(100_000)
    tracemalloc.start()
    try:
        build_tree(t, ACC)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"build peaked at {peak / 2**20:.1f} MiB"
