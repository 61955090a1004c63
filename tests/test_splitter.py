"""Split search against hand cases and an independent exhaustive oracle."""

import numpy as np
import pytest

from perfex import (
    MetricSpec,
    SearchConfig,
    best_split,
)
from perfex.metrics import evaluate_indices
from perfex.splitter import _conditions, _thresholds

from tests._naive import naive_best_split, naive_thresholds, random_plain_table
from tests._tables import WORKED_CORRECT, WORKED_Z, worked_example_table, make_table, plain_to_table

ACC = MetricSpec.accuracy()


def value_fn(spec, table):
    """Adapter handing the package's metric values to the naive search."""

    def fn(idx_list):
        v = evaluate_indices(spec, table, np.asarray(idx_list, dtype=np.int64))
        return (v.value, v.support)

    return fn


def test_candidate_thresholds_distinct_values():
    got = _thresholds(np.sort(np.array([1.0, 1.0, 2.0, 3.0])), None)
    assert list(got) == [1.0, 2.0, 3.0]


def test_candidate_thresholds_capped_to_quantiles():
    values = np.arange(1000, dtype=np.float64)
    got = _thresholds(np.sort(values), 9)
    # Nearest-rank deciles: index ceil(q/10 * 1000) - 1 of the sorted values.
    assert list(got) == [99.0, 199.0, 299.0, 399.0, 499.0, 599.0, 699.0, 799.0, 899.0]
    assert list(got) == naive_thresholds(list(values), cap=9)


def test_candidate_thresholds_cap_dedups():
    values = np.array([1.0] * 90 + [2.0] * 10)
    got = _thresholds(np.sort(values), 4)
    assert list(got) == [1.0, 2.0]


def test_candidate_thresholds_automatic_rule():
    uniq256 = np.arange(256, dtype=np.float64)
    assert _thresholds(np.sort(uniq256), None).size == 256
    uniq300 = np.arange(300, dtype=np.float64)
    capped = _thresholds(np.sort(uniq300), None)
    assert capped.size <= 255
    assert list(capped) == naive_thresholds(list(uniq300))


def candidate_list(view):
    """(feature, kind, value, left-row count) of every condition the search
    tries on ``view``, in search order."""
    out = []
    for j, feature in enumerate(view.table.schema.features):
        values, starts, ends = _conditions(np.sort(view.column(j)), feature, None)
        kind = "eq" if feature.kind == "categorical" else "le"
        out += [(j, kind, v, int(e - s)) for v, s, e in zip(values, starts, ends)]
    return out


def test_enumeration_order_is_fixed():
    t = make_table(
        "nc",
        [[2.0, 1.0, 2.0], ["v", "u", "u"]],
        ["a", "a", "b"],
        ["a", "b", "b"],
    )
    cands = candidate_list(t.full_view())
    assert [c[:3] for c in cands] == [
        (0, "le", 1.0),
        (0, "le", 2.0),
        (1, "eq", "u"),
        (1, "eq", "v"),
    ]
    # Each candidate comes with the row count of its left side.
    assert [c[3] for c in cands] == [1, 3, 2, 1]
    # Only categories present in the view are enumerated.
    sub = t.subset(np.array([0]))
    cands = candidate_list(sub.full_view())
    assert [(c[0], c[2]) for c in cands] == [(0, 2.0), (1, "v")]


def test_worked_example_best_split_is_exact():
    t = worked_example_table()
    got = best_split(t.full_view(), ACC, SearchConfig(alpha=1, min_support=4))
    assert got is not None
    assert (got.candidate.feature, got.candidate.kind, got.candidate.value) == (0, "le", -1.0)
    assert got.e_left.value == 0.4
    assert got.e_right.value == 0.8
    assert got.beta == 0.4
    assert len(got.left) == 5 and len(got.right) == 5


def test_no_gap_means_no_split():
    t = make_table("n", [[1.0, 2.0, 3.0, 4.0]], ["a"] * 4, ["a"] * 4, classes=("a", "b"))
    assert best_split(t.full_view(), ACC, SearchConfig(alpha=1, min_support=1)) is None


def test_infeasible_everywhere_means_no_split():
    t = worked_example_table()
    # alpha larger than half the rows: no candidate has two big-enough sides.
    assert best_split(t.full_view(), ACC, SearchConfig(alpha=6, min_support=1)) is None
    with pytest.raises(ValueError):
        best_split(t.subset(np.array([], dtype=np.int64)).full_view(), ACC)


def test_tie_breaks_to_first_candidate_in_order():
    # Two identical features: the tie must go to the lower feature index.
    preds = [("a" if ok else "b") for ok in WORKED_CORRECT]
    t = make_table("nn", [list(WORKED_Z), list(WORKED_Z)], ["a"] * 10, preds)
    got = best_split(t.full_view(), ACC, SearchConfig(alpha=1, min_support=4))
    assert got.candidate.feature == 0 and got.candidate.value == -1.0


def test_tie_breaks_to_first_threshold():
    # Mirror-symmetric pattern: thresholds 1 and 3 both reach beta 2/3
    # (up to fp rounding, inside the tie tolerance); the first must win.
    t = make_table("n", [[1.0, 2.0, 3.0, 4.0]], ["a"] * 4, ["a", "b", "a", "b"])
    got = best_split(t.full_view(), ACC, SearchConfig(alpha=1, min_support=1))
    assert got.candidate.value == 1.0
    assert got.beta == pytest.approx(2 / 3, abs=1e-12)


def test_min_support_uses_metric_support_not_size():
    # Class b is predicted on just four of twelve rows, so no split can give
    # precision:b a support of 3 on both sides, however many rows there are.
    y = ["a", "b", "b", "a", "a", "a"] * 2
    p = ["a", "b", "a", "a", "b", "a"] * 2
    x = [float(i) for i in range(12)]
    t = make_table("n", [x], y, p)
    spec = MetricSpec.precision("b")
    assert best_split(t.full_view(), spec, SearchConfig(alpha=2, min_support=3)) is None
    got = best_split(t.full_view(), spec, SearchConfig(alpha=2, min_support=1))
    assert got is not None
    assert min(got.e_left.support, got.e_right.support) < 3  # size alone was never the blocker


def test_undefined_sides_are_infeasible():
    # Class b only ever predicted on low x: any split isolating it leaves the
    # other side undefined for precision:b, so the search must return None.
    t = make_table(
        "n",
        [[1.0, 2.0, 3.0, 4.0]],
        ["b", "b", "a", "a"],
        ["b", "b", "a", "a"],
    )
    assert best_split(t.full_view(), MetricSpec.precision("b"), SearchConfig(1, 1)) is None


def test_alpha_monotonicity():
    rng = np.random.default_rng(31)
    for _ in range(25):
        plain = random_plain_table(rng, max_rows=80, with_scores=False)
        t = plain_to_table(plain)
        betas = []
        for alpha in (1, 5, 15):
            got = best_split(t.full_view(), ACC, SearchConfig(alpha, 1))
            betas.append(-1.0 if got is None else got.beta)
        # Raising alpha only shrinks the feasible set.
        assert betas[0] >= betas[1] >= betas[2]


def test_result_sides_partition_the_view():
    t = worked_example_table()
    got = best_split(t.full_view(), ACC, SearchConfig(alpha=1, min_support=1))
    merged = np.sort(np.concatenate([got.left.indices, got.right.indices]))
    assert np.array_equal(merged, np.arange(10))
    assert (np.diff(got.left.indices) > 0).all()


def test_matches_naive_exhaustive_search():
    rng = np.random.default_rng(53)
    for _ in range(40):
        plain = random_plain_table(rng, max_rows=60)
        t = plain_to_table(plain)
        first = plain["classes"][0]
        specs = [
            ACC,
            MetricSpec.precision(first),
            MetricSpec.recall(first),
            MetricSpec.f1(first),
            MetricSpec.weighted("precision"),
            MetricSpec.weighted("recall"),
            MetricSpec.weighted("f1"),
        ]
        if plain["scores"] is not None:
            specs += [MetricSpec.ece(bins) for bins in (1, 5, 10)]
            specs.append(MetricSpec.mean_min_score(tuple(plain["classes"][:2])))
            if len(plain["classes"]) > 2:
                specs.append(MetricSpec.mean_min_score(tuple(plain["classes"])))
        alpha = int(rng.choice([1, 3, 10]))
        min_support = int(rng.choice([1, 5]))
        for spec in specs:
            got = best_split(t.full_view(), spec, SearchConfig(alpha, min_support))
            want = naive_best_split(plain, alpha, min_support, value_fn(spec, t))
            if want is None:
                assert got is None, (spec.name, got and got.candidate)
                continue
            assert got is not None, (spec.name, want)
            assert (got.candidate.feature, got.candidate.kind, got.candidate.value) == want[:3]
            assert got.beta == want[3]  # same doubles, same order: bit-exact


def test_float_screen_near_tie_goes_to_first_candidate():
    # x0 <= 0 and x1 <= 199 both isolate the last row, so their exact betas
    # are equal and the first in order must win.  The sweep adds up the other
    # rows as one segment, in row order, for x0, and as 200 segments, one per
    # value of x1, then a running sum over them, for x1; the two float sums,
    # and so the two screened betas, differ by more than the tie tolerance.
    # Only the exact recheck of undecided comparisons gets the tie right.
    n = 2000
    p = np.random.default_rng(0).uniform(0.5, 0.7, size=n)
    p[-1] = 1.0
    x1 = [float(i % 200) for i in range(n - 1)] + [1000.0]
    plain = {
        "features": [("f0", "numeric", None), ("f1", "numeric", None)],
        "columns": [[0.0] * (n - 1) + [1.0], x1],
        "classes": ["a", "b"],
        "y": ["a"] * n,
        "pred": ["a"] * n,
        "scores": [[float(a), 1.0 - float(a)] for a in p],
    }
    mins = np.minimum(p, 1.0 - p)[:-1]
    by_x1 = mins[np.argsort(x1[:-1], kind="stable")]
    assert abs(np.cumsum(mins)[-1] - np.cumsum(by_x1)[-1]) > 1e-12
    t = plain_to_table(plain)
    spec = MetricSpec.mean_min_score(("a", "b"))
    got = best_split(t.full_view(), spec, SearchConfig(1, 1))
    want = naive_best_split(plain, 1, 1, value_fn(spec, t))
    assert want[:3] == (0, "le", 0.0)
    assert (got.candidate.feature, got.candidate.kind, got.candidate.value) == want[:3]
    assert got.beta == want[3]


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(alpha=0)
    with pytest.raises(ValueError):
        SearchConfig(min_support=-1)
    with pytest.raises(ValueError):
        SearchConfig(max_thresholds=0)
