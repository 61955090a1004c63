"""Tables, CSV round-trips, row splitting, stratified partitioning."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfex import (
    ClassSet,
    DataFormatError,
    EmptyTableError,
    Feature,
    FeatureSchema,
    PredictionTable,
    SplitCandidate,
    SubsetView,
    UnknownClassError,
    load_table,
    stratified_split,
)
from perfex.dataset import stratified_split_indices

from tests._tables import make_table, table_to_csv_text, tables_equal, worked_example_table

CSV_SMALL = b"""length,color,__true__,__pred__
1.5,red,a,a
2.5,blue,b,a
3.5,red,b,b
"""

CSV_SCORED = b"""x,__true__,__pred__,__score_b,__score_a
1.0,a,b,0.7,0.3
2.0,b,b,0.9,0.1
"""


def test_load_infers_kinds_and_classes():
    t = load_table(CSV_SMALL)
    assert t.n == 3 and t.m == 2
    assert [f.kind for f in t.schema.features] == ["numeric", "categorical"]
    assert t.schema.features[1].categories == ("blue", "red")
    assert t.classes.labels == ("a", "b")
    assert t.scores is None
    assert list(t.correct) == [True, False, True]


def test_load_binary_inference():
    t = load_table(b"f,__true__,__pred__\n0,a,a\n1,a,b\n0,b,b\n")
    assert t.schema.features[0].kind == "binary"
    # A constant 0/1 column still counts as binary.
    t2 = load_table(b"f,__true__,__pred__\n0,a,a\n0,a,b\n")
    assert t2.schema.features[0].kind == "binary"
    # {0, 2} is numeric, not binary.
    t3 = load_table(b"f,__true__,__pred__\n0,a,a\n2,a,b\n")
    assert t3.schema.features[0].kind == "numeric"


def test_score_columns_define_class_order():
    t = load_table(CSV_SCORED)
    assert t.classes.labels == ("b", "a")
    assert t.scores is not None
    assert t.scores[0, 0] == 0.7
    # A declared class set must agree with the score columns.
    with pytest.raises(DataFormatError):
        load_table(CSV_SCORED, classes=ClassSet(("a", "b")))


def test_load_accepts_path_bytes_and_file(tmp_path):
    p = tmp_path / "t.csv"
    p.write_bytes(CSV_SMALL)
    a = load_table(p)
    b = load_table(CSV_SMALL)
    c = load_table(io.BytesIO(CSV_SMALL))
    assert tables_equal(a, b) and tables_equal(b, c)


def test_load_errors_carry_1based_row():
    # Without a declared schema a non-numeric cell flips the column to
    # categorical; with one, it is a parse error naming the data row.
    num = FeatureSchema((Feature("x", "numeric"),))
    with pytest.raises(DataFormatError, match="row 2"):
        load_table(b"x,__true__,__pred__\n1.0,a,a\nbad,a,b\n", schema=num)
    with pytest.raises(DataFormatError, match="row 1"):
        load_table(b"x,__true__,__pred__\ninf,a,a\n", schema=num)
    with pytest.raises(DataFormatError, match="row 1"):
        load_table(b"x,__true__,__pred__\n,a,a\n")
    with pytest.raises(DataFormatError, match="row 3"):
        load_table(b"x,__true__,__pred__\n1,a,a\n2,b,b\n3,a\n")
    err = None
    try:
        load_table(b"x,__true__,__pred__\n1,a,a\n2,q,b\n", classes=ClassSet(("a", "b")))
    except UnknownClassError as exc:
        err = exc
    assert err is not None and err.row == 2


def test_inferred_numeric_column_rejects_non_finite_cells():
    # "nan" and "inf" parse as numbers, so the column stays numeric and the
    # cell is rejected with its row instead of becoming a category.
    csv_nan = b"x,__true__,__pred__\n1.0,a,a\nnan,a,b\n2.5,b,b\n3.0,b,a\n"
    with pytest.raises(DataFormatError, match="row 2: non-finite value in column 'x'"):
        load_table(csv_nan)
    with pytest.raises(DataFormatError, match="row 3: non-finite"):
        load_table(b"x,__true__,__pred__\n0,a,a\n1,a,b\n-inf,b,b\n")


def test_load_header_contract():
    with pytest.raises(DataFormatError, match="__true__"):
        load_table(b"x,y\n1,2\n")
    with pytest.raises(DataFormatError, match="__pred__"):
        load_table(b"x,__true__,extra,__pred__\n1,a,z,a\n")
    with pytest.raises(DataFormatError, match="trailing"):
        load_table(b"x,__true__,__pred__,junk\n1,a,a,0\n")
    with pytest.raises(DataFormatError, match="feature"):
        load_table(b"__true__,__pred__\na,a\n")


def test_duplicate_feature_names_are_a_data_format_error():
    with pytest.raises(DataFormatError, match=r"^duplicate column 'x'$"):
        load_table(b"x,y,x,__true__,__pred__\n1,2,3,a,b\n")


def test_duplicate_score_columns_are_a_data_format_error():
    csv_bytes = b"x,__true__,__pred__,__score_a,__score_b,__score_a\n1,a,a,0.5,0.5,0\n"
    with pytest.raises(DataFormatError, match=r"^duplicate column '__score_a'$"):
        load_table(csv_bytes)


def test_score_columns_need_two_named_classes():
    with pytest.raises(DataFormatError, match="one score column '__score_a'"):
        load_table(b"x,__true__,__pred__,__score_a\n1,a,a,1\n")
    with pytest.raises(DataFormatError, match="'__score_' names no class"):
        load_table(b"x,__true__,__pred__,__score_a,__score_\n1,a,a,0.5,0.5\n")
    with pytest.raises(DataFormatError, match="one class only"):
        load_table(b"x,__true__,__pred__\n1,a,a\n2,a,a\n")


def test_bad_utf8_is_a_data_format_error_naming_the_row():
    with pytest.raises(DataFormatError, match=r"^row 1: text is not valid UTF-8$"):
        load_table(b"x,__true__,__pred__\n\xff,a,a\n")
    # Rows are records: a quoted newline does not start a new row.
    with pytest.raises(DataFormatError, match=r"^row 2: "):
        load_table(b'x,__true__,__pred__\n"1\n2",a,b\n"3\n\xff",a,a\n')
    with pytest.raises(DataFormatError, match=r"^header is not valid UTF-8$"):
        load_table(b"\xffx,__true__,__pred__\n1,a,b\n")


def test_oversized_field_is_a_data_format_error_naming_the_record():
    big = b"a" * 200_000
    limit = r"field larger than field limit \(131072\)$"
    with pytest.raises(DataFormatError, match=r"^row 3: " + limit):
        load_table(b'x,__true__,__pred__\n1,a,b\n"3\n4",a,a\n' + big + b",a,b\n")
    with pytest.raises(DataFormatError, match=r"^header: " + limit):
        load_table(big + b",__true__,__pred__\n1,a,b\n")
    # Before a bad UTF-8 byte, the oversized record is the first error.
    with pytest.raises(DataFormatError, match=r"^row 1: " + limit):
        load_table(b"x,__true__,__pred__\n" + big + b",a,b\n\xff,a,a\n")


def test_empty_table_is_an_error():
    with pytest.raises(EmptyTableError):
        load_table(b"x,__true__,__pred__\n")
    with pytest.raises(DataFormatError):
        load_table(b"")


def test_score_validation():
    bad_range = b"x,__true__,__pred__,__score_a,__score_b\n1,a,a,1.4,-0.4\n"
    with pytest.raises(DataFormatError, match="row 1"):
        load_table(bad_range)
    bad_sum = b"x,__true__,__pred__,__score_a,__score_b\n1,a,a,0.6,0.6\n"
    with pytest.raises(DataFormatError, match="sum"):
        load_table(bad_sum)
    # Raw (non-probability) scores skip the sum-to-1 check but keep [0, 1].
    t = load_table(bad_sum, scores_are_probabilities=False)
    assert t.scores[0, 1] == 0.6
    with pytest.raises(DataFormatError):
        load_table(bad_range, scores_are_probabilities=False)


def test_constructor_rejects_bad_feature_values():
    with pytest.raises(DataFormatError, match="row 2"):
        make_table("n", [[1.0, float("nan")]], ["a", "a"], ["a", "b"])
    with pytest.raises(DataFormatError, match="row 1"):
        make_table("b", [[2.0, 1.0]], ["a", "a"], ["a", "b"])
    with pytest.raises(DataFormatError):
        make_table(
            "c", [["x", "y"]], ["a", "a"], ["a", "b"], categories=[("x",)]
        )


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_constructor_names_the_row_of_a_non_finite_score(bad):
    with pytest.raises(DataFormatError, match=r"^row 2: non-finite score value$"):
        make_table("n", [[1.0, 2.0, 3.0]], ["a", "b", "a"], ["a", "a", "b"],
                   scores=[[0.5, 0.5], [bad, 1.0], [bad, 0.0]])


def test_constructor_copies_the_callers_arrays():
    col = np.array([1.0, 2.0, 3.0])
    scores = np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]])
    t = make_table("n", [col], ["a", "b", "a"], ["a", "b", "b"], scores=scores)
    col[:] = 7.0
    scores[:] = 0.5
    assert t.column(0).tolist() == [1.0, 2.0, 3.0]
    assert t.scores.tolist() == [[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]]
    assert col.flags.writeable and scores.flags.writeable
    assert not t.column(0).flags.writeable and not t.scores.flags.writeable


def test_loaded_arrays_are_stored_read_only():
    t = load_table(CSV_SCORED)
    for arr in (t.column(0), t.scores, t.y_codes, t.pred_codes, t.correct):
        assert not arr.flags.writeable


def test_roundtrip_preserves_everything(tmp_path):
    t = make_table(
        "nc",
        [[1.25, -3.0, 0.1], ["red", "blue", "red"]],
        ["a", "b", "a"],
        ["a", "a", "b"],
        scores=[[0.75, 0.25], [0.5, 0.5], [0.1, 0.9]],
    )
    text = table_to_csv_text(t)
    back = load_table(text.encode("utf-8"))
    assert tables_equal(back, t)
    assert table_to_csv_text(back) == text


def test_roundtrip_full_float_precision(tmp_path):
    vals = [0.1 + 0.2, 1 / 3, 1e-17 + 1.0, 12345.678901234567]
    t = make_table("n", [vals], ["a"] * 4, ["b", "a", "a", "a"])
    back = load_table(table_to_csv_text(t).encode("utf-8"))
    assert np.array_equal(back.column(0), np.array(vals))


# Values a CSV round trip is most likely to bend: signed zero, the smallest
# subnormal, the largest float, a sum with a long repr, and text that needs
# quoting or is not ASCII.  "nan" and "1" are categories here, not numbers.
AWKWARD_NUMBERS = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1 + 0.2]
AWKWARD_SCORES = [-0.0, 0.0, 5e-324, 0.1 + 0.2, 1.0]
AWKWARD_TEXT = ["a,b", 'say "hi"', "two\nlines", "cr\r\nlf", " leading", "naïve", "日本語",
                "nan", "1"]


@st.composite
def awkward_tables(draw):
    n = draw(st.integers(1, 8))
    cats = draw(st.lists(st.sampled_from(AWKWARD_TEXT), min_size=1, unique=True))
    labels = draw(st.lists(st.sampled_from(AWKWARD_TEXT), min_size=2, max_size=4, unique=True))

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    numbers = st.sampled_from(AWKWARD_NUMBERS) | st.floats(allow_nan=False, allow_infinity=False)
    score = st.sampled_from(AWKWARD_SCORES) | st.floats(0.0, 1.0)
    schema = FeatureSchema((
        Feature('x, "quoted"', "numeric"),
        Feature("flag", "binary"),
        Feature("naïve cat", "categorical", tuple(cats)),
    ))
    return PredictionTable(
        schema,
        ClassSet(tuple(labels)),
        [column(numbers), column(st.sampled_from([0.0, -0.0, 1.0])), column(st.sampled_from(cats))],
        column(st.sampled_from(labels)),
        column(st.sampled_from(labels)),
        column(st.lists(score, min_size=len(labels), max_size=len(labels))),
        scores_are_probabilities=False,
    )


@settings(max_examples=60, deadline=None)
@given(awkward_tables())
def test_csv_roundtrip_keeps_awkward_values(t):
    text = table_to_csv_text(t)
    back = load_table(text.encode("utf-8"), schema=t.schema, scores_are_probabilities=False)
    assert tables_equal(back, t)
    # tables_equal() sees -0.0 == 0.0, so compare signs too.
    for a, b in ((back.column(0), t.column(0)), (back.column(1), t.column(1)),
                 (back.scores, t.scores)):
        assert np.array_equal(np.signbit(a), np.signbit(b))
    assert table_to_csv_text(back) == text


def test_load_names_the_first_bad_cell_in_column_order():
    head = b"x,__true__,__pred__,__score_a,__score_b\n"
    # Row 2 of __score_b is bad too, but __score_a comes first.
    bad_scores = head + b"1,a,a,0.5,0.5\n2,a,b,0.5,bad\n3,b,b,oops,0.5\n"
    with pytest.raises(DataFormatError, match=r"^row 3: cannot parse 'oops' in column '__score_a' as a number$"):
        load_table(bad_scores)
    with pytest.raises(DataFormatError, match=r"^row 2: non-finite value in column '__score_b'$"):
        load_table(head + b"1,a,a,0.5,0.5\n2,a,b,0.5,inf\n")
    with pytest.raises(DataFormatError, match=r"^row 2: missing value in column '__pred__'$"):
        load_table(b"x,__true__,__pred__\n1,a,a\n2,b,\n")
    # Feature columns come before the label columns.
    num = FeatureSchema((Feature("x", "numeric"),))
    with pytest.raises(DataFormatError, match=r"^row 3: cannot parse 'bad' in column 'x' as a number$"):
        load_table(b"x,__true__,__pred__\n1,,a\n2,a,b\nbad,b,b\n", schema=num)


def test_schema_validation():
    with pytest.raises(ValueError):
        Feature("f", "weird")
    with pytest.raises(ValueError):
        Feature("f", "categorical")
    with pytest.raises(ValueError):
        Feature("f", "numeric", categories=("x",))
    with pytest.raises(ValueError):
        FeatureSchema((Feature("f", "numeric"), Feature("f", "binary")))
    with pytest.raises(ValueError):
        ClassSet(("a",))
    with pytest.raises(ValueError):
        ClassSet(("a", "a"))


def test_subset_view_contract():
    t = worked_example_table()
    with pytest.raises(ValueError):
        SubsetView(t, np.array([3, 2], dtype=np.int64))
    with pytest.raises(ValueError):
        SubsetView(t, np.array([0, 99], dtype=np.int64))
    v = SubsetView(t, np.array([1, 4, 7], dtype=np.int64))
    assert len(v) == 3
    assert list(v.column(0)) == [-4.0, -1.0, 3.0]


def split(table, feature, kind, value):
    """Row indices each side of one condition, by the routing rule."""
    cand = SplitCandidate(feature, kind, value)
    mask = cand.left_mask(table.column(feature), table.schema.features[feature])
    return np.flatnonzero(mask), np.flatnonzero(~mask)


def test_split_rows_at_boundary_goes_left():
    t = worked_example_table()
    left, right = split(t, 0, "le", -1.0)
    assert len(left) == 5 and len(right) == 5
    assert list(t.column(0)[left]) == [-5.0, -4.0, -3.0, -2.0, -1.0]
    # A threshold at or above the maximum sends everything left.
    left, right = split(t, 0, "le", 5.0)
    assert len(left) == 10 and len(right) == 0


def test_split_rows_categorical():
    t = make_table(
        "c", [["r", "r", "g", "g", "g", "b"]], ["a"] * 6, ["a", "b"] * 3
    )
    left, right = split(t, 0, "eq", "g")
    assert list(left) == [2, 3, 4]
    assert list(right) == [0, 1, 5]
    with pytest.raises(ValueError):
        split(t, 0, "eq", "nope")
    with pytest.raises(ValueError):
        split(t, 0, "eq", 1.5)
    # A threshold condition does not fit a categorical feature, nor a
    # category condition a numeric one.
    with pytest.raises(ValueError):
        split(t, 0, "le", 1.5)
    with pytest.raises(ValueError):
        split(worked_example_table(), 0, "eq", "g")


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.floats(-5, 5, allow_nan=False).map(lambda v: round(v, 2)),
        min_size=1,
        max_size=40,
    ),
    pivot=st.floats(-6, 6, allow_nan=False),
)
def test_split_rows_is_a_partition(values, pivot):
    n = len(values)
    t = make_table("n", [values], ["a"] * n, ["a" if i % 2 else "b" for i in range(n)])
    left, right = split(t, 0, "le", pivot)
    merged = sorted(list(left) + list(right))
    assert merged == list(range(n))
    assert all(v <= pivot for v in t.column(0)[left])
    assert all(v > pivot for v in t.column(0)[right])


def test_stratified_split_counts_and_determinism():
    y = np.array([0] * 60 + [1] * 40, dtype=np.int32)
    parts = stratified_split_indices(y, 2, (0.5, 0.25, 0.25), seed=7)
    sizes = [p.size for p in parts]
    assert sizes == [50, 25, 25]
    for p in parts:
        assert (y[p] == 0).sum() in (30, 15)  # per-class shares preserved
    merged = np.sort(np.concatenate(parts))
    assert np.array_equal(merged, np.arange(100))
    again = stratified_split_indices(y, 2, (0.5, 0.25, 0.25), seed=7)
    assert all(np.array_equal(a, b) for a, b in zip(parts, again))
    other = stratified_split_indices(y, 2, (0.5, 0.25, 0.25), seed=8)
    assert any(not np.array_equal(a, b) for a, b in zip(parts, other))


def test_stratified_split_tables():
    t = make_table(
        "n",
        [list(map(float, range(100)))],
        ["a"] * 60 + ["b"] * 40,
        ["a"] * 100,
    )
    a, b = stratified_split(t, (0.75, 0.25), seed=1)
    assert a.n == 75 and b.n == 25
    assert a.y_labels().count("b") == 30 and b.y_labels().count("b") == 10
    with pytest.raises(ValueError):
        stratified_split(t, (0.9, 0.2), seed=1)
    with pytest.raises(ValueError):
        stratified_split(t, (1.0,), seed=1)
    for bad in ((float("nan"), 0.5), (0.5, float("nan")), (float("inf"), 0.5)):
        with pytest.raises(ValueError, match="fractions must be non-negative and sum to 1"):
            stratified_split(t, bad, seed=1)


def test_subset_keeps_scores_and_flags():
    t = load_table(CSV_SCORED)
    s = t.subset(np.array([1]))
    assert s.n == 1 and s.scores[0, 0] == 0.9
    assert not s.column(0).flags.writeable
    assert not s.scores.flags.writeable
