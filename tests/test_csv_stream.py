"""The streamed CSV layer against the whole-text loader it replaced, and its
memory bound."""

import csv
import io
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfex import (
    CATEGORICAL,
    ClassSet,
    DataFormatError,
    Feature,
    FeatureSchema,
    PredictionTable,
    load_table,
    write_csv,
)
from perfex import dataset

from tests._naive import naive_load_table
from tests._tables import baseline_table, tables_equal

DEFAULT_CHUNK_ROWS = dataset._CHUNK_ROWS
CHUNK_SIZES = (1, 2, 3, 5, DEFAULT_CHUNK_ROWS)

NUMBER_CELLS = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.sampled_from(
    ["0", "1", "-0.0", "1e3", " 2.5 ", "1_0", "١", "0x1p3"]
)
BINARY_CELLS = st.sampled_from(["0", "1", "0.0", "-0", "1.0"])
TEXT_CELLS = st.sampled_from(["red", "a,b", 'say "hi"', "two\nlines", "cr\r\nlf", " x",
                              "naïve", "nan", "1", "0"])
LABELS = ("a", "b", "c,d")
SCORE_ROWS = {2: [("0.25", "0.75"), ("1", "0"), ("0.5", "0.5")],
              3: [("0.2", "0.3", "0.5"), ("1.0", "0", "-0.0"), ("0.1", "0.1", "0.8")]}
OVERSIZED = "a" * 131_073


def outcome(load, source, **kwargs):
    """The table ``load`` returns, or the exception it raises."""
    try:
        return load(source, **kwargs)
    except Exception as exc:  # the oracle comparison covers every exception type
        return exc


def assert_same(got, expected):
    if isinstance(expected, Exception):
        assert (type(got), str(got)) == (type(expected), str(expected))
        return
    assert isinstance(got, PredictionTable), got
    assert tables_equal(got, expected)
    # tables_equal() sees -0.0 == 0.0, so compare signs too.
    for j, feature in enumerate(got.schema.features):
        if feature.kind != CATEGORICAL:
            assert np.array_equal(np.signbit(got.column(j)), np.signbit(expected.column(j)))
    if got.scores is not None:
        assert np.array_equal(np.signbit(got.scores), np.signbit(expected.scores))


@st.composite
def csv_inputs(draw):
    """CSV bytes, valid or mutated, with the arguments to load them with."""
    n = draw(st.integers(1, 12))
    kinds = draw(st.lists(st.sampled_from(["number", "binary", "text", "mixed"]),
                          min_size=1, max_size=3))
    k = draw(st.sampled_from([0, 2, 3]))
    labels = LABELS[: k or 3]
    header = [f"f{j}" for j in range(len(kinds))] + ["__true__", "__pred__"]
    header += [f"__score_{lbl}" for lbl in labels] if k else []

    def cell(kind):
        if kind == "mixed":
            kind = draw(st.sampled_from(["number", "number", "text"]))
        return draw({"number": NUMBER_CELLS, "binary": BINARY_CELLS, "text": TEXT_CELLS}[kind])

    rows = []
    for _ in range(n):
        row = [cell(kind) for kind in kinds]
        row += [draw(st.sampled_from(labels)), draw(st.sampled_from(labels))]
        row += list(draw(st.sampled_from(SCORE_ROWS[k]))) if k else []
        rows.append(row)

    mutation = draw(st.sampled_from([
        None, "cell", "extra cell", "missing cell", "header", "late text", "oversized",
        "truncate", "bad utf-8", "stray quote",
    ]))
    r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, len(header) - 1))
    if mutation == "cell":
        rows[r][c] = draw(st.sampled_from(["nan", "inf", "", "x", "2", "-0.0"]))
    elif mutation == "extra cell":
        rows[r].append("x")
    elif mutation == "missing cell":
        rows[r].pop()
    elif mutation == "header":
        header[c] = draw(st.sampled_from(header + ["renamed", "__score_z", "__score_"]))
    elif mutation == "late text":  # a non-number after the first chunk of small sizes
        rows[draw(st.integers(n // 2, n - 1))][draw(st.integers(0, len(kinds) - 1))] = "late"
    elif mutation == "oversized":
        rows[r][c] = OVERSIZED

    buf = io.StringIO()
    csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows(
        [header] + rows)
    data = buf.getvalue().encode("utf-8")
    if mutation == "truncate":
        data = data[: len(data) - draw(st.integers(1, len(data) - data.rfind(b"\n", 0, -1)))]
    elif mutation in ("bad utf-8", "stray quote"):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + (b"\xff" if mutation == "bad utf-8" else b'"') + data[at:]

    declare = draw(st.sampled_from([None, "schema", "classes"]))
    kwargs = {"scores_are_probabilities": draw(st.booleans())}
    if declare == "schema":
        kind_of = {"number": "numeric", "binary": "binary", "text": "categorical",
                   "mixed": "numeric"}
        features = []
        for j, kind in enumerate(kinds):
            if kind_of[kind] == "categorical":
                cats = sorted({row[j] for row in rows if j < len(row)} - {""}) or ["red"]
                drop = draw(st.booleans()) and len(cats) > 1  # a value then is no category
                features.append(Feature(f"f{j}", "categorical", tuple(cats[drop:])))
            else:
                features.append(Feature(f"f{j}", kind_of[kind]))
        if draw(st.integers(0, 3)) == 0:  # a name the header does not have
            features[-1] = Feature("renamed", features[-1].kind, features[-1].categories)
        kwargs["schema"] = FeatureSchema(tuple(features))
    elif declare == "classes":
        kwargs["classes"] = ClassSet(draw(st.sampled_from([labels, ("a", "b"), ("b", "a")])))
    return data, kwargs


@settings(max_examples=300, deadline=None)
@given(csv_inputs(), st.booleans())
def test_streamed_load_matches_the_whole_text_loader(case, as_file):
    data, kwargs = case
    expected = outcome(naive_load_table, data, **kwargs)
    for size in CHUNK_SIZES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataset, "_CHUNK_ROWS", size)
            got = outcome(load_table, io.BytesIO(data) if as_file else data, **kwargs)
        assert_same(got, expected)


def test_text_after_the_first_chunk_reads_the_column_again(tmp_path):
    # Two columns turn categorical in different chunks of the default size:
    # the load reads the source once more for each, from a path too.
    n = 2 * DEFAULT_CHUNK_ROWS + 10
    x = [repr(i / 7) for i in range(n)]
    z = [str(i % 2) for i in range(n)]
    x[DEFAULT_CHUNK_ROWS + 3], z[2 * DEFAULT_CHUNK_ROWS + 1] = "late", "text"
    body = "".join(f"{a},{b},{i % 3},{i % 2}\n" for i, (a, b) in enumerate(zip(x, z)))
    data = ("x,z,__true__,__pred__\n" + body).encode("utf-8")
    path = tmp_path / "late.csv"
    path.write_bytes(data)
    expected = naive_load_table(data)
    assert [f.kind for f in expected.schema.features] == ["categorical", "categorical"]
    for source in (data, io.BytesIO(data), path):
        assert_same(load_table(source), expected)

    # A pipe cannot be read twice, so it is read whole first.
    if not hasattr(os, "mkfifo"):
        return
    fifo = tmp_path / "late.fifo"
    os.mkfifo(fifo)
    loaded = []
    threads = [threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True),
               threading.Thread(target=lambda: loaded.append(load_table(fifo)), daemon=True)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert_same(loaded[0], expected)


def numeric_csv(rows: int) -> bytes:
    rng = np.random.default_rng(5)
    values = rng.normal(size=(rows, 5))
    labels = rng.integers(0, 3, size=(rows, 2))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x0", "x1", "x2", "x3", "x4", "__true__", "__pred__"])
    writer.writerows(v + [f"c{t}", f"c{p}"]
                     for v, (t, p) in zip(values.tolist(), labels.tolist()))
    return buf.getvalue().encode("utf-8")


def traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Peak traced memory over the CSV's size.  On this table the whole-text
# loader peaked at 11.5x and the whole-text writer at 4.2x; the streamed
# load peaks at 1.3x (one chunk of cells next to the finished arrays) and
# the streamed write at 0.3x.
LOAD_PEAK_PER_BYTE = 2.0
WRITE_PEAK_PER_BYTE = 0.5


def test_load_and_write_memory_stay_near_the_file_size(tmp_path):
    data = numeric_csv(100_000)
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    table, load_peak = traced_peak(lambda: load_table(path))
    assert load_peak < LOAD_PEAK_PER_BYTE * len(data)

    out = tmp_path / "out.csv"
    _, write_peak = traced_peak(lambda: write_csv(table, out))
    assert write_peak < WRITE_PEAK_PER_BYTE * len(data)
    assert out.read_bytes() == data


# Up to the error, a failing load makes the same pass a valid one does, and
# the two peak within a few hundred bytes of each other, either way.
PASS_JITTER = 1.01


def test_record_errors_take_no_more_memory_than_a_valid_load(tmp_path):
    # The record-error pass decodes and parses one stream and counts records.
    # Holding the whole text and every record, it peaked at 3.6x the valid load.
    path = tmp_path / "valid.csv"
    write_csv(baseline_table(20_000), path)
    data = path.read_bytes()
    last = data.rstrip(b"\n").rfind(b"\n") + 1
    _, valid_peak = traced_peak(lambda: load_table(path))
    bad = tmp_path / "bad.csv"
    for insert, error in ((b"\xff", "text is not valid UTF-8"),
                          (OVERSIZED.encode(), r"field larger than field limit \(131072\)")):
        bad.write_bytes(data[:last] + insert + data[last:])

        def failing_load():
            with pytest.raises(DataFormatError, match=f"^row 20000: {error}$"):
                load_table(bad)

        _, peak = traced_peak(failing_load)
        assert peak <= PASS_JITTER * valid_peak, error
