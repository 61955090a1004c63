"""The streamed CSV layer against the whole-text loader and the row writer
it replaced, and its memory bound."""

import codecs
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

from tests._naive import naive_load_table, naive_write_rows
from tests._tables import baseline_table, table_to_csv_text, tables_equal
from tests.test_dataset import awkward_tables

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
CUT_SEQUENCES = [b"\xe2\x82", b"\xc3"]  # the start of a multi-byte character only


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
        "truncate", "bad utf-8", "stray quote", "cut utf-8", "nothing but a cut",
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
    elif mutation in ("bad utf-8", "stray quote", "cut utf-8"):
        at = draw(st.integers(0, len(data)))
        insert = {"bad utf-8": b"\xff", "stray quote": b'"'}.get(mutation)
        data = data[:at] + (insert or draw(st.sampled_from(CUT_SEQUENCES))) + data[at:]
    elif mutation == "nothing but a cut":
        data = draw(st.sampled_from(CUT_SEQUENCES))

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


WRITE_CHUNK_SIZES = (1, 2, 3, dataset._WRITE_ROWS)


@settings(max_examples=100, deadline=None)
@given(awkward_tables(), st.sampled_from(WRITE_CHUNK_SIZES), st.sampled_from([-1, 0, 1]))
def test_the_writer_matches_the_csv_writer_row_loop(t, chunk, past_end):
    # The table as drawn, and its rows repeated to one row short of, exactly
    # at, or one row past the end of a chunk, so values repeat within chunks
    # and across them.
    for table in (t, t.subset(np.arange(chunk + past_end) % t.n)):
        expected = io.StringIO()
        naive_write_rows(table, expected)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataset, "_WRITE_ROWS", chunk)
            assert table_to_csv_text(table) == expected.getvalue()


def test_multi_byte_characters_across_read_blocks_match_the_whole_text_loader():
    # Over 64 KiB, a non-ASCII category in every row: characters of two and
    # three bytes straddle the ends of the blocks the load reads.
    cats = ["é", "€uro", "日本"]
    body = "".join(f"{i / 7!r},{cats[i % 3]},{'ab'[i % 2]},{'ab'[i % 5 % 2]}\n"
                   for i in range(4000))
    data = ("x,c,__true__,__pred__\n" + body).encode("utf-8")
    blocks = range(io.DEFAULT_BUFFER_SIZE, len(data), io.DEFAULT_BUFFER_SIZE)
    assert any(0x80 <= data[at] < 0xC0 for at in blocks)  # a block starts mid-character
    near_end = len(data) - 100
    for case in (data, data[:near_end] + b"\xff" + data[near_end:],
                 data[:near_end] + b"\xe2\x82" + data[near_end:]):
        assert_same(outcome(load_table, case), outcome(naive_load_table, case))


BLOCK = io.DEFAULT_BUFFER_SIZE
HEADER = b"x,c,__true__,__pred__"


def rows_ending_at(ends, term: bytes) -> bytes:
    """CSV bytes whose rows end in ``term``; one row's terminator starts at
    each offset of ``ends``, which a padded category cell puts there."""
    data = HEADER + term
    for i, end in enumerate(ends):
        head, tail = b"%d," % i, b",a,b"
        data += head + b"p" * (end - len(data) - len(head) - len(tail)) + tail + term
    return data + b"9,q,b,a" + term


@pytest.mark.parametrize("term", [b"\n", b"\r\n", b"\r"])
@pytest.mark.parametrize("shift", [-2, -1, 0, 1])
def test_line_breaks_across_read_blocks_match_the_whole_text_loader(term, shift):
    # At shift 0 the terminator starts on the last byte of a block, so a
    # "\r\n" has its "\r" in one block and its "\n" in the next.  The row
    # that ends in block 4 starts in block 2, so block 3 has no line break.
    data = rows_ending_at([e * BLOCK - 1 + shift for e in (1, 2, 4)], term)
    expected = naive_load_table(data)
    assert expected.n == 4
    assert_same(load_table(data), expected)


@pytest.mark.parametrize("insert", [b"\xff", b"\xe2\x82"])
@pytest.mark.parametrize("at", range(BLOCK - 3, BLOCK + 3))
def test_a_bad_byte_in_a_quoted_two_line_field_near_a_block_end(insert, at):
    # The bad bytes start at offset ``at``, right after the line break inside
    # the quoted field.
    head = HEADER + b'\n0,a,a,b\n1,"'
    data = head + b"p" * (at - len(head) - 1) + b"\n" + insert + b'two",b,a\n2,c,b,a\n'
    assert data.index(insert) == at
    expected = outcome(naive_load_table, data)
    assert str(expected) == "row 2: text is not valid UTF-8"
    assert_same(outcome(load_table, data), expected)


@pytest.mark.parametrize("cell", [b'"' + b"w\r\n" * (5 * BLOCK) + b'"', b"w" * (12 * BLOCK),
                                  b"w" * (20 * BLOCK)])
def test_a_record_longer_than_many_read_blocks_matches_the_whole_text_loader(cell):
    # The 20-block cell is past the field limit: both loads name row 1.
    data = HEADER + b"\n0," + cell + b",a,b\r\n1,v,b,a\n"
    assert_same(outcome(load_table, data), outcome(naive_load_table, data))


def test_a_byte_order_mark_is_not_part_of_the_first_column_name():
    # Spreadsheet programs save UTF-8 CSVs with a leading byte-order mark.
    data = HEADER + b"\n0.5,\xc3\xa9,a,b\n1,v,b,a\n"
    expected = load_table(data)
    for source in (codecs.BOM_UTF8 + data, io.BytesIO(codecs.BOM_UTF8 + data)):
        assert_same(load_table(source), expected)
    # Only one mark goes: a second is text.
    twice = load_table(codecs.BOM_UTF8 * 2 + data)
    assert twice.schema.names == ("\ufeffx", "c")
    # A cut mark is invalid UTF-8, and a mark alone leaves an empty file.
    for cut in (b"\xef", b"\xef\xbb"):
        with pytest.raises(DataFormatError, match="^header is not valid UTF-8$"):
            load_table(cut)
    with pytest.raises(DataFormatError, match="^empty file: no header$"):
        load_table(codecs.BOM_UTF8)


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
# load peaks at 1.3x (one chunk of cells next to the finished arrays).  The
# streamed write peaked at 0.28x with csv.writer's row loop and peaks at
# 0.17x with 2,048-row chunks of cell text; at 8,192 rows it was 0.65x.
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
    # A failing load stops at its error in the one pass a valid load makes.  A
    # second pass that held the whole text and every record to find the
    # error's row peaked at 3.6x the valid load.
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


def test_a_load_reads_its_source_once_even_when_it_fails(tmp_path, monkeypatch):
    # A bad byte or an oversized field in the last row of a multi-chunk file:
    # the load reads up to the error once, and at most one block past it.
    path = tmp_path / "valid.csv"
    write_csv(baseline_table(20_000), path)
    data = path.read_bytes()
    last = data.rstrip(b"\n").rfind(b"\n") + 1
    opened = []

    class CountingFile(io.FileIO):
        delivered = 0

        def read(self, size=-1):
            data = super().read(size)
            self.delivered += len(data)
            return data

        def readinto(self, buffer):
            size = super().readinto(buffer)
            self.delivered += size
            return size

    def counting_open(file, mode="r"):
        assert mode == "rb"
        opened.append(CountingFile(file, "r"))
        return opened[-1]

    monkeypatch.setattr(dataset, "open", counting_open, raising=False)
    bad = tmp_path / "bad.csv"
    for insert, error in ((b"\xff", "text is not valid UTF-8"),
                          (OVERSIZED.encode(), r"field larger than field limit \(131072\)")):
        bad.write_bytes(data[:last] + insert + data[last:])
        opened.clear()
        with pytest.raises(DataFormatError, match=f"^row 20000: {error}$"):
            load_table(bad)
        assert len(opened) == 1
        assert opened[0].delivered <= bad.stat().st_size + io.DEFAULT_BUFFER_SIZE, error
