"""Tabular prediction data: feature schema, prediction tables, row subsets.

A :class:`PredictionTable` couples feature columns with true labels, predicted
labels and optional per-class scores.  It is the only view the rest of the
package has of the classifier under inspection, which is what keeps every
downstream computation model-agnostic: any model that can be run over a
dataset once can be explained.

CSV layout
----------
Tables round-trip through a fixed CSV layout: one header row, the feature
columns in schema order, then ``__true__`` and ``__pred__`` holding class
labels, then optionally one ``__score_<class>`` column per class, in class-set
order.  Files are UTF-8 with ``.`` as the decimal separator; a pass over a
file decodes each byte once and drops one leading byte-order mark.  Missing
cells are rejected at load time; there is no imputation.

Loads stream in chunks of ``_CHUNK_ROWS`` records and writes in chunks of
``_WRITE_ROWS`` rows, so peak memory stays near the size of the finished
arrays.  A write makes each distinct cell's text once and writes each chunk
in one call.  A load reads the source once, unless an inferred column turns
out to hold text only after its first chunk; it then reads the source again
with that column categorical.  Any error, invalid UTF-8 included, is found
in the pass that reads the records.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

# perfbench/launcher.py wraps perfex.dataset.atomic_write_text by name.
from ._files import atomic_open, atomic_write_text  # noqa: F401
from .errors import DataFormatError, EmptyTableError, UnknownClassError

NUMERIC = "numeric"
BINARY = "binary"
CATEGORICAL = "categorical"
FEATURE_KINDS = (NUMERIC, BINARY, CATEGORICAL)

TRUE_COLUMN = "__true__"
PRED_COLUMN = "__pred__"
SCORE_PREFIX = "__score_"

SCORE_SUM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class Feature:
    """One feature column: a name, a kind, and (if categorical) its categories."""

    name: str
    kind: str
    categories: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in FEATURE_KINDS:
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if self.kind == CATEGORICAL:
            if not self.categories:
                raise ValueError(f"categorical feature {self.name!r} needs categories")
            if len(set(self.categories)) != len(self.categories):
                raise ValueError(f"duplicate categories on feature {self.name!r}")
            if any(not c for c in self.categories):
                raise ValueError(f"empty category on feature {self.name!r}")
        elif self.categories:
            raise ValueError(f"categories given for non-categorical feature {self.name!r}")


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered collection of features describing the columns of a table."""

    features: tuple[Feature, ...]

    def __post_init__(self):
        if not self.features:
            raise ValueError("schema needs at least one feature")
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise ValueError("duplicate feature names in schema")
        if TRUE_COLUMN in names:  # the CSV layout finds the label columns by this name
            raise ValueError(f"feature name {TRUE_COLUMN!r} is reserved")
        object.__setattr__(self, "features", tuple(self.features))

    @property
    def m(self) -> int:
        return len(self.features)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)


@dataclass(frozen=True)
class ClassSet:
    """Ordered set of class labels.  Order is significant: score columns,
    score matrices and weighted metrics all follow it."""

    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) < 2:
            raise ValueError("need at least two classes")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate class labels")
        if any(not lbl for lbl in self.labels):
            raise ValueError("empty class label")

    @property
    def k(self) -> int:
        return len(self.labels)


class _Labels:
    """A column of labels or categories, gathered chunk by chunk as int32
    codes into ``index``, which keys the distinct values in order of first
    appearance."""

    def __init__(self, cells=()):
        self.index: dict = {}
        self.chunks: list[np.ndarray] = []
        self.add(cells)

    def add(self, cells) -> None:
        index = self.index
        for v in dict.fromkeys(cells):
            index.setdefault(v, len(index))
        self.chunks.append(np.fromiter(map(index.__getitem__, cells), np.int32, len(cells)))

    def __len__(self) -> int:
        return sum(chunk.size for chunk in self.chunks)

    def codes(self) -> np.ndarray:
        if len(self.chunks) > 1:
            self.chunks = [np.concatenate(self.chunks)]
        return self.chunks[0]

    def first_row(self, value) -> int:
        """1-based row where ``value`` first appears."""
        return int(np.argmax(self.codes() == self.index[value])) + 1


def _codes(values, names, error, message) -> np.ndarray:
    """Index of each value in ``names`` as int32; the first value missing from
    ``names`` raises ``error(message(value))`` naming its 1-based row."""
    labels = values if isinstance(values, _Labels) else _Labels(values)
    lookup = {name: i for i, name in enumerate(names)}
    for v in labels.index:
        if v not in lookup:
            raise error(message(v), row=labels.first_row(v))
    return np.array([lookup[v] for v in labels.index], np.int32)[labels.codes()]


class PredictionTable:
    """Immutable table of features, true labels, predicted labels and scores.

    Feature columns are stored as numpy arrays: float64 for numeric and binary
    features, int32 category codes (indices into the feature's category tuple)
    for categorical ones.  Labels are stored as int32 codes into the class
    set.  All arrays are marked read-only, so tables can be shared freely
    between threads.

    Float columns and the score matrix are copied from what the caller
    passes, unless ``copy`` is false: then float64 arrays are kept as they
    are and marked read-only, for a caller that hands over arrays it has just
    made and will not write to again.
    """

    def __init__(
        self,
        schema: FeatureSchema,
        classes: ClassSet,
        columns,
        y_true,
        y_pred,
        scores=None,
        *,
        scores_are_probabilities: bool = True,
        copy: bool = True,
    ):
        self.schema = schema
        self.classes = classes
        if len(columns) != schema.m:
            raise DataFormatError(
                f"expected {schema.m} feature columns, got {len(columns)}"
            )
        n = len(y_true)
        if len(y_pred) != n:
            raise DataFormatError("__true__ and __pred__ lengths differ")

        as_floats = np.array if copy else np.asarray
        encoded = []
        for j, feature in enumerate(schema.features):
            col = columns[j]
            if len(col) != n:
                raise DataFormatError(f"feature {feature.name!r} has wrong length")
            if feature.kind == CATEGORICAL:
                arr = _codes(
                    col,
                    feature.categories,
                    DataFormatError,
                    lambda v: f"value {v!r} is not a category of {feature.name!r}",
                )
            else:
                arr = as_floats(col, dtype=np.float64)
                if arr.ndim != 1:
                    raise DataFormatError(f"feature {feature.name!r} is not 1-D")
                bad = ~np.isfinite(arr)
                if bad.any():
                    raise DataFormatError(
                        f"non-finite value in feature {feature.name!r}",
                        row=int(np.flatnonzero(bad)[0]) + 1,
                    )
                if feature.kind == BINARY:
                    off = (arr != 0.0) & (arr != 1.0)
                    if off.any():
                        raise DataFormatError(
                            f"binary feature {feature.name!r} has a value outside {{0, 1}}",
                            row=int(np.flatnonzero(off)[0]) + 1,
                        )
            encoded.append(arr)

        y = _codes(
            y_true, classes.labels, UnknownClassError,
            lambda v: f"label {v!r} in {TRUE_COLUMN} is not in the class set",
        )
        pred = _codes(
            y_pred, classes.labels, UnknownClassError,
            lambda v: f"label {v!r} in {PRED_COLUMN} is not in the class set",
        )

        self.scores_are_probabilities = bool(scores_are_probabilities)
        sc = None
        if scores is not None:
            sc = as_floats(scores, dtype=np.float64)
            if sc.shape != (n, classes.k):
                raise DataFormatError(
                    f"score matrix must have shape ({n}, {classes.k}), got {sc.shape}"
                )
            bad = ~np.isfinite(sc).all(axis=1)
            if bad.any():
                raise DataFormatError("non-finite score value", row=int(np.flatnonzero(bad)[0]) + 1)
            bad = ((sc < 0.0) | (sc > 1.0)).any(axis=1)
            if bad.any():
                raise DataFormatError("score outside [0, 1]", row=int(np.flatnonzero(bad)[0]) + 1)
            if self.scores_are_probabilities and n > 0:
                sums = sc.sum(axis=1)
                off = np.abs(sums - 1.0) > SCORE_SUM_TOLERANCE
                if off.any():
                    raise DataFormatError(
                        "score row does not sum to 1",
                        row=int(np.flatnonzero(off)[0]) + 1,
                    )
        self._set_arrays(encoded, y, pred, sc)

    def _set_arrays(self, columns, y, pred, scores) -> None:
        """Store freshly made arrays read-only and derive ``correct`` from
        the label codes."""
        self._columns = tuple(columns)
        self._y, self._pred, self._scores = y, pred, scores
        self._correct = y == pred
        for arr in (*columns, y, pred, scores, self._correct):
            if arr is not None:
                arr.flags.writeable = False

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return self._y.shape[0]

    @property
    def m(self) -> int:
        return self.schema.m

    @property
    def y_codes(self) -> np.ndarray:
        return self._y

    @property
    def pred_codes(self) -> np.ndarray:
        return self._pred

    @property
    def scores(self) -> np.ndarray | None:
        return self._scores

    @property
    def correct(self) -> np.ndarray:
        """Boolean array: predicted label equals true label."""
        return self._correct

    def column(self, j: int) -> np.ndarray:
        """Raw stored column ``j``: floats, or category codes if categorical."""
        return self._columns[j]

    def y_labels(self) -> list[str]:
        return [self.classes.labels[c] for c in self._y]

    def pred_labels(self) -> list[str]:
        return [self.classes.labels[c] for c in self._pred]

    def full_view(self) -> "SubsetView":
        return SubsetView(self, np.arange(self.n, dtype=np.int64))

    def subset(self, indices) -> "PredictionTable":
        """New table holding the given rows (ascending positional indices)."""
        idx = np.asarray(indices, dtype=np.int64)
        out = object.__new__(PredictionTable)
        out.schema = self.schema
        out.classes = self.classes
        out.scores_are_probabilities = self.scores_are_probabilities
        out._set_arrays(
            [arr[idx] for arr in self._columns],
            self._y[idx],
            self._pred[idx],
            None if self._scores is None else self._scores[idx],
        )
        return out


@dataclass(frozen=True, eq=False)
class SubsetView:
    """A strictly increasing selection of rows from one table.

    Views are cheap (one index array) and immutable; splitting a view yields
    two views over the same underlying table.  ``presorted`` is the split
    search's state for these rows, set on the nodes of a growing tree (see
    :func:`perfex.splitter.presort`).
    """

    table: PredictionTable
    indices: np.ndarray
    presorted: object = field(default=None, repr=False)

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError("view indices must be 1-D")
        if idx.size:
            if idx[0] < 0 or idx[-1] >= self.table.n:
                raise ValueError("view index out of range")
            if idx.size > 1 and not (np.diff(idx) > 0).all():
                raise ValueError("view indices must be strictly increasing")
        if idx.flags.writeable:
            idx = idx.copy()
            idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return int(self.indices.size)

    def column(self, j: int) -> np.ndarray:
        return self.table.column(j)[self.indices]


# -- CSV loading ----------------------------------------------------------

# Records per chunk of a load, which holds the strings of one chunk at a time.
_CHUNK_ROWS = 8192


def _first_bad_cell(cells, first_row: int, column: str) -> DataFormatError:
    """The error for the first cell of a chunk that is empty, not a number or
    not finite; the chunk holds one."""
    for row, cell in enumerate(cells, first_row):
        if cell == "":
            return DataFormatError(f"missing value in column {column!r}", row=row)
        try:
            value = float(cell)
        except ValueError:
            return DataFormatError(
                f"cannot parse {cell!r} in column {column!r} as a number", row=row
            )
        if not math.isfinite(value):
            return DataFormatError(f"non-finite value in column {column!r}", row=row)
    raise AssertionError("the chunk has no bad cell")


def _lines(handle, invalid: list):
    """Binary ``handle`` as lines of text split as ``newline=""`` splits them,
    each byte decoded once, less one leading byte-order mark.  The text ends
    at the first invalid UTF-8 byte, in U+FFFD, and ``invalid`` gets an entry."""
    decode = codecs.getincrementaldecoder("utf-8")().decode
    held, block, first = [""], True, True
    while block:
        block = handle.read(io.DEFAULT_BUFFER_SIZE)
        try:
            text = decode(block, not block)
        except UnicodeDecodeError as exc:
            text, block = exc.object[: exc.start].decode("utf-8") + "\ufffd", b""
            invalid.append(exc)
        if first:
            text, first = text.removeprefix("\ufeff"), False
        if block and "\n" not in text and "\r" not in text and not held[-1].endswith("\r"):
            held.append(text)
            continue
        head = "".join(held)  # an unfinished line: only its last "\r" may pair with a "\n"
        lines = io.StringIO(head[-1:] + text, newline="").readlines()
        if head:
            lines[0] = head[:-1] + lines[0]
        held = [lines.pop()] if block and not lines[-1].endswith("\n") else [""]
        yield from lines


def _read_header(header: list[str], classes: ClassSet | None):
    """Check the header; return the position of ``__true__`` and the class
    set, which the score columns define when there are any."""
    if TRUE_COLUMN not in header:
        raise DataFormatError(f"header has no {TRUE_COLUMN} column")
    true_at = header.index(TRUE_COLUMN)
    feature_names = header[:true_at]
    if not feature_names:
        raise DataFormatError("no feature columns before the label columns")
    if len(header) <= true_at + 1 or header[true_at + 1] != PRED_COLUMN:
        raise DataFormatError(f"{PRED_COLUMN} must immediately follow {TRUE_COLUMN}")
    score_headers = header[true_at + 2 :]
    for h in score_headers:
        if not h.startswith(SCORE_PREFIX):
            raise DataFormatError(f"unexpected trailing column {h!r}")
    for names in (feature_names, score_headers):
        if len(set(names)) < len(names):
            dup = next(h for i, h in enumerate(names) if h in names[:i])
            raise DataFormatError(f"duplicate column {dup!r}")
    if len(score_headers) == 1:
        raise DataFormatError(f"one score column {score_headers[0]!r}; need one per class")
    if SCORE_PREFIX in score_headers:
        raise DataFormatError(f"score column {SCORE_PREFIX!r} names no class")
    if score_headers:
        declared = ClassSet(tuple(h[len(SCORE_PREFIX) :] for h in score_headers))
        if classes is not None and classes != declared:
            raise DataFormatError("declared classes do not match score columns")
        classes = declared
    return true_at, classes


def _read(handle, schema, classes, categorical: set[int], scores_are_probabilities):
    """One pass over the CSV records of binary ``handle``, decoded once by
    :func:`_lines`, chunk by chunk, straight into typed columns.  Returns the
    table, or the inferred feature columns found to hold text only after
    their first chunk: the caller reads again with those in ``categorical``.

    The pass ends at the first byte that is not valid UTF-8.  A record the
    ``csv`` module rejects raises at once; any other error waits for the end
    of the pass, where invalid UTF-8 comes first, then the header."""
    invalid: list = []
    records = csv.reader(_lines(handle, invalid))
    try:
        header = next(records, None)
    except csv.Error as exc:
        raise DataFormatError(f"header: {exc}") from None
    if header is None:
        raise DataFormatError("empty file: no header")
    header_error = None
    try:
        true_at, classes = _read_header(header, classes)
    except DataFormatError as exc:
        header_error, true_at = exc, 0
    feature_names = header[:true_at]
    mismatch = schema is not None and schema.names != tuple(feature_names)
    declared = schema.features if schema is not None else ()
    text_columns = {j for j, f in enumerate(declared) if f.kind == CATEGORICAL}
    text_columns |= categorical | {true_at, true_at + 1}
    labels = {j: _Labels() for j in text_columns}
    numbers = {j: [] for j in range(len(header)) if j not in text_columns}
    errors: dict[int, DataFormatError] = {}  # the first bad cell of each number column
    width, n, width_error, late = len(header), 0, None, set()

    while True:
        chunk = []
        try:
            chunk.extend(itertools.islice(records, _CHUNK_ROWS))
        except csv.Error as exc:
            raise DataFormatError(str(exc), row=n + len(chunk) + 1) from None
        if not chunk:
            break
        if width_error is None and set(map(len, chunk)) != {width}:
            i = next(i for i, record in enumerate(chunk) if len(record) != width)
            width_error = DataFormatError(
                f"expected {width} cells, got {len(chunk[i])}", row=n + i + 1
            )
        if width_error is None and header_error is None and not mismatch:
            for j, cells in enumerate(zip(*chunk)):
                if j in labels:
                    labels[j].add(cells)
                    continue
                try:
                    values = np.fromiter(map(float, cells), np.float64, len(cells))
                except ValueError:
                    if schema is None and j < true_at:  # an inferred feature: categorical
                        if n:
                            late.add(j)
                        else:
                            del numbers[j]
                            labels[j] = _Labels(cells)
                        continue
                    values = None
                if values is None or not np.isfinite(values).all():
                    if j not in errors:
                        errors[j] = _first_bad_cell(cells, n + 1, header[j])
                else:
                    numbers[j].append(values)
            if late:
                return late
        n += len(chunk)

    if invalid:
        raise DataFormatError(f"{'text' if n else 'header'} is not valid UTF-8", row=n or None)
    if header_error is not None:
        raise header_error
    if n == 0:
        raise EmptyTableError("table has no data rows")
    if width_error is not None:
        raise width_error
    if mismatch:
        raise DataFormatError("schema feature names do not match the CSV header")
    for j in range(width):
        if j in errors:
            raise errors[j]
        if j in labels and "" in labels[j].index:
            raise DataFormatError(
                f"missing value in column {header[j]!r}", row=labels[j].first_row("")
            )
    y_true, y_pred = labels[true_at], labels[true_at + 1]
    if classes is None:  # so there are no score columns
        found = sorted(y_true.index.keys() | y_pred.index.keys())
        if len(found) < 2:
            raise DataFormatError(f"{TRUE_COLUMN} and {PRED_COLUMN} hold one class only")
        classes = ClassSet(tuple(found))

    columns = [labels[j] if j in labels else np.concatenate(numbers.pop(j)) for j in range(true_at)]
    # Inference rule: a column with any cell float() rejects is categorical;
    # one whose values all sit in {0, 1} is binary; everything else is
    # numeric.  "nan" and "inf" count as numbers, so a non-finite cell is
    # rejected with its row rather than read as a category.
    if schema is None:
        schema = FeatureSchema(tuple(
            Feature(name, CATEGORICAL, tuple(sorted(col.index))) if j in labels
            else Feature(name, BINARY if ((col == 0.0) | (col == 1.0)).all() else NUMERIC)
            for j, (name, col) in enumerate(zip(feature_names, columns))
        ))
    scores = None
    if width > true_at + 2:
        scores = np.empty((n, width - true_at - 2))
        for i, j in enumerate(range(true_at + 2, width)):
            np.concatenate(numbers.pop(j), out=scores[:, i])
    return PredictionTable(
        schema,
        classes,
        columns,
        y_true,
        y_pred,
        scores,
        scores_are_probabilities=scores_are_probabilities,
        copy=False,
    )


def load_table(
    source,
    schema: FeatureSchema | None = None,
    classes: ClassSet | None = None,
    *,
    scores_are_probabilities: bool = True,
) -> PredictionTable:
    """Load a prediction table from CSV.

    The file is read once, ``_CHUNK_ROWS`` records at a time, decoding each
    byte once as UTF-8; one leading byte-order mark is dropped.  Each chunk
    goes straight into typed arrays, so peak memory stays near the size of
    the finished table.  A column whose kind is inferred and that turns out
    to hold text only after its first chunk makes the load read the source
    again, with that column categorical.

    Parameters
    ----------
    source:
        A filesystem path, ``bytes``, or a readable file object.  A file
        object, or a path that is not a regular file (a pipe), is read whole
        first, since it cannot be read twice.
    schema:
        Optional schema.  When omitted, feature kinds are inferred from the
        data: all-numeric columns with values inside {0, 1} become binary,
        columns with non-numeric cells become categorical (categories sorted),
        the rest numeric.
    classes:
        Optional declared class set.  When score columns are present their
        order defines the class set and ``classes``, if also given, must
        agree.  With neither, classes are the sorted distinct labels seen in
        ``__true__`` and ``__pred__``.

    Raises
    ------
    DataFormatError
        On any malformed content; the offending 1-based data row is named
        where applicable.  A record the ``csv`` module rejects comes first,
        then invalid UTF-8, then the header.  After every row's width is
        checked, cells are checked column by column, left to right, so the
        error names the first bad cell of the first bad column.  An empty
        table is an error.
    UnknownClassError
        When a label is not in the declared class set.
    """
    if isinstance(source, (str, Path)) and os.path.isfile(source):
        handle = open(source, "rb")
    else:
        if isinstance(source, (str, Path)):  # a pipe, say: it cannot be read twice
            with open(source, "rb") as fh:
                data = fh.read()
        elif isinstance(source, (bytes, bytearray)):
            data = bytes(source)
        else:
            data = source.read()
            if isinstance(data, str):
                data = data.encode("utf-8")
        handle = io.BytesIO(data)

    categorical: set[int] = set()
    with handle:
        while True:
            handle.seek(0)
            read = _read(handle, schema, classes, categorical, scores_are_probabilities)
            if isinstance(read, PredictionTable):
                return read
            categorical |= read


# -- CSV writing ----------------------------------------------------------

# Rows per chunk of a write, which holds the cell text of one chunk at a time.
_WRITE_ROWS = 2048


def _write_rows(table: PredictionTable, handle) -> None:
    """Write ``table`` as CSV text to ``handle``, ``_WRITE_ROWS`` rows at a
    time, each chunk in one call.  Each distinct cell's text is made once:
    the header and each label and category per table, quoted by
    ``csv.writer`` itself; each distinct float per chunk, by ``repr``, the
    shortest text that reads back exactly, as ``csv.writer`` writes a float."""
    def text(names, codes):
        return list(map(names.__getitem__, codes.tolist()))

    def quoted(names):
        # Each name is the second field of a two-field record, since
        # csv.writer writes a record of one empty field as '""'.
        records: list[str] = []
        writer = csv.writer(SimpleNamespace(write=records.append), lineterminator="\n")
        writer.writerows(("", name) for name in names)
        return [record[1:-1] for record in records]

    def numbers(column):
        # Keyed by bits, so -0.0 and 0.0 keep their own text.
        bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
        if bits.size == column.size:
            return list(map(repr, column.tolist()))
        return text(list(map(repr, bits.view(np.float64).tolist())), inverse)

    header = list(table.schema.names) + [TRUE_COLUMN, PRED_COLUMN]
    if table.scores is not None:
        header += [SCORE_PREFIX + lbl for lbl in table.classes.labels]
    handle.write(",".join(quoted(header)) + "\n")
    categories = {j: quoted(f.categories) for j, f in enumerate(table.schema.features)
                  if f.kind == CATEGORICAL}
    labels = quoted(table.classes.labels)
    for start in range(0, table.n, _WRITE_ROWS):
        rows = slice(start, start + _WRITE_ROWS)
        columns = [
            text(categories[j], table.column(j)[rows]) if j in categories
            else numbers(table.column(j)[rows])
            for j in range(table.m)
        ]
        columns += [text(labels, table.y_codes[rows]), text(labels, table.pred_codes[rows])]
        if table.scores is not None:
            columns += map(numbers, table.scores[rows].T)
        handle.write("\n".join(map(",".join, zip(*columns))) + "\n")


def write_csv(table: PredictionTable, path) -> None:
    """Serialize ``table`` to CSV at ``path`` (atomic write, streamed)."""
    with atomic_open(path) as handle:
        _write_rows(table, handle)


# -- stratified splitting -------------------------------------------------


def stratified_split_indices(y_codes, k: int, fractions, seed) -> list[np.ndarray]:
    """Partition row positions into parts with class proportions preserved.

    Within each class, rows are shuffled with a generator seeded from
    ``seed`` and dealt to the parts by cumulative fraction; each part's
    indices are returned in ascending order.  Fractions must sum to 1.
    """
    fracs = [float(f) for f in fractions]
    if len(fracs) < 2:
        raise ValueError("need at least two fractions")
    if not (all(f >= 0 for f in fracs) and abs(sum(fracs) - 1.0) <= 1e-9):  # NaN fails too
        raise ValueError("fractions must be non-negative and sum to 1")
    y = np.asarray(y_codes)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    parts: list[list[np.ndarray]] = [[] for _ in fracs]
    for c in range(k):
        pool = np.flatnonzero(y == c)
        rng.shuffle(pool)
        bounds = [int(round(sum(fracs[: i + 1]) * pool.size)) for i in range(len(fracs))]
        start = 0
        for p, stop in enumerate(bounds):
            parts[p].append(pool[start:stop])
            start = stop
    return [np.sort(np.concatenate(chunks)) if chunks else np.empty(0, np.int64) for chunks in parts]


def stratified_split(table: PredictionTable, fractions, seed) -> list[PredictionTable]:
    """Split a table into stratified parts (for example 0.5/0.25/0.25)."""
    parts = stratified_split_indices(table.y_codes, table.classes.k, fractions, seed)
    return [table.subset(idx) for idx in parts]
