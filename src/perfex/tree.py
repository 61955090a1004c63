"""Meta trees: recursive metric-gap partitioning of a prediction table.

A node splits its rows on the condition found by the split search; growth
stops at ``max_depth``, when no feasible split exists, or when the best gap
falls below ``min_beta``.  A leaf records its row count and the metric value
on its rows, not the rows (``assign`` routes them), so a built tree holds what
its file holds.  A leaf's path is its ``(SplitCandidate, goes_left)`` steps
from the root, and the tree file keys each split by those fields.

The minimum per-side support comes from a binomial proportion confidence
interval: a proportion estimate ``e`` on ``n`` rows has half-width
``z * sqrt(e(1-e)/n)``, and since ``e(1-e) <= 1/4`` a half-width of ``D/2``
(total interval width ``D``) is guaranteed once ``n >= z^2 / D^2``.

Growth, serialization and reading recurse once per level, so a build whose
tree would pass depth ``_MAX_GROWTH_DEPTH`` stops with a :class:`PerfexError`
instead of exhausting the interpreter's stack.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple, Union

import numpy as np

from .dataset import ClassSet, FeatureSchema, PredictionTable
from .errors import (
    EmptyTableError,
    PerfexError,
    SchemaMismatchError,
    TreeFormatError,
    UndefinedMetricError,
)
# perfbench/launcher.py wraps perfex.tree.evaluate by name.
from .metrics import MetricSpec, MetricValue, evaluate, parse_metric  # noqa: F401
from .splitter import SearchConfig, SplitCandidate, best_split, partition, presort

FORMAT_VERSION = 1
TOO_DEEP = "tree is nested too deeply"
_MAX_GROWTH_DEPTH = 512


class MinSamples(NamedTuple):
    exact: float
    required: int


def min_samples(confidence_z: float, interval_width: float) -> MinSamples:
    """Rows needed so a proportion's CI is no wider than ``interval_width``.

    Returns the exact real bound ``z^2 / D^2`` (worst case at e = 1/2) and
    the first integer row count that satisfies it.
    """
    if not 0 < confidence_z < math.inf:
        raise ValueError(f"confidence_z must be positive and finite, got {confidence_z!r}")
    if not 0 < interval_width <= 1:
        raise ValueError(f"interval_width must be in (0, 1], got {interval_width!r}")
    try:
        exact = (confidence_z * confidence_z) / (interval_width * interval_width)
        return MinSamples(exact, int(math.ceil(exact)))
    except (OverflowError, ZeroDivisionError):
        raise ValueError(
            f"confidence_z {confidence_z!r} and interval_width {interval_width!r} "
            "give a row count too large to represent"
        ) from None


@dataclass(frozen=True)
class StoppingRule:
    """When tree growth stops.

    ``confidence_z`` and ``max_interval_width`` set the per-side minimum
    metric support via :func:`min_samples`; set both to 1.0 to disable that
    floor (the minimum becomes a single row).
    """

    max_depth: int = 6
    min_beta: float = 0.05
    confidence_z: float = 1.96
    max_interval_width: float = 0.1

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if not 0 <= self.min_beta < math.inf:
            raise ValueError(f"min_beta must be non-negative and finite, got {self.min_beta!r}")
        min_samples(self.confidence_z, self.max_interval_width)

    @property
    def min_support(self) -> int:
        return min_samples(self.confidence_z, self.max_interval_width).required


@dataclass(frozen=True, eq=False)
class Leaf:
    leaf_id: int
    size: int
    metric: MetricValue


@dataclass(frozen=True, eq=False)
class Internal:
    candidate: SplitCandidate
    left: "Node"
    right: "Node"


Node = Union[Leaf, Internal]


@dataclass(frozen=True)
class LeafStats:
    """A leaf and its root-to-leaf path of ``(split, goes_left)`` steps."""

    leaf_id: int
    size: int
    metric: MetricValue
    path: tuple[tuple[SplitCandidate, bool], ...]


def schema_fingerprint(schema: FeatureSchema, classes: ClassSet) -> str:
    doc = {
        "features": [
            {"name": f.name, "kind": f.kind, "categories": list(f.categories)}
            for f in schema.features
        ],
        "classes": list(classes.labels),
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True, eq=False)
class MetaTree:
    root: Node
    metric: MetricSpec
    stopping: StoppingRule
    alpha: int
    schema_fingerprint: str
    n_build: int

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_stats())

    def depth(self) -> int:
        return max(len(stats.path) for stats in self.leaf_stats())

    def leaf_stats(self) -> list[LeafStats]:
        """Each leaf with its root-to-leaf path, in depth-first pre-order,
        which is leaf-id order."""
        out = []
        stack: list[tuple[Node, tuple[tuple[SplitCandidate, bool], ...]]] = [(self.root, ())]
        while stack:
            node, path = stack.pop()
            if isinstance(node, Leaf):
                out.append(LeafStats(node.leaf_id, node.size, node.metric, path))
            else:
                stack.append((node.right, path + ((node.candidate, False),)))
                stack.append((node.left, path + ((node.candidate, True),)))
        return out

    @classmethod
    def from_json(cls, text: str | bytes) -> "MetaTree":
        return deserialize_tree(text)


def build_tree(
    table: PredictionTable,
    metric: MetricSpec,
    stopping: StoppingRule | None = None,
    alpha: int = SearchConfig.alpha,
    *,
    max_thresholds: int | None = None,
) -> MetaTree:
    """Grow a meta tree on ``table`` for ``metric``.

    Growth is greedy and recursive: each node takes the feasible split with
    the largest metric gap, left side first.  Leaf ids are assigned in
    depth-first pre-order.  Raises :class:`UndefinedMetricError` when the
    metric is undefined on the whole table, :class:`EmptyTableError` on an
    empty one and :class:`PerfexError` when a split would pass ``_MAX_GROWTH_DEPTH``.
    """
    stopping = stopping or StoppingRule()
    if table.n == 0:
        raise EmptyTableError("cannot build a tree on an empty table")
    if table.n < alpha:
        raise ValueError(f"table has {table.n} rows, fewer than alpha={alpha}")

    config = SearchConfig(
        alpha=alpha, min_support=stopping.min_support, max_thresholds=max_thresholds
    )
    root_view = presort(table.full_view(), metric)  # the build's one MetricStats
    stat, codes, _ = root_view.presorted
    root_value = stat.exact(codes, np.zeros(table.n, dtype=np.intp), 1)[0]
    if not root_value.defined:
        raise UndefinedMetricError(
            f"metric {metric.name} is undefined on the whole table"
        )

    ids = itertools.count()

    def grow(view, value: MetricValue, depth: int) -> Node:
        if depth < stopping.max_depth:
            found = best_split(view, metric, config)
            if found is not None and found.beta >= stopping.min_beta:
                if depth >= _MAX_GROWTH_DEPTH:
                    raise PerfexError(f"tree would grow past depth {depth}, the deepest tree "
                                      f"perfex builds; set --max-depth to {depth} or less")
                left, right = found.left, found.right
                if depth + 1 < stopping.max_depth:  # the children are searched
                    left, right = partition(view, found)
                left = grow(left, found.e_left, depth + 1)
                right = grow(right, found.e_right, depth + 1)
                return Internal(found.candidate, left, right)
        return Leaf(next(ids), len(view), value)

    return MetaTree(
        root=grow(root_view, root_value, 0),
        metric=metric,
        stopping=stopping,
        alpha=alpha,
        schema_fingerprint=schema_fingerprint(table.schema, table.classes),
        n_build=table.n,
    )


def assign(tree: MetaTree, table: PredictionTable) -> np.ndarray:
    """Route every row of ``table`` to a leaf; returns the leaf id per row.

    The table must carry the same schema and classes the tree was built on
    (checked via the stored fingerprint), and every split must fit its
    feature, else :class:`TreeFormatError` names the first node that does
    not.  Rows exactly at a numeric threshold go left.
    """
    if schema_fingerprint(table.schema, table.classes) != tree.schema_fingerprint:
        raise SchemaMismatchError("table schema does not match the tree")
    features = table.schema.features
    out = np.empty(table.n, dtype=np.int64)
    # Depth-first pre-order, so the first node that does not fit is named.
    stack: list[tuple[Node, np.ndarray, str]] = [(tree.root, np.arange(table.n), "root")]
    while stack:
        node, idx, where = stack.pop()
        if isinstance(node, Leaf):
            out[idx] = node.leaf_id
            continue
        c = node.candidate
        check_split(c, features, where)
        mask = c.left_mask(table.column(c.feature)[idx], features[c.feature])
        stack.append((node.right, idx[~mask], where + ".right"))
        stack.append((node.left, idx[mask], where + ".left"))
    return out


def check_split(c: SplitCandidate, features, where: str) -> None:
    """Raise :class:`TreeFormatError`, naming ``where``, unless split ``c`` fits
    schema ``features``: its feature exists and :meth:`SplitCandidate.check` passes."""
    if not 0 <= c.feature < len(features):
        raise TreeFormatError(f"feature index {c.feature} out of range in {where}")
    try:
        c.check(features[c.feature])
    except ValueError as exc:
        raise TreeFormatError(f"{exc} in {where}") from None


# -- serialization ----------------------------------------------------------


def _node_to_doc(node: Node) -> dict:
    if isinstance(node, Leaf):
        return {
            "leaf": {
                "id": node.leaf_id,
                "size": node.size,
                "value": node.metric.value,
                "support": node.metric.support,
            }
        }
    return {**asdict(node.candidate), "left": _node_to_doc(node.left),
            "right": _node_to_doc(node.right)}


def serialize_tree(tree: MetaTree) -> str:
    """Canonical JSON for a tree: sorted keys, full float precision."""
    doc = {
        "format_version": FORMAT_VERSION,
        "metric": tree.metric.name,
        "alpha": tree.alpha,
        "stopping": asdict(tree.stopping),
        "schema_fingerprint": tree.schema_fingerprint,
        "n_build": tree.n_build,
        "root": _node_to_doc(tree.root),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _need(doc: dict, key: str, types, where: str):
    """``doc[key]``, one of ``types``; ``float`` reads an int as a float too."""
    if not isinstance(doc, dict) or key not in doc:
        raise TreeFormatError(f"missing {key!r} in {where}")
    v = doc[key]
    if not isinstance(v, (int, float) if types is float else types) or isinstance(v, bool):
        raise TreeFormatError(f"bad type for {key!r} in {where}")
    if types is float:
        # json parses NaN, Infinity and ints of any size: each must be a finite float.
        try:
            v = float(v)
        except OverflowError:
            raise TreeFormatError(f"{key!r} too large for a float in {where}") from None
        if not math.isfinite(v):
            raise TreeFormatError(f"non-finite {key!r} in {where}")
    return v


def _node_from_doc(doc, ids, where: str) -> Node:
    if not isinstance(doc, dict):
        raise TreeFormatError(f"node at {where} is not an object")
    if "leaf" in doc:
        leaf = doc["leaf"]
        size = _need(leaf, "size", int, where)
        value = _need(leaf, "value", float, where)
        support = _need(leaf, "support", int, where)
        if size < 0 or support < 0:
            raise TreeFormatError(f"negative count in {where}")
        return Leaf(next(ids), size, MetricValue(value, support))
    feature = _need(doc, "feature", int, where)
    kind = _need(doc, "kind", str, where)
    if kind not in ("le", "eq"):
        raise TreeFormatError(f"unknown split kind {kind!r} in {where}")
    value = _need(doc, "value", float if kind == "le" else str, where)
    if feature < 0:
        raise TreeFormatError(f"negative feature index in {where}")
    left = _node_from_doc(_need(doc, "left", dict, where), ids, where + ".left")
    right = _node_from_doc(_need(doc, "right", dict, where), ids, where + ".right")
    return Internal(SplitCandidate(feature, kind, value), left, right)


def deserialize_tree(text: str | bytes) -> MetaTree:
    """Parse tree JSON back into a :class:`MetaTree`.

    Leaf ids are reassigned in depth-first pre-order, which reproduces the
    ids the builder gave.  Any structural or type problem raises
    :class:`TreeFormatError`.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # bad JSON or UTF-8, or an int past Python's digit limit
        raise TreeFormatError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise TreeFormatError(TOO_DEEP) from None
    if not isinstance(doc, dict):
        raise TreeFormatError("top level is not an object")
    version = _need(doc, "format_version", int, "document")
    if version != FORMAT_VERSION:
        raise TreeFormatError(f"unsupported format version {version}")
    metric_name = _need(doc, "metric", str, "document")
    try:
        metric = parse_metric(metric_name)
    except ValueError as exc:
        raise TreeFormatError(str(exc)) from None
    alpha = _need(doc, "alpha", int, "document")
    stop_doc = _need(doc, "stopping", dict, "document")
    try:
        stopping = StoppingRule(
            **{f.name: _need(stop_doc, f.name, type(f.default), "stopping")
               for f in fields(StoppingRule)}
        )
    except ValueError as exc:
        raise TreeFormatError(str(exc)) from None
    fingerprint = _need(doc, "schema_fingerprint", str, "document")
    n_build = _need(doc, "n_build", int, "document")
    ids = itertools.count()
    try:
        root = _node_from_doc(_need(doc, "root", dict, "document"), ids, "root")
    except RecursionError:
        raise TreeFormatError(TOO_DEEP) from None
    return MetaTree(
        root=root,
        metric=metric,
        stopping=stopping,
        alpha=alpha,
        schema_fingerprint=fingerprint,
        n_build=n_build,
    )
