"""Command line entry points: ``fit``, ``evaluate``, ``generate``.

Exit codes: 0 on success, 1 on module errors (bad data, bad tree file,
I/O problems, argument values the library rejects; diagnostic on stderr),
2 on argument errors argparse finds.  All output files are written
atomically, and before anything is printed; ``fit`` writes its tree file
last, so a tree file on disk means every other file of that run was written.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from dataclasses import fields
from pathlib import Path
from statistics import NormalDist

from ._files import atomic_write_text
from .dataset import load_table, stratified_split, write_csv
from .errors import PerfexError
from .evaluation import evaluate_tree
from .explain import default_phrase, render, summarize_path
from .metrics import MetricSpec, parse_metric
from .splitter import SearchConfig
from .synth import (
    CartClassifier,
    blob_specs,
    generate_blobs,
    generate_two_gaussian,
    predict_table,
    preset_example2d,
    split_dataset,
    two_gaussian_classifier,
)
from .tree import MetaTree, StoppingRule, build_tree, serialize_tree

PRESETS = ("two-gaussian", "blobs", "example2d")


def _metric_arg(text: str) -> MetricSpec:
    try:
        return parse_metric(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _confidence_arg(text: str) -> float:
    """A two-sided confidence level in (0, 1), as the z of its interval."""
    try:
        p = (1.0 + float(text)) / 2.0  # so a level too close to 0 or 1 for z fails too
        if 0.5 < p < 1.0:
            return NormalDist().inv_cdf(p)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be between 0 and 1, exclusive, got {text!r}")


def _seed_arg(text: str) -> int:
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")


def _out_arg(text: str) -> str:
    """A path whose last part names a file, to write to or derive part paths from."""
    if Path(text).name in ("", ".."):
        raise argparse.ArgumentTypeError(f"must end in a file name, got {text!r}")
    return text


def _split_arg(text: str) -> tuple[float, ...]:
    try:
        shares = [float(p) for p in text.split("/")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad split {text!r}, expected e.g. 50/25/25")
    if len(shares) < 2 or not all(0 < s < math.inf for s in shares):  # NaN fails too
        raise argparse.ArgumentTypeError(f"bad split {text!r}, expected e.g. 50/25/25")
    total = sum(shares)
    if abs(total - 100.0) > 1e-9 and abs(total - 1.0) > 1e-9:
        raise argparse.ArgumentTypeError("split parts must sum to 100 (or 1.0)")
    return tuple(s / total for s in shares)


@contextlib.contextmanager
def _from_arguments():
    """Report a ValueError of an object built from the arguments as a
    PerfexError, so that ``main`` prints it in one line and exits 1."""
    try:
        yield
    except ValueError as exc:
        raise PerfexError(str(exc)) from None


def _refuse_empty(sizes, paths) -> None:
    """Raise, before any ``--split`` part is written, if one has no rows: a
    CSV of a header alone is a table that ``fit`` and ``evaluate`` reject."""
    for size, path in zip(sizes, paths):
        if size == 0:
            raise PerfexError(f"split part {path} would have no rows")


def _part_paths(out: Path, n_parts: int) -> list[Path]:
    if n_parts == 3:
        tags = ["train", "test1", "test2"]
    else:
        tags = [f"part{i + 1}" for i in range(n_parts)]
    return [out.with_name(f"{out.stem}_{tag}{out.suffix or '.csv'}") for tag in tags]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfex",
        description="Explain where a classifier performs well or poorly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="build a tree from a prediction CSV")
    fit.add_argument("--data", required=True, help="prediction CSV to explain")
    fit.add_argument("--metric", type=_metric_arg, default=MetricSpec.accuracy(),
                     help="metric selection string (default: accuracy)")
    fit.add_argument("--alpha", type=int, default=SearchConfig.alpha,
                     help="minimum rows per side of any split (default: %(default)s)")
    fit.add_argument("--max-depth", type=int, default=StoppingRule.max_depth)
    fit.add_argument("--min-beta", type=float, default=StoppingRule.min_beta,
                     help="smallest metric gap worth splitting on (default: %(default)s)")
    level = 2 * NormalDist().cdf(StoppingRule.confidence_z) - 1
    fit.add_argument("--confidence", type=_confidence_arg, default=StoppingRule.confidence_z,
                     dest="confidence_z", metavar="LEVEL", help="two-sided confidence level for "
                     f"the per-leaf interval rule (default: {level:.2f}, i.e. z = %(default)s)")
    fit.add_argument("--interval-width", type=float, default=StoppingRule.max_interval_width,
                     dest="max_interval_width", metavar="INTERVAL_WIDTH",
                     help="largest tolerated confidence interval width (default: %(default)s)")
    fit.add_argument("--max-thresholds", type=int, default=None,
                     help="cap on numeric thresholds per feature "
                          "(default: all values up to 256, then 255 quantiles)")
    fit.add_argument("--out", type=_out_arg, required=True,
                     help="where to write the tree JSON")
    fit.add_argument("--split", type=_split_arg, default=None,
                     help="stratified shares like 60/40: fit on the first part, "
                          "write the others next to --out")
    fit.add_argument("--seed", type=_seed_arg, default=0, help="seed for --split")
    fit.add_argument("--unit-noun", default="datapoints")
    fit.add_argument("--phrase", default=None,
                     help="wording for the metric in explanations")
    fit.add_argument("--explanations-out", type=_out_arg, default=None,
                     help="also write the explanations as JSON")

    ev = sub.add_parser("evaluate", help="compare per-leaf values on two tables")
    ev.add_argument("--tree", required=True)
    ev.add_argument("--build", required=True, help="reference table (tree side)")
    ev.add_argument("--test", required=True, help="held-out table")
    ev.add_argument("--out", type=_out_arg, default=None, help="optional report JSON path")

    gen = sub.add_parser("generate", help="write a synthetic prediction CSV")
    gen.add_argument("--preset", choices=PRESETS, required=True)
    gen.add_argument("--seed", type=_seed_arg, default=0)
    gen.add_argument("--out", type=_out_arg, required=True)
    gen.add_argument("--delta", type=float, default=3.0,
                     help="two-gaussian class-mean shift (default: 3)")
    gen.add_argument("--n", type=int, default=None,
                     help="rows per class (two-gaussian, example2d) "
                          "or in total (blobs)")
    gen.add_argument("--cart-depth", type=int, default=3,
                     help="depth of the built-in tree classifier for blobs")
    gen.add_argument("--split", type=_split_arg, default=None,
                     help="write stratified parts like 50/25/25 instead of one file")
    return parser


def _cmd_fit(args) -> int:
    with _from_arguments():
        stopping = StoppingRule(**{f.name: getattr(args, f.name) for f in fields(StoppingRule)})
    table, held_out = load_table(args.data), []
    if args.split is not None:
        table, *held_out = stratified_split(table, args.split, args.seed)
    out = Path(args.out)
    paths = [out.with_name(f"{out.stem}_holdout{i}.csv") for i in range(1, len(held_out) + 1)]
    _refuse_empty([part.n for part in held_out], paths)
    with _from_arguments():
        tree = build_tree(
            table,
            args.metric,
            stopping,
            alpha=args.alpha,
            max_thresholds=args.max_thresholds,
        )
    phrase = args.phrase if args.phrase is not None else default_phrase(args.metric)
    blocks = []
    docs = []
    for stats in tree.leaf_stats():
        summaries = summarize_path(stats, table.schema)
        blocks.append(
            render(stats, summaries, unit_noun=args.unit_noun, phrase=phrase)
        )
        docs.append(
            {
                "leaf": stats.leaf_id,
                "size": stats.size,
                "conditions": [s.describe() for s in summaries],
                "metric": args.metric.name,
                "value": stats.metric.value,
            }
        )
    for part, path in zip(held_out, paths):  # after the build, so a failed one writes none
        write_csv(part, path)
    if args.explanations_out is not None:
        atomic_write_text(
            args.explanations_out,
            json.dumps(docs, sort_keys=True, separators=(",", ":")) + "\n",
        )
    atomic_write_text(args.out, serialize_tree(tree))
    print("\n\n".join(blocks))
    if tree.n_leaves == 1:
        print(
            f"\nno split exceeded the minimum metric gap "
            f"(min-beta={args.min_beta}); the tree is a single leaf"
        )
    return 0


def _cmd_evaluate(args) -> int:
    # Bytes, so that deserialize_tree reports a file that is not UTF-8.
    tree = MetaTree.from_json(Path(args.tree).read_bytes())
    build = load_table(args.build)
    test = load_table(args.test, build.schema, build.classes)
    report = evaluate_tree(tree, build, test)
    if args.out is not None:
        atomic_write_text(args.out, report.to_json())
    sys.stdout.write(report.to_text())
    return 0


def _cmd_generate(args) -> int:
    seed = args.seed
    with _from_arguments():
        if args.preset == "two-gaussian":
            n = args.n if args.n is not None else 10000
            data = generate_two_gaussian(args.delta, n, seed)
            classifier = two_gaussian_classifier(args.delta)
        elif args.preset == "blobs":
            n = args.n if args.n is not None else 10000
            data = generate_blobs(blob_specs(n), seed)
            classifier = CartClassifier(max_depth=args.cart_depth)  # fitted below
        else:
            n = args.n if args.n is not None else 150
            data, classifier = preset_example2d(seed, n_per_class=n)
        out = Path(args.out)
        if args.split is None:
            parts, paths = [data], [out]
        else:
            parts = split_dataset(data, args.split, seed)
            paths = _part_paths(out, len(parts))
        if args.preset == "blobs":
            classifier.fit(parts[0])  # on the first part only, before any part is written
    _refuse_empty([part.y.size for part in parts], paths)
    for part, path in zip(parts, paths):
        write_csv(predict_table(classifier, part), path)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"fit": _cmd_fit, "evaluate": _cmd_evaluate, "generate": _cmd_generate}
    try:
        return handlers[args.command](args)
    except (PerfexError, OSError) as exc:
        print(f"perfex {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
