"""Acceptance gate: ten numbered end-to-end checks.

Each test covers one criterion, prints a single "criterion N: PASS/FAIL"
line (visible with ``pytest -s`` or on failure), and asserts the outcome.
Criteria 1 and 3 through 6 also record, for every leaf of every tree they
build, whether filtering the build table by the rendered conditions
reproduces that leaf's rows; criterion 9 asserts over those records.
"""

import json
import math
import subprocess
import sys

import numpy as np

from perfex import (
    CartClassifier,
    Feature,
    FeatureSchema,
    GaussianSpec,
    MetricSpec,
    MissingScoresError,
    SplitCandidate,
    StoppingRule,
    blob_specs,
    build_tree,
    evaluate_tree,
    generate_blobs,
    generate_two_gaussian,
    leaf_row_mask,
    min_samples,
    predict_table,
    preset_example2d,
    render,
    split_dataset,
    summarize_path,
    two_gaussian_classifier,
)
from perfex.metrics import MetricValue, evaluate, evaluate_indices
from perfex.tree import Internal, Leaf, LeafStats

from tests._naive import (
    all_metric_descs,
    naive_best_split,
    naive_metric,
    plain_rows,
    random_plain_table,
)
from tests._subprocess import child_env
from tests._tables import desc_to_spec, worked_example_table, plain_to_table

ACC = MetricSpec.accuracy()
LOOSE = StoppingRule(max_depth=6, min_beta=0.05, confidence_z=1.0, max_interval_width=1.0)

# (tag, leaf_id, reproduced) for every leaf of every tree built below.
FAITHFULNESS: list[tuple[str, int, bool]] = []


def report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def record_faithfulness(tag: str, tree, table) -> None:
    leaves = {leaf.leaf_id: leaf for leaf in tree.leaves()}
    for st in tree.leaf_stats():
        summaries = summarize_path(st, table.schema)
        rows = np.flatnonzero(leaf_row_mask(summaries, table))
        ok = np.array_equal(rows, leaves[st.leaf_id].indices)
        FAITHFULNESS.append((tag, st.leaf_id, bool(ok)))


def test_criterion_01_worked_example_reconstruction():
    t = worked_example_table()
    tree = build_tree(
        t,
        ACC,
        StoppingRule(max_depth=6, min_beta=0.0, confidence_z=1.96, max_interval_width=1.0),
        alpha=1,
    )
    record_faithfulness("c1", tree, t)
    overall = evaluate(ACC, t.full_view()).value
    root = tree.root
    split_ok = (
        isinstance(root, Internal)
        and isinstance(root.left, Leaf)
        and isinstance(root.right, Leaf)
        and tree.depth() == 1
    )
    left_v = root.left.metric.value if split_ok else None
    right_v = root.right.metric.value if split_ok else None
    beta = abs(left_v - right_v) if split_ok else None
    ok = (
        split_ok
        and overall == 0.6
        and left_v == 0.4
        and right_v == 0.8
        and beta == 0.4
        and (root.candidate.feature, root.candidate.kind, root.candidate.value)
        == (0, "le", -1.0)
    )
    report(1, ok, f"depth-1 tree, leaves {left_v}/{right_v}, beta {beta} (exact)")
    assert ok


def test_criterion_02_ci_minimum_sample_rule():
    got = min_samples(1.96, 0.1)
    defaults = StoppingRule()
    ok = (
        abs(got.exact - 384.16) < 1e-9
        and got.required == 385
        and defaults.min_support == 385
    )
    report(2, ok, f"min_samples(1.96, 0.1) = {got.exact!r} -> {got.required} rows")
    assert ok


def test_criterion_03_two_gaussian_fidelity():
    means = {}
    for delta in (1, 2, 3, 4):
        clf = two_gaussian_classifier(float(delta))
        vals = []
        for s in range(10):
            build = predict_table(clf, generate_two_gaussian(float(delta), 10000, 100 + s))
            test = predict_table(clf, generate_two_gaussian(float(delta), 10000, 200 + s))
            tree = build_tree(build, ACC, StoppingRule(), alpha=100)
            record_faithfulness("c3", tree, build)
            rep = evaluate_tree(tree, build, test)
            assert rep.mae is not None
            vals.append(rep.mae)
        means[delta] = math.fsum(vals) / len(vals)
    ok = all(m <= 0.05 for m in means.values())
    detail = ", ".join(f"delta {d}: mae {m:.4f}" for d, m in means.items())
    report(3, ok, detail + " (limit 0.05)")
    assert ok, means


def test_criterion_04_distribution_shift_trend():
    clf = two_gaussian_classifier(3.0)  # matched to the fixed test distribution
    means = []
    for shift in (0, 1, 2, 3):
        vals = []
        for s in range(20):
            build_data = generate_blobs(
                (
                    GaussianSpec("0", (10.0,), 2.0, 5000),
                    GaussianSpec("1", (13.0 + shift,), 2.0, 5000),
                ),
                1000 + s,
                feature_names=("z",),
            )
            build = predict_table(clf, build_data)
            test = predict_table(clf, generate_two_gaussian(3.0, 5000, 2000 + s))
            tree = build_tree(build, ACC, StoppingRule(), alpha=100)
            record_faithfulness("c4", tree, build)
            rep = evaluate_tree(tree, build, test)
            assert rep.mae is not None
            vals.append(rep.mae)
        means.append(math.fsum(vals) / len(vals))
    drops = [means[i] - means[i + 1] for i in range(3) if means[i] > means[i + 1]]
    ok = len(drops) <= 1 and all(d <= 0.01 for d in drops)
    detail = " -> ".join(f"{m:.4f}" for m in means)
    report(4, ok, f"mean mae by shift: {detail} (one inversion <= 0.01 allowed)")
    assert ok, means


def test_criterion_05_blobs_structure():
    ds = generate_blobs(blob_specs(10000), 0)
    train, test1, test2 = split_dataset(ds, (0.5, 0.25, 0.25), 0)
    cart = CartClassifier(max_depth=3).fit(train)
    t1 = predict_table(cart, test1)
    t2 = predict_table(cart, test2)
    tree = build_tree(t1, ACC, LOOSE, alpha=100)
    record_faithfulness("c5", tree, t1)
    rep = evaluate_tree(tree, t1, t2)
    vals = [leaf.metric.value for leaf in tree.leaves()]
    ok = (
        max(vals) >= 0.95
        and min(vals) <= 0.85
        and rep.mae is not None
        and rep.mae <= 0.05
    )
    report(
        5,
        ok,
        f"{len(vals)} leaves, accuracy {min(vals):.3f}..{max(vals):.3f}, "
        f"mae {rep.mae:.4f} (limits: >=0.95, <=0.85, mae<=0.05)",
    )
    assert ok


def test_criterion_06_example2d_structure():
    data, clf = preset_example2d(0)
    t = predict_table(clf, data)
    tree = build_tree(t, ACC, LOOSE, alpha=100)
    record_faithfulness("c6", tree, t)
    root = tree.root
    struct_ok = (
        isinstance(root, Internal)
        and isinstance(root.left, Leaf)
        and isinstance(root.right, Leaf)
    )
    low = root.left.metric.value if struct_ok else None
    high = root.right.metric.value if struct_ok else None
    ok = struct_ok and root.candidate.feature == 1 and low >= 0.95 and high < low
    report(
        6,
        ok,
        f"root on feature {root.candidate.feature if struct_ok else '?'} (y), "
        f"low side {low:.3f} vs high side {high:.3f}",
    )
    assert ok


def test_criterion_07_split_search_oracle_equivalence():
    from perfex import SearchConfig, best_split

    def value_fn(spec, table):
        def fn(idx_list):
            v = evaluate_indices(spec, table, np.asarray(idx_list, dtype=np.int64))
            return (v.value, v.support)

        return fn

    rng = np.random.default_rng(977)
    mismatches = []
    compared = 0
    for _ in range(200):
        plain = random_plain_table(rng, max_rows=200, max_features=3)
        t = plain_to_table(plain)
        specs = [
            ACC,
            MetricSpec.precision(str(rng.choice(plain["classes"]))),
            MetricSpec.weighted("f1"),
        ]
        if plain["scores"] is not None:
            specs.append(MetricSpec.mean_min_score(tuple(plain["classes"][:2])))
        alpha = int(rng.choice([1, 3, 10]))
        min_support = int(rng.choice([1, 5]))
        for spec in specs:
            got = best_split(t.full_view(), spec, SearchConfig(alpha, min_support))
            want = naive_best_split(plain, alpha, min_support, value_fn(spec, t))
            compared += 1
            if want is None or got is None:
                if (want is None) != (got is None):
                    mismatches.append((spec.name, alpha, min_support, got, want))
                continue
            found = (got.candidate.feature, got.candidate.kind, got.candidate.value)
            if found != want[:3] or got.beta != want[3]:
                mismatches.append((spec.name, alpha, min_support, found, want))
    ok = not mismatches
    report(7, ok, f"{compared} searches matched the brute-force oracle exactly")
    assert ok, mismatches[:5]


def test_criterion_08_metric_oracle_equivalence():
    rng = np.random.default_rng(31)
    mismatches = []
    views = 0
    while views < 1000:
        plain = random_plain_table(rng, max_rows=50, max_features=1)
        t = plain_to_table(plain)
        rows_all = plain_rows(plain)
        n = len(plain["y"])
        for _ in range(8):
            if views == 1000:
                break
            k = int(rng.integers(0, n + 1))
            idx = np.sort(rng.choice(n, size=k, replace=False)).astype(np.int64)
            rows = [rows_all[i] for i in idx]
            views += 1
            for desc in all_metric_descs(plain["classes"]):
                spec = desc_to_spec(desc)
                # Missing scores is a table-level error: it applies even to
                # an empty view, which the row-wise naive oracle cannot see.
                if spec.requires_scores and plain["scores"] is None:
                    try:
                        evaluate_indices(spec, t, idx)
                        mismatches.append((desc, k, "missing scores not rejected"))
                    except MissingScoresError:
                        pass
                    continue
                want = naive_metric(desc, plain["classes"], rows)
                got = evaluate_indices(spec, t, idx)
                if want[0] is None:
                    if got.value is not None:
                        mismatches.append((desc, k, got, want))
                elif got.value is None or abs(got.value - want[0]) > 1e-12:
                    mismatches.append((desc, k, got, want))
                if got.support != want[1]:
                    mismatches.append((desc, k, got, want))
    ok = not mismatches
    report(8, ok, f"{views} random views agreed with the naive metrics to 1e-12")
    assert ok, mismatches[:5]


def test_criterion_09_explanation_faithfulness():
    # Stand-alone rebuilds of the two cheap trees, so this test means
    # something even when the earlier criteria have not run in this process.
    t = worked_example_table()
    tree = build_tree(
        t,
        ACC,
        StoppingRule(max_depth=6, min_beta=0.0, confidence_z=1.96, max_interval_width=1.0),
        alpha=1,
    )
    record_faithfulness("c9-worked", tree, t)
    data, clf = preset_example2d(0)
    t2d = predict_table(clf, data)
    record_faithfulness("c9-2d", build_tree(t2d, ACC, LOOSE, alpha=100), t2d)

    bad = [(tag, leaf) for tag, leaf, ok in FAITHFULNESS if not ok]

    path = ((SplitCandidate(0, "le", 12.39), True), (SplitCandidate(0, "le", 10.77), False))
    stats = LeafStats(0, 134, MetricValue(0.6791044776119403, 134), path)
    schema = FeatureSchema((Feature("length", "numeric"),))
    block = render(stats, summarize_path(stats, schema))
    want = (
        "There are 134 datapoints for which the\n"
        "following conditions hold:\n"
        "  length > 10.77, length <= 12.39\n"
        "and for these datapoints accuracy is 0.68"
    )
    ok = not bad and block == want
    report(
        9,
        ok,
        f"{len(FAITHFULNESS)} leaves re-filtered to their exact row sets; "
        f"reference block byte-identical: {block == want}",
    )
    assert ok, (bad[:5], block)


def test_criterion_10_end_to_end_determinism(tmp_path):
    def pipeline(tag: str, threads: int) -> dict[str, bytes]:
        work = tmp_path / tag
        work.mkdir()
        env = child_env()
        env["PERFEX_THREADS"] = str(threads)

        def run(*args) -> bytes:
            p = subprocess.run(
                [sys.executable, "-m", "perfex", *args],
                cwd=work,
                env=env,
                capture_output=True,
            )
            assert p.returncode == 0, p.stderr
            return p.stdout

        out = {}
        run(
            "generate", "--preset", "blobs", "--n", "2000", "--seed", "11",
            "--split", "50/25/25", "--out", "data.csv",
        )
        out["fit.stdout"] = run(
            "fit", "--data", "data_test1.csv", "--out", "tree.json",
            "--alpha", "50", "--interval-width", "1.0",
            "--explanations-out", "exp.json",
        )
        out["evaluate.stdout"] = run(
            "evaluate", "--tree", "tree.json", "--build", "data_test1.csv",
            "--test", "data_test2.csv", "--out", "report.json",
        )
        for name in (
            "data_train.csv", "data_test1.csv", "data_test2.csv",
            "tree.json", "exp.json", "report.json",
        ):
            out[name] = (work / name).read_bytes()
        return out

    first = pipeline("a", threads=1)
    again = pipeline("b", threads=1)
    wide = pipeline("c", threads=4)
    same_repeat = first == again
    same_threads = first == wide
    n_leaves = len(json.loads(first["exp.json"]))
    ok = same_repeat and same_threads and n_leaves >= 2
    report(
        10,
        ok,
        f"two reruns and a 4-thread run produced byte-identical outputs "
        f"({len(first)} artifacts, {n_leaves} leaves)",
    )
    assert ok
