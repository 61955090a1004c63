"""One table, four questions: the metric decides what the tree looks for.

The same three-blob dataset and the same small CART classifier, explained
four ways.  Accuracy finds where predictions are wrong, per-class recall
finds where one class gets swallowed, expected calibration error finds
where the scores overstate themselves, and mean minimum score finds where
the classifier hedges.  Each run also renders its weakest region the way
the command line would.
"""

from perfex import (
    CartClassifier,
    MetricSpec,
    StoppingRule,
    blob_specs,
    build_tree,
    default_phrase,
    generate_blobs,
    predict_table,
    render,
    split_dataset,
    summarize_path,
)

# Higher is worse for these two, so "weakest leaf" means the maximum.
HIGH_IS_BAD = {"ece", "mean_min_score"}

# Score-spread metrics move on a narrower scale than accuracy, so the
# minimum interesting gap is set below the 0.05 default.
STOPPING = StoppingRule(
    max_depth=4, min_beta=0.02, confidence_z=1.0, max_interval_width=1.0
)


def weakest(tree):
    leaves = sorted(tree.leaf_stats(), key=lambda s: s.metric.value)
    return leaves[-1] if tree.metric.kind in HIGH_IS_BAD else leaves[0]


def main():
    data = generate_blobs(blob_specs(6000), seed=3)
    train, explain_part, _ = split_dataset(data, (0.5, 0.25, 0.25), seed=3)
    classifier = CartClassifier(max_depth=3).fit(train)
    table = predict_table(classifier, explain_part)
    print(f"CART classifier on three overlapping blobs, {table.n} rows to explain")

    metrics = (
        MetricSpec.accuracy(),
        MetricSpec.recall("2"),
        MetricSpec.ece(10),
        MetricSpec.mean_min_score(("0", "1", "2")),
    )
    for metric in metrics:
        tree = build_tree(table, metric, STOPPING, alpha=150)
        values = [leaf.metric.value for leaf in tree.leaf_stats()]
        print()
        print(
            f"== {metric.name}: {tree.n_leaves} leaves,"
            f" values {min(values):.3f} to {max(values):.3f}"
        )
        stats = weakest(tree)
        block = render(
            stats,
            summarize_path(stats, table.schema),
            unit_noun="predictions",
            phrase=default_phrase(metric),
        )
        print(block)


if __name__ == "__main__":
    main()
