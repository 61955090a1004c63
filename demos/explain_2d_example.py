"""Walk the bundled 2-D example from one opaque number to a usable answer.

Two well-separated blobs sit at x = 10 and x = 30, and the classifier under
study is a hard rule that only looks at x.  The catch: labels above y = 12
were flipped with probability one half, so the rule is perfect below that
band and no better than a coin inside it.  The meta tree never sees the
classifier internals or the noise process.  It only sees rows, predictions
and truth, yet its explanation points straight at the band.
"""

from perfex import (
    MetricSpec,
    StoppingRule,
    build_tree,
    predict_table,
    preset_example2d,
    render,
    summarize_path,
)
from perfex.metrics import evaluate


def main():
    data, classifier = preset_example2d(seed=0)
    table = predict_table(classifier, data)

    overall = evaluate(MetricSpec.accuracy(), table.full_view())
    print(f"rows: {table.n}")
    print(f"overall accuracy: {overall.value:.3f}")
    print()
    print("That single number hides where the classifier fails.  Build a")
    print("tree that splits wherever the accuracy gap is largest:")
    print()

    stopping = StoppingRule(
        max_depth=6, min_beta=0.05, confidence_z=1.0, max_interval_width=1.0
    )
    tree = build_tree(table, MetricSpec.accuracy(), stopping, alpha=100)

    blocks = [
        render(stats, summarize_path(stats, table.schema))
        for stats in tree.leaf_stats()
    ]
    print("\n\n".join(blocks))
    print()
    print("The split lands on y even though the classifier never reads y:")
    print("that is exactly where the label noise lives.")


if __name__ == "__main__":
    main()
