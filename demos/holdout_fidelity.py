"""Do per-leaf accuracy values survive contact with unseen data?

A tree that merely memorizes its build rows would report impressive gaps
that evaporate on fresh data.  Here each tree is built on one sample and
judged on an independent one from the same distribution, across four
levels of class separation.  The per-leaf mean absolute error stays small
at every level, so the leaf values can be read as honest estimates.
"""

from perfex import (
    MetricSpec,
    StoppingRule,
    build_tree,
    evaluate_tree,
    generate_two_gaussian,
    predict_table,
    two_gaussian_classifier,
)

N_PER_CLASS = 10000


def main():
    print("two 1-D Gaussian classes, matched density classifier")
    print(f"{N_PER_CLASS} rows per class; build and test samples drawn separately")
    print()
    print("separation  leaves  build-spread  holdout-mae")
    last = None
    for delta in (1.0, 2.0, 3.0, 4.0):
        classifier = two_gaussian_classifier(delta)
        build = predict_table(
            classifier, generate_two_gaussian(delta, N_PER_CLASS, seed=100)
        )
        test = predict_table(
            classifier, generate_two_gaussian(delta, N_PER_CLASS, seed=200)
        )
        tree = build_tree(build, MetricSpec.accuracy(), StoppingRule(), alpha=100)
        report = evaluate_tree(tree, build, test)
        print(
            f"{delta:10.0f}  {tree.n_leaves:6d}  {report.spread:12.3f}"
            f"  {report.mae:11.4f}"
        )
        last = report
    print()
    print("full report for the last tree (separation 4):")
    print()
    print(last.to_text(), end="")


if __name__ == "__main__":
    main()
