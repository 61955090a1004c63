"""Catching a classifier whose world has drifted out from under it.

The classifier stays fixed, tuned for class means at 10 and 13.  The data
used to build each tree drifts: the second class mean moves to 13, 14, 15
and 16 while the held-out evaluation sample stays at the original
distribution.  The farther the data drifts, the worse the per-leaf values
transfer, and the mean absolute error climbs.  A rising mae under a fixed
evaluation sample is a cheap staleness alarm that needs no retraining.
"""

from perfex import (
    GaussianSpec,
    MetricSpec,
    StoppingRule,
    build_tree,
    evaluate_tree,
    generate_blobs,
    generate_two_gaussian,
    predict_table,
    two_gaussian_classifier,
)

N_PER_CLASS = 5000


def main():
    classifier = two_gaussian_classifier(3.0)  # expects means 10 and 13
    reference = predict_table(
        classifier, generate_two_gaussian(3.0, N_PER_CLASS, seed=7)
    )
    print("fixed classifier, fixed evaluation sample, drifting build data")
    print()
    print("drift  build-accuracy  holdout-mae")
    for shift in (0.0, 1.0, 2.0, 3.0):
        drifted = generate_blobs(
            (
                GaussianSpec("0", (10.0,), 2.0, N_PER_CLASS),
                GaussianSpec("1", (13.0 + shift,), 2.0, N_PER_CLASS),
            ),
            seed=40,
            feature_names=("z",),
        )
        build = predict_table(classifier, drifted)
        tree = build_tree(build, MetricSpec.accuracy(), StoppingRule(), alpha=100)
        report = evaluate_tree(tree, build, reference)
        acc = sum(
            leaf.metric.value * leaf.size for leaf in tree.leaf_stats()
        ) / build.n
        print(f"{shift:5.0f}  {acc:14.3f}  {report.mae:11.4f}")
    print()
    print("mae grows with the drift: the tree's promises were made on data")
    print("the deployed distribution no longer resembles.")


if __name__ == "__main__":
    main()
