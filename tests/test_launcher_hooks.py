"""The benchmark launcher's hooks still find, and see, every perfex name they wrap.

``perfbench/launcher.py`` wraps public names of perfex modules by attribute,
so a change that drops one of those names, or stops calling it through the
wrapped attribute, breaks the traced benchmark.  These tests run the
launcher in child processes; they only read ``perfbench/``.
"""

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

from tests._subprocess import child_env

LAUNCHER = Path(__file__).resolve().parents[1] / "perfbench" / "launcher.py"

# run_path executes the launcher without importing it as a module, so no
# bytecode is written next to it, and without running its main().
INSTALL = (
    "import runpy, sys\n"
    "launcher = runpy.run_path(sys.argv[1])\n"
    "launcher['install'](launcher['Recorder']())\n"
)


def test_launcher_installs_its_hooks():
    p = subprocess.run(
        [sys.executable, "-c", INSTALL, str(LAUNCHER)], env=child_env(), capture_output=True
    )
    assert p.returncode == 0, p.stderr.decode()


def spans_of(tmp_path, args):
    """Run one perfex command under the launcher; the names of its spans, counted.

    ``metrics.eval`` is left out: growth and held-out evaluation compute
    their metrics without the functions it wraps."""
    spans = tmp_path / "spans.json"
    env = child_env()
    env.update(PERFBENCH_SPANS=str(spans), PERFBENCH_SPAWN_NS="0")
    p = subprocess.run([sys.executable, str(LAUNCHER), *args], cwd=tmp_path, env=env,
                       capture_output=True)
    assert p.returncode == 0, p.stderr.decode()
    names = Counter(s["name"] for s in json.loads(spans.read_text())["spans"])
    del names["metrics.eval"]
    return names


def searched_nodes(doc, max_depth, depth=0):
    """Nodes of a tree file that growth ran the split search on: those above ``max_depth``."""
    if depth >= max_depth:
        return 0
    if "leaf" in doc:
        return 1
    return 1 + sum(searched_nodes(doc[side], max_depth, depth + 1) for side in ("left", "right"))


def test_each_command_records_the_spans_of_the_calls_it_makes(tmp_path):
    assert spans_of(tmp_path, ["generate", "--preset", "blobs", "--n", "1000", "--cart-depth",
                               "1", "--split", "50/50", "--out", "b.csv"]) == Counter(
        # generate_blobs, split_dataset, CartClassifier.fit and predict_table per part
        {"synth.generate": 5, "dataset.write": 2}
    )

    fit = spans_of(tmp_path, ["fit", "--data", "b_part1.csv", "--out", "t.json",
                              "--explanations-out", "e.json", "--alpha", "20", "--min-beta",
                              "0.01", "--interval-width", "1", "--max-depth", "3"])
    tree = json.loads((tmp_path / "t.json").read_text())
    leaves = len(json.loads((tmp_path / "e.json").read_text()))
    searched = searched_nodes(tree["root"], tree["stopping"]["max_depth"])
    assert leaves > 2 and searched > 3  # a tree of a few levels
    assert fit == Counter({"dataset.load": 1, "tree.build": 1, "splitter.search": searched,
                           "tree.json": 1, "explain.summarize": leaves,
                           "explain.render": leaves, "files.write": 2})

    assert spans_of(tmp_path, ["evaluate", "--tree", "t.json", "--build", "b_part1.csv",
                               "--test", "b_part2.csv", "--out", "r.json"]) == Counter(
        {"tree.json": 1, "dataset.load": 2, "tree.assign": 2, "evaluation.evaluate_tree": 1,
         "files.write": 1}
    )
