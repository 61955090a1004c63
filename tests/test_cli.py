"""End-to-end command line checks, run through ``python -m perfex``, and
in process through ``perfex.cli.main`` where a test runs many commands."""

import codecs
import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perfex.tree
from perfex import StoppingRule, TreeFormatError, cli, deserialize_tree, write_csv

from tests._subprocess import child_env
from tests.test_csv_stream import CUT_SEQUENCES, csv_inputs
from tests.test_tree import HOSTILE_TABLE, HOSTILE_TREE, hostile_tree_texts


def run_cli(args, cwd, threads=None):
    env = child_env()
    env.pop("PERFEX_THREADS", None)
    if threads is not None:
        env["PERFEX_THREADS"] = str(threads)
    return subprocess.run(
        [sys.executable, "-m", "perfex", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
    )


def n_lines(path) -> int:
    return path.read_bytes().count(b"\n")


def leaf_sizes(tree_doc) -> list[int]:
    out = []

    def walk(node):
        if "leaf" in node:
            out.append(node["leaf"]["size"])
        else:
            walk(node["left"])
            walk(node["right"])

    walk(tree_doc["root"])
    return out


def test_generate_two_gaussian(tmp_path):
    p = run_cli(
        ["generate", "--preset", "two-gaussian", "--n", "200", "--seed", "1",
         "--out", "g.csv"],
        tmp_path,
    )
    assert p.returncode == 0, p.stderr
    text = (tmp_path / "g.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == "z,__true__,__pred__,__score_0,__score_1"
    assert len(lines) == 401  # header plus 200 rows per class

    # Same seed regenerates the same bytes; another seed does not.
    run_cli(["generate", "--preset", "two-gaussian", "--n", "200", "--seed", "1",
             "--out", "again.csv"], tmp_path)
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "g.csv").read_bytes()
    run_cli(["generate", "--preset", "two-gaussian", "--n", "200", "--seed", "2",
             "--out", "other.csv"], tmp_path)
    assert (tmp_path / "other.csv").read_bytes() != (tmp_path / "g.csv").read_bytes()


def test_generate_blobs_and_example2d(tmp_path):
    p = run_cli(["generate", "--preset", "blobs", "--n", "900", "--out", "b.csv"],
                tmp_path)
    assert p.returncode == 0, p.stderr
    lines = (tmp_path / "b.csv").read_text().splitlines()
    assert lines[0] == "x,y,__true__,__pred__,__score_0,__score_1,__score_2"
    assert len(lines) == 901

    p = run_cli(["generate", "--preset", "example2d", "--seed", "0",
                 "--out", "e.csv"], tmp_path)
    assert p.returncode == 0, p.stderr
    lines = (tmp_path / "e.csv").read_text().splitlines()
    assert lines[0] == "x,y,__true__,__pred__,__score_red,__score_blue"
    assert len(lines) == 301  # 150 per class


def test_generate_split_writes_named_parts(tmp_path):
    p = run_cli(
        ["generate", "--preset", "blobs", "--n", "600", "--seed", "3",
         "--split", "50/25/25", "--out", "b.csv"],
        tmp_path,
    )
    assert p.returncode == 0, p.stderr
    assert not (tmp_path / "b.csv").exists()
    assert n_lines(tmp_path / "b_train.csv") == 301
    assert n_lines(tmp_path / "b_test1.csv") == 151
    assert n_lines(tmp_path / "b_test2.csv") == 151
    # Stratified: 200 rows per class overall, 100 of each in the train half.
    train = (tmp_path / "b_train.csv").read_text().splitlines()[1:]
    trues = [row.split(",")[2] for row in train]
    assert {c: trues.count(c) for c in ("0", "1", "2")} == {"0": 100, "1": 100, "2": 100}

    p = run_cli(
        ["generate", "--preset", "two-gaussian", "--n", "100", "--split", "80/20",
         "--out", "two.csv"],
        tmp_path,
    )
    assert p.returncode == 0, p.stderr
    assert n_lines(tmp_path / "two_part1.csv") == 161
    assert n_lines(tmp_path / "two_part2.csv") == 41


def test_fit_example2d_tree_and_output(tmp_path):
    run_cli(["generate", "--preset", "example2d", "--seed", "0", "--out", "e.csv"],
            tmp_path)
    p = run_cli(
        ["fit", "--data", "e.csv", "--out", "tree.json",
         "--interval-width", "1.0"],
        tmp_path,
    )
    assert p.returncode == 0, p.stderr
    out = p.stdout.decode()
    assert "There are" in out and "conditions hold" in out
    assert "no split exceeded" not in out

    doc = json.loads((tmp_path / "tree.json").read_text())
    assert doc["format_version"] == 1
    assert doc["metric"] == "accuracy"
    # The label noise lives in a y band, so the root split is on feature 1.
    assert doc["root"]["feature"] == 1
    assert sum(leaf_sizes(doc)) == 300


def test_fit_single_leaf_note(tmp_path):
    rows = [("%d" % i, c, c) for i, c in enumerate(["a", "b"] * 10)]
    text = "x,__true__,__pred__\n" + "".join(f"{a},{b},{c}\n" for a, b, c in rows)
    (tmp_path / "perfect.csv").write_text(text)
    p = run_cli(
        ["fit", "--data", "perfect.csv", "--out", "t.json", "--alpha", "1",
         "--interval-width", "1.0"],
        tmp_path,
    )
    assert p.returncode == 0, p.stderr
    out = p.stdout.decode()
    assert "(no conditions — all datapoints)" in out
    assert "accuracy is 1.00" in out
    assert (
        "no split exceeded the minimum metric gap (min-beta=0.05); "
        "the tree is a single leaf" in out
    )


def test_fit_is_deterministic_across_runs_and_threads(tmp_path):
    run_cli(["generate", "--preset", "two-gaussian", "--n", "300", "--seed", "4",
             "--out", "g.csv"], tmp_path)
    outs = []
    trees = []
    for name, threads in (("a", 1), ("b", 1), ("c", 4)):
        p = run_cli(
            ["fit", "--data", "g.csv", "--out", f"{name}.json", "--alpha", "25",
             "--interval-width", "1.0"],
            tmp_path,
            threads=threads,
        )
        assert p.returncode == 0, p.stderr
        outs.append(p.stdout)
        trees.append((tmp_path / f"{name}.json").read_bytes())
    assert outs[0] == outs[1] == outs[2]
    assert trees[0] == trees[1] == trees[2]


def test_evaluate_against_the_build_table(tmp_path):
    run_cli(["generate", "--preset", "two-gaussian", "--n", "300", "--seed", "4",
             "--out", "g.csv"], tmp_path)
    run_cli(["fit", "--data", "g.csv", "--out", "tree.json", "--alpha", "25",
             "--interval-width", "1.0"], tmp_path)
    p = run_cli(
        ["evaluate", "--tree", "tree.json", "--build", "g.csv", "--test", "g.csv",
         "--out", "rep.json"],
        tmp_path,
    )
    assert p.returncode == 0, p.stderr
    out = p.stdout.decode()
    assert out.splitlines()[0].split() == [
        "leaf", "n_build", "n_test", "e_build", "e_test", "abs_err"
    ]
    assert "mae: 0.00" in out
    doc = json.loads((tmp_path / "rep.json").read_text())
    assert doc["metric"] == "accuracy"
    assert doc["mae"] == 0.0
    assert doc["undefined_leaves"] == []
    assert {k for k in doc["leaves"][0]} == {
        "leaf", "n_build", "n_test", "e_build", "e_test", "abs_err"
    }


def test_fit_split_writes_holdout_and_fits_the_rest(tmp_path):
    run_cli(["generate", "--preset", "two-gaussian", "--n", "200", "--seed", "5",
             "--out", "g.csv"], tmp_path)
    p = run_cli(
        ["fit", "--data", "g.csv", "--out", "tree.json", "--alpha", "20",
         "--interval-width", "1.0", "--split", "60/40", "--seed", "7"],
        tmp_path,
    )
    assert p.returncode == 0, p.stderr
    holdout = tmp_path / "tree_holdout1.csv"
    assert n_lines(holdout) == 161  # 40% of 400 rows, plus the header
    doc = json.loads((tmp_path / "tree.json").read_text())
    assert sum(leaf_sizes(doc)) == 240  # fitted on the 60% part only


def test_explanations_out_document(tmp_path):
    run_cli(["generate", "--preset", "example2d", "--seed", "0", "--out", "e.csv"],
            tmp_path)
    p = run_cli(
        ["fit", "--data", "e.csv", "--out", "t.json", "--interval-width", "1.0",
         "--explanations-out", "exp.json", "--metric", "recall:blue"],
        tmp_path,
    )
    assert p.returncode == 0, p.stderr
    docs = json.loads((tmp_path / "exp.json").read_text())
    assert isinstance(docs, list) and docs
    assert sum(d["size"] for d in docs) == 300
    for d in docs:
        assert {k for k in d} == {"leaf", "size", "conditions", "metric", "value"}
        assert d["metric"] == "recall:blue"
        assert all(isinstance(c, str) for c in d["conditions"])
    assert "recall for class blue is" in p.stdout.decode()


def test_custom_unit_and_phrase(tmp_path):
    run_cli(["generate", "--preset", "example2d", "--seed", "0", "--out", "e.csv"],
            tmp_path)
    p = run_cli(
        ["fit", "--data", "e.csv", "--out", "t.json", "--interval-width", "1.0",
         "--unit-noun", "images", "--phrase", "the hit rate"],
        tmp_path,
    )
    assert p.returncode == 0, p.stderr
    out = p.stdout.decode()
    assert "images for which" in out
    assert "for these images the hit rate is" in out
    assert "datapoints" not in out


def test_exit_code_one_with_command_prefix(tmp_path):
    p = run_cli(["fit", "--data", "missing.csv", "--out", "t.json"], tmp_path)
    assert p.returncode == 1
    assert p.stderr.decode().startswith("perfex fit:")

    (tmp_path / "bad.csv").write_text("x,y\n1,2\n")  # no __true__ column
    p = run_cli(["fit", "--data", "bad.csv", "--out", "t.json"], tmp_path)
    assert p.returncode == 1
    assert p.stderr.decode().startswith("perfex fit:")

    (tmp_path / "nottree.json").write_text("{}")
    (tmp_path / "t.csv").write_text("x,__true__,__pred__\n1,a,a\n2,b,b\n3,a,b\n")
    p = run_cli(["evaluate", "--tree", "nottree.json", "--build", "t.csv",
                 "--test", "t.csv"], tmp_path)
    assert p.returncode == 1
    assert p.stderr.decode().startswith("perfex evaluate:")


LEAF = {"leaf": {"id": 0, "size": 1, "value": 0.5, "support": 1}}


def split_node(feature, kind, value, left=LEAF, right=LEAF):
    return {"feature": feature, "kind": kind, "value": value,
            "left": left, "right": right}


@pytest.mark.parametrize(
    "root, message",
    [
        (split_node(0, "le", 2.5, left=split_node(7, "le", 0.0)),
         "feature index 7 out of range in root.left"),
        (split_node(0, "le", 2.5, right=split_node(1, "eq", "purple")),
         "value 'purple' is not a category of 'color' in root.right"),
        (split_node(1, "le", 0.0),
         "split kind 'le' does not fit categorical feature 'color' in root"),
        (split_node(0, "le", 2.5, left=split_node(0, "le", float("nan"))),
         "non-finite 'value' in root.left"),
        (split_node(0, "le", 2.5, right={"leaf": dict(LEAF["leaf"], value=float("inf"))}),
         "non-finite 'value' in root.right"),
        ({"leaf": dict(LEAF["leaf"], value=10**400)},
         "'value' too large for a float in root"),
    ],
    ids=["feature-out-of-range", "unknown-category", "le-on-categorical",
         "nan-threshold", "infinite-leaf-value", "huge-int-leaf-value"],
)
def test_evaluate_rejects_tree_that_does_not_fit_the_schema(tmp_path, root, message):
    rows = "".join(f"{x},{c},a,{p}\n" for x, c, p in [
        (1, "red", "a"), (2, "blue", "b"), (3, "red", "b"), (4, "blue", "a"),
    ])
    (tmp_path / "t.csv").write_text("x,color,__true__,__pred__\n" + rows)
    p = run_cli(["fit", "--data", "t.csv", "--out", "fit.json", "--alpha", "1",
                 "--interval-width", "1.0"], tmp_path)
    assert p.returncode == 0, p.stderr
    doc = json.loads((tmp_path / "fit.json").read_text())
    doc["root"] = root  # hand-edited, with the fitted schema fingerprint
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    p = run_cli(["evaluate", "--tree", "bad.json", "--build", "t.csv",
                 "--test", "t.csv"], tmp_path)
    assert p.returncode == 1
    assert p.stderr.decode() == f"perfex evaluate: {message}\n"
    assert b"Traceback" not in p.stderr


def test_exit_code_two_on_argument_errors(tmp_path):
    assert run_cli([], tmp_path).returncode == 2
    assert run_cli(["fit", "--data", "x.csv", "--out", "t.json",
                    "--metric", "bogus"], tmp_path).returncode == 2
    assert run_cli(["generate", "--preset", "blobs", "--out", "b.csv",
                    "--split", "10/10"], tmp_path).returncode == 2
    for command in (["generate", "--preset", "blobs", "--out", "b.csv", "--split", "nan/50"],
                    ["fit", "--data", "x.csv", "--out", "t.json", "--split", "50/nan"]):
        p = run_cli(command, tmp_path)
        assert p.returncode == 2
        assert f"bad split {command[-1]!r}" in p.stderr.decode()
    assert run_cli(["generate", "--preset", "nope", "--out", "b.csv"],
                   tmp_path).returncode == 2
    # Rejected while parsing, before any bin edge is made.
    p = run_cli(["fit", "--data", "x.csv", "--out", "t.json", "--metric", "ece:1000000000"],
                tmp_path)
    assert p.returncode == 2
    assert "ece takes at most 1000 bins, got 1000000000" in p.stderr.decode()


@pytest.mark.parametrize("delta", ["inf", "nan"])
def test_generate_rejects_a_non_finite_delta(tmp_path, delta):
    p = run_cli(["generate", "--preset", "two-gaussian", "--n", "50", "--delta", delta,
                 "--out", "g.csv"], tmp_path)
    assert p.returncode == 1
    assert p.stderr.decode() == (
        f"perfex generate: blob mean and sigma must be finite, got {delta}\n"
    )
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("delta", ["1e155", "1e308"])
def test_generate_with_a_huge_delta_writes_nothing_to_stderr(tmp_path, delta):
    # The squared distance to the far class mean overflows to inf, a density of zero.
    p = run_cli(["generate", "--preset", "two-gaussian", "--n", "50", "--delta", delta,
                 "--out", "g.csv"], tmp_path)
    assert p.returncode == 0
    assert p.stderr == b""
    assert n_lines(tmp_path / "g.csv") == 101


@pytest.mark.parametrize("setting, message", [
    ("inf", "min_beta must be non-negative and finite, got inf"),
    ("nan", "min_beta must be non-negative and finite, got nan"),
], ids=["inf", "nan"])
def test_fit_rejects_non_finite_min_beta(tmp_path, setting, message):
    (tmp_path / "t.csv").write_text("x,__true__,__pred__\n1,a,a\n2,b,b\n3,a,b\n")
    p = run_cli(["fit", "--data", "t.csv", "--out", "t.json", "--alpha", "1",
                 "--interval-width", "1.0", "--min-beta", setting], tmp_path)
    assert p.returncode == 1
    assert p.stderr.decode() == f"perfex fit: {message}\n"
    assert not (tmp_path / "t.json").exists()


@pytest.mark.parametrize("level", ["1", "0", "2", "inf", "nan", "high", "1e-17"])
def test_fit_rejects_confidence_outside_the_unit_interval(tmp_path, level):
    (tmp_path / "t.csv").write_text("x,__true__,__pred__\n1,a,a\n2,b,b\n3,a,b\n")
    p = run_cli(["fit", "--data", "t.csv", "--out", "t.json", "--alpha", "1",
                 "--confidence", level], tmp_path)
    assert p.returncode == 2
    lines = [line for line in p.stderr.decode().splitlines() if repr(level) in line]
    assert lines == [
        f"perfex fit: error: argument --confidence: must be between 0 and 1, "
        f"exclusive, got {level!r}"
    ]
    assert b"Traceback" not in p.stderr
    assert not (tmp_path / "t.json").exists()


def test_fit_names_the_row_of_an_oversized_field(tmp_path):
    big = "a" * 200_000
    (tmp_path / "t.csv").write_text(f"x,__true__,__pred__\n1,a,b\n{big},a,a\n")
    p = run_cli(["fit", "--data", "t.csv", "--out", "t.json"], tmp_path)
    assert p.returncode == 1
    assert p.stderr.decode() == (
        "perfex fit: row 2: field larger than field limit (131072)\n"
    )
    assert not (tmp_path / "t.json").exists()


def test_fit_confidence_level_sets_the_interval_z(tmp_path):
    (tmp_path / "t.csv").write_text("x,__true__,__pred__\n1,a,a\n2,b,b\n3,a,b\n")
    p = run_cli(["fit", "--data", "t.csv", "--out", "t.json", "--alpha", "1",
                 "--confidence", "0.5"], tmp_path)
    assert p.returncode == 0, p.stderr
    stopping = json.loads((tmp_path / "t.json").read_text())["stopping"]
    assert stopping["confidence_z"] == NormalDist().inv_cdf(0.75)


def test_threads_env_is_ignored(tmp_path):
    (tmp_path / "t.csv").write_text("x,__true__,__pred__\n1,a,a\n2,b,b\n3,a,b\n")
    args = ["fit", "--data", "t.csv", "--out", "t.json", "--alpha", "1", "--interval-width", "1.0"]
    unset = run_cli(args, tmp_path)
    assert unset.returncode == 0, unset.stderr
    tree = (tmp_path / "t.json").read_bytes()
    for value in ("abc", "0", "-3", "3"):
        (tmp_path / "t.json").unlink()
        p = run_cli(args, tmp_path, threads=value)
        assert p.returncode == 0, (value, p.stderr)
        assert p.stdout == unset.stdout, value
        assert (tmp_path / "t.json").read_bytes() == tree, value


def test_writes_leave_no_temp_files(tmp_path):
    run_cli(["generate", "--preset", "example2d", "--seed", "0", "--out", "e.csv"],
            tmp_path)
    run_cli(["fit", "--data", "e.csv", "--out", "t.json", "--interval-width", "1.0",
             "--explanations-out", "exp.json"], tmp_path)
    run_cli(["evaluate", "--tree", "t.json", "--build", "e.csv", "--test", "e.csv",
             "--out", "rep.json"], tmp_path)
    assert list(tmp_path.glob("*.tmp")) == []
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "e.csv", "exp.json", "rep.json", "t.json"
    ]


def write_rows(path, rows):
    path.write_text("x,c,__true__,__pred__\n" + "".join(",".join(r) + "\n" for r in rows))


def write_held_out_case(tmp_path):
    """A build CSV with categories a/b/c of feature c and classes 0/1/2, and
    a tree fitted on it that splits on c."""
    rows = []
    for i in range(600):
        y = str(i % 3)
        c = "abc"[i // 3 % 3]
        pred = y if c == "a" or i % 5 else str((i + 1) % 3)
        rows.append((f"{i % 37 / 4}", c, y, pred))
    write_rows(tmp_path / "build.csv", rows)
    p = run_cli(["fit", "--data", "build.csv", "--out", "tree.json", "--alpha", "20",
                 "--min-beta", "0", "--interval-width", "1.0"], tmp_path)
    assert p.returncode == 0, p.stderr
    assert '"value":"a"' in (tmp_path / "tree.json").read_text()
    return rows


def evaluate_held_out(tmp_path, rows):
    write_rows(tmp_path / "test.csv", rows)
    return run_cli(["evaluate", "--tree", "tree.json", "--build", "build.csv",
                    "--test", "test.csv"], tmp_path)


@pytest.mark.parametrize("drop", ["category", "class"])
def test_evaluate_reads_the_held_out_table_with_the_build_schema(tmp_path, drop):
    # Without category c of feature c, or without class 2 in a table that has
    # no score columns, the held-out CSV alone infers another schema.
    rows = write_held_out_case(tmp_path)
    if drop == "category":
        rows = [r for r in rows if r[1] != "c"]
    else:
        rows = [r for r in rows if "2" not in r[2:]]
    p = evaluate_held_out(tmp_path, rows)
    assert p.returncode == 0, p.stderr
    assert p.stderr == b""
    assert p.stdout.decode().splitlines()[0].split()[:3] == ["leaf", "n_build", "n_test"]
    n_test = [int(line.split()[2]) for line in p.stdout.decode().splitlines()[1:-2]]
    assert sum(n_test) == len(rows)


def test_evaluate_names_the_row_of_a_category_the_build_table_lacks(tmp_path):
    rows = write_held_out_case(tmp_path)[:100]
    rows[50] = (rows[50][0], "zz", *rows[50][2:])
    p = evaluate_held_out(tmp_path, rows)
    assert p.returncode == 1
    assert p.stderr.decode() == "perfex evaluate: row 51: value 'zz' is not a category of 'c'\n"


def run_main(args):
    """``cli.main(args)`` in process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


def assert_one_line_or_success(command, code, err):
    assert code in (0, 1)
    if code == 1:
        assert err.startswith(f"perfex {command}: ") and err.count("\n") == 1, err


def test_evaluate_reports_a_tree_file_that_is_not_utf8(tmp_path):
    write_csv(HOSTILE_TABLE, tmp_path / "t.csv")
    text = HOSTILE_TREE.encode("utf-8")
    (tmp_path / "bad.json").write_bytes(text[:20] + b"\xff" + text[20:])
    with pytest.raises(TreeFormatError, match="^not valid JSON: 'utf-8' codec can't decode"):
        deserialize_tree((tmp_path / "bad.json").read_bytes())
    code, _, err = run_main(["evaluate", "--tree", str(tmp_path / "bad.json"),
                             "--build", str(tmp_path / "t.csv"), "--test", str(tmp_path / "t.csv")])
    assert code == 1
    assert err == ("perfex evaluate: not valid JSON: 'utf-8' codec can't decode byte 0xff "
                   "in position 20: invalid start byte\n")


@pytest.mark.parametrize("args, message", [
    (["fit", "--max-depth", "0"], "max_depth must be at least 1"),
    (["fit", "--alpha", "0"], "alpha must be at least 1"),
    (["fit", "--alpha", "4"], "table has 3 rows, fewer than alpha=4"),
    (["fit", "--alpha", "1", "--max-thresholds", "0"], "max_thresholds must be at least 1 (or None)"),
    (["fit", "--interval-width", "0"], "interval_width must be in (0, 1], got 0.0"),
    (["fit", "--alpha", "1", "--metric", "precision:zz"],
     "metric references unknown class 'zz'"),
    (["generate", "--preset", "two-gaussian", "--n", "0"], "count must be at least 1"),
    (["generate", "--preset", "blobs", "--n", "2"], "count must be at least 1"),
    (["generate", "--preset", "blobs", "--cart-depth", "0"], "max_depth must be at least 1"),
])
def test_an_argument_the_library_rejects_exits_one_with_its_message(tmp_path, args, message):
    (tmp_path / "t.csv").write_text("x,__true__,__pred__\n1,a,a\n2,b,b\n3,a,b\n")
    files = {"fit": ["--data", str(tmp_path / "t.csv")], "generate": []}[args[0]]
    code, _, err = run_main(args + files + ["--out", str(tmp_path / "out")])
    assert code == 1
    assert err == f"perfex {args[0]}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_a_value_error_inside_a_command_is_not_caught(tmp_path, monkeypatch):
    # Only the objects built from the arguments turn a ValueError into exit
    # 1; any other is a bug and must show its traceback.
    (tmp_path / "t.csv").write_text("x,__true__,__pred__\n1,a,a\n2,b,b\n3,a,b\n")

    def render(*args, **kwargs):
        raise ValueError("a bug in render")

    monkeypatch.setattr(cli, "render", render)
    with pytest.raises(ValueError, match="^a bug in render$"):
        run_main(["fit", "--data", str(tmp_path / "t.csv"), "--out", str(tmp_path / "t.json"),
                  "--alpha", "1"])


@pytest.mark.parametrize("n, split", [("3", "50/25/25"), ("6", "10/90")])
def test_generate_blobs_with_an_empty_training_part_writes_nothing(tmp_path, n, split):
    out = str(tmp_path / "d.csv")
    code, _, err = run_main(["generate", "--preset", "blobs", "--n", n, "--split", split,
                             "--out", out])
    assert code == 1
    assert err == "perfex generate: training data has no rows\n"
    assert list(tmp_path.iterdir()) == []

    # Twelve rows give parts of 6, 3 and 3 rows, which is enough.
    code, _, err = run_main(["generate", "--preset", "blobs", "--n", "12", "--split", "50/25/25",
                             "--out", out])
    assert (code, err) == (0, "")
    assert sorted(f.name for f in tmp_path.iterdir()) == ["d_test1.csv", "d_test2.csv",
                                                          "d_train.csv"]


@pytest.mark.parametrize("args, message", [
    (["generate", "--preset", "blobs", "--n", "6", "--split", "50/25/25"],
     "split part {out}/d_test2.csv would have no rows"),
    (["generate", "--preset", "two-gaussian", "--n", "2", "--split", "50/25/25"],
     "split part {out}/d_test2.csv would have no rows"),
    (["generate", "--preset", "two-gaussian", "--n", "2", "--split", "10/90"],
     "split part {out}/d_part1.csv would have no rows"),
    (["fit", "--data", "{data}", "--alpha", "10", "--split", "99.99/0.01"],
     "split part {out}/d_holdout1.csv would have no rows"),
    (["fit", "--data", "{data}", "--alpha", "100000", "--split", "50/50"],
     "table has 200 rows, fewer than alpha=100000"),
], ids=["blobs-test2", "two-gaussian-test2", "two-gaussian-part1", "fit-holdout1", "fit-alpha"])
def test_a_split_that_cannot_be_written_whole_writes_nothing(tmp_path, args, message):
    # A part with no rows would be a CSV that fit and evaluate reject, and
    # fit writes its held-out parts only once the tree is built.
    data, out = tmp_path / "g.csv", tmp_path / "out"
    assert run_main(["generate", "--preset", "two-gaussian", "--n", "200", "--seed", "5",
                     "--out", str(data)])[0] == 0
    out.mkdir()
    name = {"fit": "d.json", "generate": "d.csv"}[args[0]]
    args = [a.format(data=data) for a in args] + ["--out", str(out / name)]
    code, _, err = run_main(args)
    assert code == 1
    assert err == f"perfex {args[0]}: {message.format(out=out)}\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["fit", "generate"])
@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "-1", "must be a non-negative integer, got '-1'"),
    ("--seed", "1.5", "must be a non-negative integer, got '1.5'"),
    ("--out", "", "must end in a file name, got ''"),
    ("--out", "/", "must end in a file name, got '/'"),
    ("--out", "..", "must end in a file name, got '..'"),
], ids=["seed-negative", "seed-float", "out-empty", "out-root", "out-parent"])
def test_a_bad_seed_or_out_exits_two_naming_the_flag(tmp_path, monkeypatch, capsys, command,
                                                     flag, value, message):
    data = tmp_path / "g.csv"
    assert run_main(["generate", "--preset", "two-gaussian", "--n", "100",
                     "--out", str(data)])[0] == 0
    monkeypatch.chdir(tmp_path)
    args = {"fit": ["fit", "--data", str(data)], "generate": ["generate", "--preset", "blobs"]}
    values = {"--seed": "0", "--out": "d.csv", flag: value}
    with pytest.raises(SystemExit) as exc:
        cli.main(args[command] + ["--split", "50/50", "--seed", values["--seed"],
                                  "--out", values["--out"]])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: perfex {command} ")
    assert err.endswith(f"perfex {command}: error: argument {flag}: {message}\n")
    assert list(tmp_path.iterdir()) == [data]


def fit_and_evaluate(tmp_path):
    """Write ``g.csv`` and its tree ``t.json`` to ``tmp_path``; the ``fit`` and
    ``evaluate`` arguments that read them, run from ``tmp_path``."""
    assert run_main(["generate", "--preset", "two-gaussian", "--n", "100",
                     "--out", str(tmp_path / "g.csv")])[0] == 0
    assert run_main(["fit", "--data", str(tmp_path / "g.csv"),
                     "--out", str(tmp_path / "t.json")])[0] == 0
    return {"fit": ["fit", "--data", "g.csv", "--split", "50/50", "--out", "d.json"],
            "evaluate": ["evaluate", "--tree", "t.json", "--build", "g.csv", "--test", "g.csv"]}


@pytest.mark.parametrize("command, flag", [("fit", "--explanations-out"), ("evaluate", "--out")])
@pytest.mark.parametrize("value", ["", "/", ".."], ids=["empty", "root", "parent"])
def test_an_output_path_with_no_file_name_exits_two_naming_the_flag(
        tmp_path, monkeypatch, capsys, command, flag, value):
    args = fit_and_evaluate(tmp_path)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(args[command] + [flag, value])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"usage: perfex {command} ")
    assert err.endswith(f"perfex {command}: error: argument {flag}: "
                        f"must end in a file name, got {value!r}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.csv", "t.json"]


@pytest.mark.parametrize("command, flag, written", [
    ("fit", "--explanations-out", ["d_holdout1.csv", "g.csv", "t.json"]),
    ("evaluate", "--out", ["g.csv", "t.json"]),
], ids=["fit", "evaluate"])
def test_an_unwritable_output_exits_one_and_prints_nothing(tmp_path, monkeypatch, command, flag,
                                                           written):
    # Files are written before anything is printed, and fit's tree file last.
    args = fit_and_evaluate(tmp_path)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_main(args[command] + [flag, "nodir/x.json"])
    assert code == 1
    assert out == ""
    assert err.startswith(f"perfex {command}: ") and err.count("\n") == 1, err
    assert "nodir/x.json" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == written


@pytest.mark.parametrize("command, args, message", [
    ("fit", ["--out", "same.json", "--explanations-out", "same.json"],
     "--explanations-out names the same file as --out"),
    ("fit", ["--out", "./same.json", "--explanations-out", "same.json"],
     "--explanations-out names the same file as --out"),
    ("fit", ["--split", "50/50", "--out", "d.json", "--explanations-out", "d_holdout1.csv"],
     "--explanations-out names the same file as split part d_holdout1.csv"),
    ("fit", ["--out", "g.csv"], "--out names the same file as --data"),
    ("evaluate", ["--out", "t.json"], "--out names the same file as --tree"),
], ids=["out-explanations", "dot-slash", "holdout-explanations", "data-out", "tree-out"])
def test_an_output_that_names_an_input_or_another_output_exits_one(tmp_path, monkeypatch,
                                                                     command, args, message):
    # Checked before anything is read, so no file is created or changed.
    fit_and_evaluate(tmp_path)
    monkeypatch.chdir(tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    reads = {"fit": ["fit", "--data", "g.csv"],
             "evaluate": ["evaluate", "--tree", "t.json", "--build", "g.csv", "--test", "g.csv"]}
    assert run_main(reads[command] + args) == (1, "", f"perfex {command}: {message}\n")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def deep_table(n):
    """Rows ``x = 0..n-1`` whose predictions get worse with ``x``: with no
    floor on support, every node finds another split, to any depth."""
    rng = np.random.default_rng(0)
    wrong = rng.random(n) >= 1 - np.arange(n) / (n - 1)
    return "x,__true__,__pred__\n" + "".join(
        f"{i},a,{'b' if w else 'a'}\n" for i, w in enumerate(wrong)
    )


def test_growth_past_the_depth_bound_exits_one_and_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(perfex.tree, "_MAX_GROWTH_DEPTH", 5)
    (tmp_path / "deep.csv").write_text(deep_table(400))
    out = tmp_path / "t.json"
    args = ["fit", "--data", str(tmp_path / "deep.csv"), "--out", str(out), "--alpha", "1",
            "--min-beta", "0", "--confidence", "0.68", "--interval-width", "1",
            "--max-thresholds", "400"]
    code, stdout, err = run_main(args + ["--max-depth", "100000"])
    assert (code, stdout) == (1, "")
    assert err == ("perfex fit: tree would grow past depth 5, the deepest tree perfex builds; "
                   "set --max-depth to 5 or less\n")
    assert list(tmp_path.iterdir()) == [tmp_path / "deep.csv"]
    # The advice holds: at the bound itself the tree is written.
    assert run_main(args + ["--max-depth", "5"])[0] == 0
    assert deserialize_tree(out.read_text()).depth() == 5


@pytest.mark.parametrize("flags, rule", [
    ([], StoppingRule()),
    (["--max-depth", "3"], StoppingRule(max_depth=3)),
    (["--min-beta", "0.2"], StoppingRule(min_beta=0.2)),
    (["--confidence", "0.9"], StoppingRule(confidence_z=NormalDist().inv_cdf(0.95))),
    (["--interval-width", "0.5"], StoppingRule(max_interval_width=0.5)),
], ids=["none", "max-depth", "min-beta", "confidence", "interval-width"])
def test_fit_writes_the_stopping_rule_its_flags_name(tmp_path, flags, rule):
    data, out = tmp_path / "g.csv", tmp_path / "t.json"
    assert run_main(["generate", "--preset", "two-gaussian", "--n", "100",
                     "--out", str(data)])[0] == 0
    assert run_main(["fit", "--data", str(data), "--out", str(out)] + flags)[0] == 0
    doc = json.loads(out.read_text())
    assert doc["stopping"] == asdict(rule)
    assert doc["alpha"] == 100


def test_evaluate_reads_a_held_out_csv_with_a_byte_order_mark(tmp_path):
    # Spreadsheet programs save UTF-8 CSVs with a leading byte-order mark; the
    # feature names still match the build table's.
    rows = write_held_out_case(tmp_path)
    write_rows(tmp_path / "test.csv", rows)
    args = ["evaluate", "--tree", str(tmp_path / "tree.json"),
            "--build", str(tmp_path / "build.csv"), "--test", str(tmp_path / "test.csv")]
    expected = run_main(args)
    assert expected[0] == 0
    (tmp_path / "test.csv").write_bytes(codecs.BOM_UTF8 + (tmp_path / "test.csv").read_bytes())
    assert run_main(args) == expected


@st.composite
def tree_files(draw):
    """Hostile tree JSON as bytes, some with a byte that is not UTF-8 in it."""
    data = draw(hostile_tree_texts()).encode("utf-8")
    insert = draw(st.sampled_from([None, b"\xff", b"\x80", *CUT_SEQUENCES]))
    if insert is not None:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + insert + data[at:]
    return data


@settings(max_examples=150, deadline=None)
@given(csv_inputs())
def test_main_reports_any_bad_csv_in_one_line(case):
    data = case[0]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "d.csv").write_bytes(data)
        write_csv(HOSTILE_TABLE, tmp / "t.csv")
        (tmp / "t.json").write_text(HOSTILE_TREE)
        d, t, fitted = str(tmp / "d.csv"), str(tmp / "t.csv"), str(tmp / "fit.json")
        code, _, err = run_main(["fit", "--data", d, "--out", fitted, "--alpha", "1",
                                 "--interval-width", "1.0"])
        assert_one_line_or_success("fit", code, err)
        runs = [["--tree", str(tmp / "t.json"), "--build", t, "--test", d]]
        if code == 0:
            runs.append(["--tree", fitted, "--build", d, "--test", d])
        for args in runs:
            code, _, err = run_main(["evaluate", *args])
            assert_one_line_or_success("evaluate", code, err)


@settings(max_examples=150, deadline=None)
@given(tree_files())
def test_main_reports_any_bad_tree_file_in_one_line(data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "bad.json").write_bytes(data)
        write_csv(HOSTILE_TABLE, tmp / "t.csv")
        code, _, err = run_main(["evaluate", "--tree", str(tmp / "bad.json"),
                                 "--build", str(tmp / "t.csv"), "--test", str(tmp / "t.csv")])
        assert_one_line_or_success("evaluate", code, err)


@pytest.mark.skipif(
    shutil.which("perfex") is None, reason="perfex console script not on PATH"
)
def test_console_script_is_installed():
    p = subprocess.run(["perfex", "--help"], capture_output=True)
    assert b"fit" in p.stdout and b"evaluate" in p.stdout and b"generate" in p.stdout
