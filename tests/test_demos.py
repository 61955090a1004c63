"""Each script under ``demos/`` runs to completion against the package."""

import subprocess
import sys
from pathlib import Path

import pytest

from tests._subprocess import child_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    p = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=child_env(), capture_output=True
    )
    assert p.returncode == 0, p.stderr.decode()
    assert p.stdout.strip()
