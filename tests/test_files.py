"""Atomic output files: their mode, and the path an I/O error names."""

import os
import stat

import pytest

from perfex import write_csv
from perfex._files import atomic_write_text

from tests._tables import worked_example_table


def mode(path) -> int:
    return stat.S_IMODE(path.stat().st_mode)


def test_outputs_get_the_mode_a_plain_open_gives(tmp_path):
    existing = tmp_path / "existing.json"
    existing.write_text("old")
    existing.chmod(0o644)
    old = os.umask(0o022)
    try:
        atomic_write_text(tmp_path / "tree.json", "{}")
        write_csv(worked_example_table(), tmp_path / "data.csv")
        atomic_write_text(existing, "{}")
        os.umask(0o077)
        atomic_write_text(tmp_path / "private.json", "{}")
    finally:
        os.umask(old)
    assert [mode(tmp_path / name) for name in ("tree.json", "data.csv", "existing.json")] == [
        0o644, 0o644, 0o644
    ]
    assert mode(tmp_path / "private.json") == 0o600
    assert existing.read_text() == "{}"


@pytest.mark.parametrize("write", [
    lambda path: atomic_write_text(path, "{}"),
    lambda path: write_csv(worked_example_table(), path),
], ids=["text", "csv"])
def test_write_errors_name_the_target_not_the_temporary_file(tmp_path, write):
    target = tmp_path / "missing" / "out.csv"
    with pytest.raises(FileNotFoundError) as info:
        write(target)
    assert str(info.value) == f"[Errno 2] No such file or directory: '{target}'"

    directory = tmp_path / "directory"
    directory.mkdir()
    with pytest.raises(IsADirectoryError) as info:
        write(directory)
    assert str(info.value) == f"[Errno 21] Is a directory: '{directory}'"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["directory"]
