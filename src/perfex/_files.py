"""Atomic text file writes: write to a temp sibling, then rename over the target.

The file is created with the mode ``open(path, "w")`` gives a new file,
``0o666`` less the process umask, also when it replaces an existing file.
An I/O error names the target path, never the temporary file.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path):
    """Yield a UTF-8 text handle whose contents replace ``path`` when the
    block ends without an error; on an error ``path`` is left as it was."""
    target = Path(path)
    tmp = str(target.parent / f"{target.name}.{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(tmp, target)
    except BaseException as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
        raise


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` without ever leaving a partial file behind."""
    with atomic_open(path) as handle:
        handle.write(text)
