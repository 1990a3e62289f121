"""Crash-safe writes: every output file is written beside its target under
a temporary name and renamed into place only once it is complete."""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress


@contextmanager
def atomic_open(path, newline: str | None = None):
    """Open a text file for writing that replaces `path` when the block ends.

    If the block raises, `path` keeps its previous contents and the
    temporary file is removed. The rename is atomic on POSIX; the data is
    not fsynced, so this guards against a failed or killed writer, not
    against power loss.
    """
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x", newline=newline) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
