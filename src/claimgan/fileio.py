"""Text input whose faults read `<path>[: line N]: <cause>`, and crash-safe
writes: every output file is written beside its target under a temporary
name and renamed into place only once it is complete."""

from __future__ import annotations

import json
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


def read_lines(path):
    """Yield the lines of the UTF-8 text file at `path`, as open() does. Bytes
    that are not UTF-8 raise a ValueError naming the path and the line."""
    with open(path, encoding="utf-8") as f:
        try:
            yield from f
            return
        except UnicodeDecodeError:
            pass
    # the decoder works in blocks, so the failing line is found in the raw bytes
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise ValueError(f"{path}: line {lineno}: not UTF-8 text ({e.reason})") from e
    raise ValueError(f"{path}: not UTF-8 text")


def parse_json(text, path, line=0, error=ValueError, object_hook=None):
    """`text`, all of `path` or its line `line`, parsed as JSON; a fault raises `error`."""
    try:
        return json.loads(text, object_hook=object_hook)
    except (ValueError, RecursionError) as e:  # also an int past Python's digit limit
        where = f"{path}: line {line}" if line else path
        raise error(f"{where}: not valid JSON: {e}") from e
