"""Atomic replacement of output files."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "w", **kwargs):
    """Write to a temporary file beside ``path``, then rename it over ``path``.

    The rename happens only when the ``with`` block ends without an exception,
    so a write that fails partway leaves any previous ``path`` untouched and
    removes the temporary file.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
