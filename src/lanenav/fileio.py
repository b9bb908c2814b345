"""Whole-file atomic writes: write a sibling temp file, then rename.

Each writer gets its own temp name, ``<name>.<pid>.<thread id>.tmp``, so
concurrent writers to one path never share a temp file, and the last rename
wins with one writer's whole payload. Where that name would pass
``NAME_MAX`` (255 bytes), ``<name>`` is cut to the bytes that fit: a thread
writes one file at a time, so the name stays its writer's own. The temp
file is written with plain os calls: ``os.open`` (created with mode 0o666
less the umask, truncated), ``os.write`` until every byte is written,
``os.close``, then ``os.replace`` onto the path. A failure at any of these
steps removes the temp file.
"""
from __future__ import annotations

import contextlib
import os
import threading
from pathlib import Path

_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_CLOEXEC
_NAME_MAX = 255  # the longest file name, in bytes, that Linux's file systems take


def _temp_name(path: str | Path) -> str:
    """This writer's temp file for ``path``, in its directory, named within ``_NAME_MAX`` bytes."""
    path = os.fspath(path)
    suffix = f".{os.getpid()}.{threading.get_ident()}.tmp"
    name = path[path.rfind(os.sep) + 1:]
    over = len(os.fsencode(name)) + len(suffix) - _NAME_MAX
    if over > 0:
        path = path[:len(path) - len(name)] + os.fsdecode(os.fsencode(name)[:-over])
    return path + suffix


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    tmp = _temp_name(path)
    try:
        fd = os.open(tmp, _FLAGS, 0o666)
        try:
            view, done = memoryview(data), 0
            while done < len(view):  # a short write leaves the rest to the next
                done += os.write(fd, view[done:])
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
