"""Whole-file atomic writes: write a sibling temp file, then rename.

Each writer gets its own temp name, ``<name>.<pid>.<thread id>.tmp``, so
concurrent writers to one path never share a temp file, and the last rename
wins with one writer's whole payload. A write or rename that fails removes
its temp file.
"""
from __future__ import annotations

import contextlib
import os
import threading
from pathlib import Path


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
