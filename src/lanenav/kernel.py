"""The package's C kernels, built into one shared object and loaded with ctypes.

``_search.c`` holds the planner's rollouts (``mcts``), ``_world.c`` the
world's step, rasterizer and frame reader (``world``). On first import this
module compiles both with the system C compiler into one object, cached
under ``__pycache__`` next to them and keyed by a hash of both sources, the
compiler command and the interpreter tag; later imports load the cached
object. ``library`` is the loaded object, one per process, and ``zeroed``
makes the zeroed buffers the kernels write into.
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

_SOURCES = tuple(Path(__file__).with_name(name) for name in ("_search.c", "_world.c"))
_CACHE = Path(__file__).with_name("__pycache__")
_BUFFER_TYPES: dict[int, type] = {}


def _command(target: str) -> list[str]:
    """The compiler command that builds the kernels into ``target``.

    No contraction into fused multiply-adds and no fast-math: the kernels
    keep the bits of IEEE arithmetic evaluated in source order. Vectorized
    loops compute each element as the scalar loop does.
    """
    return ["cc", "-O2", "-ftree-vectorize", "-ffp-contract=off", "-shared", "-fPIC", "-o", target,
            *map(str, _SOURCES), "-lm"]


def _compile(command: list[str]) -> None:
    """Run the compiler ``command``; an ImportError names it and gives its output."""
    try:
        done = subprocess.run(command, capture_output=True, text=True)
    except OSError as exc:
        raise ImportError(f"cannot build the C kernels: {shlex.join(command)}: {exc}") from exc
    if done.returncode:
        raise ImportError(f"cannot build the C kernels: {shlex.join(command)} exited with "
                          f"{done.returncode}:\n{done.stderr}")


def _load_kernel(cache: Path = _CACHE) -> ctypes.CDLL:
    """The kernels' shared object, compiled into ``cache`` unless built there before.

    Concurrent first loads each compile to their own temporary name and move
    it into place with ``os.replace``, so every process loads a whole object.
    """
    sources = tuple(source.read_bytes() for source in _SOURCES)
    key = hashlib.sha256(repr((sources, _command(""), sys.implementation.cache_tag)).encode()).hexdigest()[:16]
    target = cache / f"_kernel.{sys.implementation.cache_tag}-{key}.so"
    if not target.exists():
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=target.name + ".", suffix=".tmp", dir=cache)
        os.close(fd)
        try:
            _compile(_command(tmp))
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return ctypes.CDLL(str(target))


library = _load_kernel()


def zeroed(size: int) -> ctypes.Array:
    """A zeroed ctypes buffer of ``size`` bytes; its type is made once per size."""
    kind = _BUFFER_TYPES.get(size)
    if kind is None:
        kind = _BUFFER_TYPES[size] = ctypes.c_char * size
    return kind()
