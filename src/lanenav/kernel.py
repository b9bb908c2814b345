"""The package's C kernels, built into one shared object, and the one declaration of their interface.

``_search.c`` holds the planner's search and pick and the episode loop, ``_world.c`` the world's step,
rasterizer and frame reader. On first import this module compiles both with the system C compiler into
one object, against numpy's headers and linked with the installed numpy's ``libnpyrandom.a``, whose
samplers the world's step draws with. The object is cached under ``__pycache__``, keyed by a hash of both
sources, the compiler command, the interpreter tag, the numpy version and the archive's bytes; later
imports load it, and a build removes the objects of earlier builds for the same interpreter and numpy. A
missing archive raises ImportError, as a failed build does. ``library`` is the object, and ``zeroed`` makes the
kernels' buffers.

No other module knows the interface: here are the structs the two sides share (``Layout``), the constants
both use, the kernels' errors (``ERRORS``, raised by ``check``) and their functions' signatures. Each source
exports a table of its field offsets and sizes, struct sizes and constants, which the load compares with
these: a difference raises ImportError naming the struct and field, or the constant.
"""
from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import re
import shlex
import struct
import subprocess
import sys
import tempfile
from functools import cached_property
from pathlib import Path

import numpy as np

_SOURCES = tuple(Path(__file__).with_name(name) for name in ("_search.c", "_world.c"))
# numpy's random samplers as a static library, shipped with numpy for C extensions.
_ARCHIVE = Path(np.__file__).with_name("random") / "lib" / "libnpyrandom.a"
_CACHE = Path(__file__).with_name("__pycache__")
_BUFFER_TYPES: dict[int, type] = {}

N_ACTIONS = 8
MAX_DEPTH = 64  # the longest rollout: the search's path holds this many steps
GOAL = 6  # the goal's palette value
N_COLUMNS = 4  # of the obstacle table, one row of doubles per body
N_LANE_COLUMNS = 7  # of the lane table, one row of doubles per lane
MAX_LEN1 = 2147483647  # the largest body length - 1 the world kernels index with
PLAY_ENDED = 1  # lanenav_play's return when the last step met a terminal outcome
# A step's outcome kind by its C name: lanenav_play writes a Step's kind as its index here.
OUTCOMES = {"RUNNING": "running", "GOAL_REACHED": "goal", "DIED": "died", "TIMED_OUT": "timeout"}


class Layout:
    """A C struct: its fields in order, each a ``struct`` format or a nested ``Layout``, at C's alignment.

    ``struct`` packs the whole struct, ``size`` is its sizeof and ``offsets`` holds each field's. Every
    struct here aligns to 8 bytes, as the trailing ``0P`` pads.
    """

    def __init__(self, name: str, **fields: str | Layout) -> None:
        self.name = name
        self.formats = {field: code.struct.format if isinstance(code, Layout) else code
                        for field, code in fields.items()}
        self.struct = struct.Struct("".join(self.formats.values()) + "0P")
        self.size = self.struct.size
        self.offsets, prefix = {}, ""
        for field, code in self.formats.items():
            prefix += code
            self.offsets[field] = struct.calcsize(prefix) - struct.calcsize(code)

    def part(self, first: str, last: str) -> struct.Struct:
        """Fields first..last, packed at ``offsets[first]``."""
        names = list(self.formats)
        return struct.Struct("".join(self.formats[name] for name in names[names.index(first):names.index(last) + 1]))

    @cached_property
    def dtype(self) -> np.dtype:
        """The struct as a numpy structured dtype, for a table of its rows."""
        return np.dtype({"names": list(self.formats), "formats": list(self.formats.values()),
                         "offsets": list(self.offsets.values()), "itemsize": self.size})

    def entries(self) -> list[tuple[str, int]]:
        """What a source's layout table lists for the struct: each field's offset and size, then its size."""
        fields = [(f"{self.name}.{field} {what}", value) for field, code in self.formats.items()
                  for what, value in (("offset", self.offsets[field]), ("size", struct.calcsize(code)))]
        return [*fields, (f"{self.name} size", self.size)]


# One node of the search's table; NaN in terminal_value or stop_value stands for None.
NODE = Layout("Node", x="d", y="d", terminal_value="d", stop_value="d", prior=f"{N_ACTIONS}d", w=f"{N_ACTIONS}d",
              mean=f"{N_ACTIONS}d", n=f"{N_ACTIONS}q", total="q", children=f"{N_ACTIONS}i", depth="i")
SEARCH = Layout("Search", nodes="P", hypot="P", n_rollouts="q", k="q", height="q", width="q", goal_size="q", x0="d",
                y0="d", c_puct="d", kappa="d", death_value="d", goal_value="d", beta="d", diag="d",
                moves=f"{2 * N_ACTIONS}d")
# One predicted frame for the search: its mask's address and its goal estimate, NaN goal_x for none.
FRAME = Layout("Frame", occ="P", goal_x="d", goal_y="d")
STEP = Layout("Step", x="d", y="d", action="q", kind="q")
PLAY = Layout("Play", search=SEARCH, frames="P", palettes="P", origin="q", n_frames="q", n_times="q", uniforms="P",
              actions="P", steps="P", n_given="q", first="q", stride="q", max_steps="q", temperature="d", t="q",
              pending="q", searches="q")
WORLD = Layout("World", height="q", width="q", n_lanes="q", goal_size="q", spawn="P", classes="P", lam="d",
               capacity="q", n_rows="q", goal_x="d", goal_y="d", n_drawn="q")
FRAME_READ = Layout("FrameRead", sum_x="q", sum_y="q", mask="0B")

# What each source's layout table lists: its structs' entries, then constants by their C names.
_TABLES = {
    "lanenav_search_layout": (NODE, SEARCH, FRAME, STEP, PLAY, ("N_ACTIONS", N_ACTIONS), ("MAX_DEPTH", MAX_DEPTH),
                              ("GOAL", GOAL), ("PLAY_ENDED", PLAY_ENDED), *((k, i) for i, k in enumerate(OUTCOMES))),
    "lanenav_world_layout": (WORLD, FRAME, FRAME_READ, ("GOAL", GOAL), ("N_COLUMNS", N_COLUMNS),
                             ("N_LANE_COLUMNS", N_LANE_COLUMNS), ("MAX_LEN1", MAX_LEN1)),
}

# What a negative kernel return raises: the ERR_* of _search.c (-1..-7), the errors Python's own arithmetic
# raised there, then those of _world.c (-8..-14).
ERRORS = {
    -1: (OverflowError, "math range error"),
    -2: (ZeroDivisionError, "float division by zero"),
    -3: (ValueError, "cannot convert float NaN to integer"),
    -4: (ValueError, f"rollout_length must be in 1..{MAX_DEPTH}"),
    -5: (ValueError, "max() arg is an empty sequence"),
    -6: (MemoryError, "select"),
    -7: (ValueError, f"action must be in 0..{N_ACTIONS - 1}"),
    -8: (ValueError, "obstacle table: a lane index outside the lane table, or not a whole number"),
    -9: (ValueError, f"obstacle table: a LEN1 that is NaN or outside 0..{MAX_LEN1}"),
    -10: (ValueError, "a lane row outside the grid"),
    -11: (ValueError, "spawn counts past the uniforms or rows given"),
    -12: (MemoryError, "world step"),
    -13: (ValueError, "cannot convert float NaN to integer"),
    -14: (OverflowError, "cannot convert float infinity to integer"),
}

# Each kernel function's arguments, a struct or buffer given as bytes or a ctypes buffer, or for the world's
# kernels also as an address; each returns an int64.
_SIGNATURES = {
    "lanenav_search": (ctypes.c_char_p,) * 2,
    "lanenav_select": (ctypes.c_void_p, ctypes.c_int64, ctypes.c_double, ctypes.c_double),
    "lanenav_play": (ctypes.c_char_p,),
    "lanenav_world_step": (ctypes.c_void_p,) * 3,
    "lanenav_rasterize": (ctypes.c_void_p,) * 6,
    "lanenav_read_frame": (ctypes.c_void_p,) * 3,
}


def check(code: int) -> int:
    """A kernel's return ``code``, or where it is negative, the error ``ERRORS`` gives it, raised."""
    if code < 0:
        error, message = ERRORS[code]
        raise error(message)
    return code


def _command(target: str, sources: tuple[Path, ...] = _SOURCES) -> list[str]:
    """The compiler command that builds the kernels of ``sources`` into ``target``.

    No contraction into fused multiply-adds and no fast-math: the kernels
    keep the bits of IEEE arithmetic evaluated in source order. Vectorized
    loops compute each element as the scalar loop does. Linking numpy's own
    ``libnpyrandom.a`` keeps the world's draws equal to ``Generator``'s.
    """
    return ["cc", "-O2", "-ftree-vectorize", "-ffp-contract=off", "-shared", "-fPIC", "-I", np.get_include(),
            "-o", target, *map(str, sources), str(_ARCHIVE), "-lm"]


def _compile(command: list[str]) -> None:
    """Run the compiler ``command``; an ImportError names it and gives its output."""
    try:
        done = subprocess.run(command, capture_output=True, text=True)
    except OSError as exc:
        raise ImportError(f"cannot build the C kernels: {shlex.join(command)}: {exc}") from exc
    if done.returncode:
        raise ImportError(f"cannot build the C kernels: {shlex.join(command)} exited with "
                          f"{done.returncode}:\n{done.stderr}")


def _load_kernel(cache: Path = _CACHE, sources: tuple[Path, ...] = _SOURCES) -> ctypes.CDLL:
    """The shared object of ``sources``, compiled into ``cache`` unless built there before.

    The object is named ``_kernel.<interpreter tag>-np<numpy version>-<key>.so``. Concurrent first loads
    each compile to their own temporary name and move it into place with ``os.replace``, so every process
    loads a whole object. A build then removes the other objects of its interpreter tag and numpy version
    in ``cache``, which earlier sources built, and those named before the numpy version was part of the
    name; the objects of another interpreter or numpy stay. Where the object is removed between the build
    or the check for it and the load, the load builds it once more.
    """
    try:
        archive = _ARCHIVE.read_bytes()
    except OSError as exc:
        raise ImportError(f"cannot build the C kernels: numpy's random library {_ARCHIVE}: {exc.strerror}") from exc
    texts = tuple(source.read_bytes() for source in sources)
    tag, numpy_tag = sys.implementation.cache_tag, f"np{np.__version__}"
    inputs = (texts, _command("", sources), tag, np.__version__, hashlib.sha256(archive).hexdigest())
    key = hashlib.sha256(repr(inputs).encode()).hexdigest()[:16]
    target = cache / f"_kernel.{tag}-{numpy_tag}-{key}.so"
    for attempt in (1, 2):
        if not target.exists():
            _build(target, sources)
            stale = re.compile(rf"_kernel\.{re.escape(tag)}-({re.escape(numpy_tag)}-)?[0-9a-f]{{16}}\.so")
            for path in cache.glob(f"_kernel.{tag}-*.so"):
                if path != target and stale.fullmatch(path.name):
                    with contextlib.suppress(FileNotFoundError):  # a concurrent load removed it first
                        path.unlink()
        try:
            return ctypes.CDLL(str(target))
        except OSError:
            if attempt == 2 or target.exists():
                raise


def _build(target: Path, sources: tuple[Path, ...]) -> None:
    """Compile ``sources`` into ``target`` through a temporary file in its directory."""
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=target.name + ".", suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        _compile(_command(tmp, sources))
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _check_layout(library: ctypes.CDLL) -> None:
    """Raise ImportError at the first entry of a source's layout table that differs from its declaration."""
    for table, items in _TABLES.items():
        expected = [entry for item in items for entry in (item.entries() if isinstance(item, Layout) else [item])]
        count = ctypes.c_int64.in_dll(library, table + "_count").value
        for (what, value), got in zip(expected, (ctypes.c_int64 * count).in_dll(library, table)):
            if got != value:
                raise ImportError(f"{library._name}: {what} is {got} in C, {value} in Python")
        if count != len(expected):
            raise ImportError(f"{library._name}: {table} has {count} entries in C, {len(expected)} in Python")


library = _load_kernel()
_check_layout(library)
for _name, _argtypes in _SIGNATURES.items():
    getattr(library, _name).restype, getattr(library, _name).argtypes = ctypes.c_int64, _argtypes


def zeroed(size: int) -> ctypes.Array:
    """A zeroed ctypes buffer of ``size`` bytes; its type is made once per size."""
    kind = _BUFFER_TYPES.get(size)
    if kind is None:
        kind = _BUFFER_TYPES[size] = ctypes.c_char * size
    return kind()
