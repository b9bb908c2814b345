"""The package's C kernels, built into one shared object, and the one declaration of their interface.

``_search.c`` holds the planner's search and pick and the episode loop, ``_world.c`` the world's step,
rasterizer, frame reader, a timeline's frame loop and the trace files' RLE frame codec. On first import this module compiles both with the
system C compiler into one object, against numpy's headers and linked with the installed numpy's
``libnpyrandom.a``, whose samplers the world's step draws with. The object is cached under ``__pycache__``,
keyed by a hash of both sources, ``HEADER``, the compiler command, the interpreter tag, the numpy version
and the archive's bytes; later imports load it, and a build removes the objects of earlier builds for the
same interpreter and numpy. A missing archive raises ImportError, as a failed build does. ``library`` is
the object, and ``zeroed`` makes the kernels' buffers.

No other module and neither source declares the interface: here are the structs the two sides share
(``Layout``), the constants both use, the kernels' errors (``ERRORS``, raised by ``check``) and their
functions' signatures. ``HEADER`` is the C side of these declarations, generated from them and included
ahead of each source by the build: the constants' ``#define``s, the outcome enum and one ``typedef`` per
``Layout``, with a static assertion of every field offset and struct size at the value Python's ``struct``
packs with. A layout that C lays out differently fails the build, and so the import, with the compiler's
message naming ``Struct.field``. Adding a field is one edit here.
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
MAX_LEN1 = 2147483647  # the largest body length - 1 the world kernels index with; its cells are exact in doubles
PLAY_ENDED = 1  # lanenav_play's return when the last step met a terminal outcome
NEED_ROOM = 2  # lanenav_play's return when the next frame of its timeline has no room yet
RLE_ROOM = 6  # the bytes of RLE text lanenav_frame_to_rle may write per cell of its frame
BAD_RLE_TOKEN = -1  # lanenav_rle_to_frame's return for a line whose grammar or a token's range fails
# How far past a wall the goal may step before its reflection refuses it: world.MAX_GRID + world.MAX_GOAL_SPEED,
# farther than the goal of any valid world or velocity model's extrapolation gets.
GOAL_REACH = 256.0
# A step's outcome kind by its C name: lanenav_play writes a Step's kind as its index here.
OUTCOMES = {"RUNNING": "running", "GOAL_REACHED": "goal", "DIED": "died", "TIMED_OUT": "timeout"}

# The C type of each struct code a Layout's fields use, besides pointers, which name theirs.
_C_TYPES = {"d": "double", "q": "int64_t", "Q": "uint64_t", "i": "int32_t", "B": "uint8_t"}


class Layout:
    """A C struct: its fields in order at C's alignment, each a ``struct`` format, a nested ``Layout``, or
    for a pointer ``("P", its C type)``.

    ``struct`` packs the whole struct, ``size`` is its sizeof and ``offsets`` holds each field's;
    ``typedef`` declares it in C. Every struct here aligns to 8 bytes, as the trailing ``0P`` pads.
    """

    def __init__(self, name: str, **fields: str | tuple[str, str] | Layout) -> None:
        self.name = name
        self.formats, self.declarations = {}, {}
        for field, code in fields.items():
            if isinstance(code, Layout):
                self.formats[field], self.declarations[field] = code.struct.format, f"{code.name} {field}"
            elif isinstance(code, tuple):
                self.formats[field], c_type = code
                self.declarations[field] = c_type + ("" if c_type.endswith("*") else " ") + field
            else:
                count, kind = re.fullmatch(r"(\d*)(\w)", code).groups()
                self.formats[field] = code
                self.declarations[field] = f"{_C_TYPES[kind]} {field}" + (
                    "" if not count else "[]" if count == "0" else f"[{count}]")
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

    def typedef(self) -> str:
        """The struct's C typedef, then a static assertion of each field's offset and of its size, at the
        values ``struct`` packs with; the compiler names the ``Struct.field`` whose assertion fails."""
        fields = "".join(f"    {declaration};\n" for declaration in self.declarations.values())
        return "\n".join([f"typedef struct {{\n{fields}}} {self.name};",
                          *(f'_Static_assert(offsetof({self.name}, {field}) == {offset}, "{self.name}.{field}");'
                            for field, offset in self.offsets.items()),
                          f'_Static_assert(sizeof({self.name}) == {self.size}, "sizeof {self.name}");'])


# One node of the search's table; NaN in terminal_value or stop_value stands for None. mean is w / n, 0.0
# while unvisited; children holds each child's row, -1 for none. cp is c_puct * prior, set with prior, and
# scale is sqrt(total), set with total: the two factors of the search's exploration term, kept so that a
# descent reads them instead of computing them.
NODE = Layout("Node", x="d", y="d", terminal_value="d", stop_value="d", prior=f"{N_ACTIONS}d", cp=f"{N_ACTIONS}d",
              w=f"{N_ACTIONS}d", mean=f"{N_ACTIONS}d", n=f"{N_ACTIONS}q", total="q", scale="d",
              children=f"{N_ACTIONS}i", depth="i")
# One slot of a search's prior table: the bits of the key (dx, dy, kappa), (dx, dy) being the goal estimate
# minus the position, then the goal prior it gives.
PRIOR = Layout("Prior", dx="Q", dy="Q", kappa="Q", prior=f"{N_ACTIONS}d")
# The settings of one search, packed by mcts.run_search. nodes: room for n_rollouts + 1 rows, a rollout adding
# at most one node, or for the full tree of depth k where that is fewer. priors: the caller's prior table,
# n_priors slots, a power of two, zeroed when made. goal_size: the side of each estimate's goal block.
# moves: (dx, dy) of each action.
SEARCH = Layout("Search", nodes=("P", "Node *"), priors=("P", "Prior *"), hypot=("P", "hypot_fn"), n_rollouts="q",
                k="q", height="q", width="q", goal_size="q", n_priors="q", x0="d", y0="d", c_puct="d", kappa="d",
                death_value="d", goal_value="d", beta="d", diag="d", moves=f"{2 * N_ACTIONS}d")
# One predicted frame for the search: its mask's address, height x width bytes, nonzero where occupied, and
# its goal estimate, NaN goal_x for none.
FRAME = Layout("Frame", occ=("P", "const uint8_t *"), goal_x="d", goal_y="d")
# One step of an episode: the agent's position after it, its action and the outcome kind it met.
STEP = Layout("Step", x="d", y="d", action="q", kind="q")
# One world as the world's kernels read it: the grid, the lanes, the goal's size (0: no goal painted), the
# step's two generators and Poisson mean; then what changes between calls: the rows the table's buffer holds,
# the table's rows, the goal's position and velocity; last what a step writes, the candidates it drew.
WORLD = Layout("World", height="q", width="q", n_lanes="q", goal_size="q", spawn=("P", "bitgen_t *"),
               classes=("P", "bitgen_t *"), lam="d", capacity="q", n_rows="q", goal_x="d", goal_y="d",
               goal_vx="d", goal_vy="d", n_drawn="q")
# A timeline's world as lanenav_advance simulates it (world.Timeline): the world, its lane and obstacle tables;
# the palette frame and record of each time t < n_frames, the cells of frame n_frames, each later frame stride
# bytes on with its FrameRead read_at bytes in, up to frame room; the raw Poisson total of its steps.
TIMELINE = Layout("Timeline", world=WORLD, lanes=("P", "const double *"), table=("P", "double *"),
                  palettes=("P", "const uint8_t **"), records=("P", "Frame *"), cells=("P", "uint8_t *"), read_at="q",
                  stride="q", n_frames="q", room="q", spawn_draws="q")
# A run of an episode's steps, packed by harness.py: the planner's search settings, whose (x0, y0) is the
# agent's start; the timeline it advances; what the harness updates; what stays; what the kernel writes back.
PLAY = Layout("Play", search=SEARCH, timeline=("P", "Timeline *"),
              frames=("P", "const Frame *"),  # the model's k frames of decision time origin; NULL: the timeline's
              origin="q",
              uniforms=("P", "const double *"),  # the planner's uniform draw for its pick at time t, t < n_given
              actions=("P", "const int64_t *"),  # the action taken at time t, t < n_given; NULL: the planner picks
              steps=("P", "Step *"),  # room for max_steps: the step from time t at steps[t]
              n_given="q",
              first="q", stride="q",  # the frame of depth d + 1 at time t is that of time t + first + stride * d
              max_steps="q", temperature="d",
              t="q",  # the time of the next step
              pending="q",  # the action of time t taken before its frame t + 1 was simulated, -1 for none
              decisions="q")  # the planner's decisions so far: its searches, and one whose frames failed
# What lanenav_read_frame writes: the column and row sums of the goal cells, then the obstacle mask, 1 on cells
# of values 1..GOAL - 1.
FRAME_READ = Layout("FrameRead", sum_x="q", sum_y="q", mask="0B")

# The C declarations of all the above, which the build includes ahead of each source; neither source
# declares any of them.
HEADER = "\n".join([
    "/* Generated by lanenav/kernel.py from its declarations. */",
    "#include <stddef.h>", "#include <stdint.h>", '#include "numpy/random/bitgen.h"',
    *(f"#define {name} {globals()[name]}"
      for name in ("N_ACTIONS MAX_DEPTH GOAL N_COLUMNS N_LANE_COLUMNS MAX_LEN1 PLAY_ENDED NEED_ROOM RLE_ROOM "
                 "BAD_RLE_TOKEN GOAL_REACH").split()),
    f"enum {{ {', '.join(OUTCOMES)} }};",
    "typedef double (*hypot_fn)(double, double);",
    *(layout.typedef() for layout in (NODE, PRIOR, SEARCH, FRAME, STEP, WORLD, TIMELINE, PLAY, FRAME_READ)),
]) + "\n"

# What a negative kernel return raises: the ERR_* of _search.c (-1..-7), the errors Python's own arithmetic
# raised there, then those of _world.c (-8..-16).
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
    -15: (ValueError, "lam value too large"),
    -16: (ValueError, f"goal position more than {GOAL_REACH:g} cells outside its walls"),
}

# Each kernel function's arguments, a struct or buffer given as bytes or a ctypes buffer, or for the world's
# kernels also as an address; each returns an int64.
_SIGNATURES = {
    "lanenav_search": (ctypes.c_char_p,) * 2,
    "lanenav_select": (ctypes.c_void_p, ctypes.c_int64, ctypes.c_double, ctypes.c_double),
    "lanenav_play": (ctypes.c_char_p,),
    "lanenav_world_step": (ctypes.c_void_p,) * 3,
    "lanenav_rasterize": (ctypes.c_void_p,) * 6,
    "lanenav_advance": (ctypes.c_void_p, ctypes.c_int64),
    "lanenav_read_frame": (ctypes.c_void_p,) * 3,
    "lanenav_frame_to_rle": (ctypes.c_char_p, ctypes.c_int64, ctypes.c_void_p),
    "lanenav_rle_to_frame": (ctypes.c_char_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p),
}


def check(code: int) -> int:
    """A kernel's return ``code``, or where it is negative, the error ``ERRORS`` gives it, raised."""
    if code < 0:
        error, message = ERRORS[code]
        raise error(message)
    return code


def _command(target: str, sources: tuple[Path, ...] = _SOURCES) -> list[str]:
    """The compiler command that builds the kernels of ``sources`` into ``target``, each source read after
    ``target + ".h"``, which holds ``HEADER``.

    No contraction into fused multiply-adds and no fast-math: the kernels
    keep the bits of IEEE arithmetic evaluated in source order. ``-O3``
    keeps them too: without fast-math the compiler may not reassociate,
    contract or reorder a float expression, so its inlining, unrolling and
    vectorized loops compute each element as the scalar source does; and
    without ``__FAST_MATH__`` glibc declares no vector variants of libm, so
    ``exp``, ``cos``, ``log`` and ``atan2`` stay the scalar calls that
    Python's ``math`` makes. Linking numpy's own ``libnpyrandom.a`` keeps
    the world's draws equal to ``Generator``'s.
    """
    return ["cc", "-O3", "-ffp-contract=off", "-shared", "-fPIC", "-I", np.get_include(),
            "-include", f"{target}.h", "-o", target, *map(str, sources), str(_ARCHIVE), "-lm"]


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
    inputs = (texts, HEADER, _command("", sources), tag, np.__version__, hashlib.sha256(archive).hexdigest())
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
    """Compile ``sources`` into ``target`` through a temporary file in its directory, with ``HEADER`` written
    beside it for the build."""
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=target.name + ".", suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        Path(f"{tmp}.h").write_text(HEADER)
        _compile(_command(tmp, sources))
        os.replace(tmp, target)
    finally:
        for path in (tmp, f"{tmp}.h"):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)


library = _load_kernel()
for _name, _argtypes in _SIGNATURES.items():
    getattr(library, _name).restype, getattr(library, _name).argtypes = ctypes.c_int64, _argtypes


def zeroed(size: int) -> ctypes.Array:
    """A zeroed ctypes buffer of ``size`` bytes; its type is made once per size."""
    kind = _BUFFER_TYPES.get(size)
    if kind is None:
        kind = _BUFFER_TYPES[size] = ctypes.c_char * size
    return kind()
