"""The package's C kernels, built into one shared object, and the one declaration of their interface.

``_search.c`` holds the planner's search and pick and the episode loop, ``_world.c`` the world's step,
rasterizer, frame reader, a timeline's frame loop and the trace files' RLE frame codec. On first import this module compiles both with the
system C compiler into one object, against numpy's headers and linked with the installed numpy's
``libnpyrandom.a``, whose samplers the world's step draws with. The object is cached under ``__pycache__``,
keyed by a hash of both sources, ``HEADER``, the compiler command, the interpreter tag, the numpy version
and the archive's bytes; later imports load it, and a build removes the objects of earlier builds for the
same interpreter and numpy. A missing archive raises ImportError, as a failed build does. ``library`` is
the object, and ``zeroed`` makes the kernels' buffers.

No other module and neither source declares the interface: here are the structs the two sides share, each a
``Layout``: a ``ctypes.Structure`` whose fields Python reads and sets by name, ``np.dtype`` of it being a table's
dtype (the node table's is ``np.dtype(NODE)``). Here too are the constants both use, the tables' columns, the
kernels' error codes (``ERRORS``, raised by ``check``) and their functions' parameter types (``FUNCTIONS``), from
which ctypes' argument types are derived. ``HEADER`` is the C side of these declarations, generated from them and
included ahead of each source by the build: the constants' and error codes' ``#define``s, the enums of the
outcomes and of the columns, one ``typedef`` per ``Layout``, with a static assertion of every field offset and
struct size at the value ctypes lays it out with, and each function's prototype. A layout that C lays out
differently fails the build, and so the import, with the compiler's message naming ``Struct.field``; a function
defined with other types than its prototype fails it with "conflicting types" naming the function. Adding a
constant, a code or a column is one edit here; adding a field to a struct such as ``World``, ``Search`` or
``Play`` is one edit here plus the code that sets it by name.
"""
from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import re
import shlex
import subprocess
import sys
import tempfile
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
MAX_LEN1 = 2147483647  # the largest body length - 1 the world kernels index with; its cells are exact in doubles
PLAY_STOPPED = 0  # lanenav_play's return when a draw, an action or the model's frames a step needs are not there
PLAY_ENDED = 1  # lanenav_play's return when the last step met a terminal outcome
NEED_ROOM = 2  # lanenav_play's return when the next frame of its timeline has no room yet
RLE_ROOM = 6  # the bytes of RLE text lanenav_frame_to_rle may write per cell of its frame
# lanenav_rle_to_frame's returns for a line with a token that is not "value:count" of ASCII digits, and for one
# with a token whose value is past GOAL or whose count is past the frame's cells; it writes where the token starts.
BAD_RLE_GRAMMAR = -1
BAD_RLE_RANGE = -2
# How far past a wall the goal may step before its reflection refuses it: world.MAX_GRID + world.MAX_GOAL_SPEED,
# farther than the goal of any valid world or velocity model's extrapolation gets.
GOAL_REACH = 256.0
# A step's outcome kind by its C name: lanenav_play writes a Step's kind as its index here.
OUTCOMES = {"RUNNING": "running", "GOAL_REACHED": "goal", "DIED": "died", "TIMED_OUT": "timeout"}
# The obstacle table's columns by their C names, one row of doubles per body: x of the largest-x cell, the body
# covering head - i for i = 0..length - 1; the speed, signed, its sign the lane's direction for positive
# magnitudes; length - 1; the body's row of the lane table (WorldState.lanes).
OBSTACLE_COLUMNS = ("HEAD", "SPEED", "LEN1", "LANE")
# The lane table's columns, one row of doubles per lane: what a spawn draws from (length low and range, speed
# magnitude low and range: Generator.uniform's low and high - low), the direction, the pixel row and the palette value.
LANE_COLUMNS = ("LEN_LO", "LEN_RANGE", "SPEED_LO", "SPEED_RANGE", "DIRECTION", "ROW", "VALUE")
N_COLUMNS, N_LANE_COLUMNS = len(OBSTACLE_COLUMNS), len(LANE_COLUMNS)
# Each column's index under its name, as C's enums give it: HEAD, SPEED, LEN1, LANE, LEN_LO and so on.
globals().update((name, index) for columns in (OBSTACLE_COLUMNS, LANE_COLUMNS) for index, name in enumerate(columns))

# Each struct code a Layout's fields use, besides pointers: its C type and its ctypes type.
_TYPES = {"d": ("double", ctypes.c_double), "q": ("int64_t", ctypes.c_int64), "Q": ("uint64_t", ctypes.c_uint64),
          "i": ("int32_t", ctypes.c_int32), "B": ("uint8_t", ctypes.c_uint8)}


class Layout(type(ctypes.Structure)):
    """A C struct: ``Layout(name, **fields)`` is a ``ctypes.Structure`` class of the fields in order, each a
    count and a ``_TYPES`` code (``"8d"`` an array, ``"0B"`` a zero-length one), a nested ``Layout``, or for a
    pointer ``("P", its C type)``, a ``c_void_p``.

    Python reads and sets its fields by name; ``ctypes.sizeof`` gives its size, ``np.dtype`` of it the dtype
    of a table of its rows, and ``typedef`` declares it in C.
    """

    def __new__(mcls, name: str, **fields: str | tuple[str, str] | Layout) -> Layout:
        members, declarations = [], {}
        for field, code in fields.items():
            if isinstance(code, Layout):
                kind, declarations[field] = code, f"{code.__name__} {field}"
            elif isinstance(code, tuple):
                kind, c_type = ctypes.c_void_p, code[1]
                declarations[field] = c_type + ("" if c_type.endswith("*") else " ") + field
            else:
                count, letter = re.fullmatch(r"(\d*)(\w)", code).groups()
                c_type, kind = _TYPES[letter]
                kind = kind * int(count) if count else kind
                declarations[field] = f"{c_type} {field}" + (
                    "" if not count else "[]" if count == "0" else f"[{count}]")
            members.append((field, kind))
        return super().__new__(mcls, name, (ctypes.Structure,), {"_fields_": members, "_declarations_": declarations})

    def __init__(cls, name: str, **fields) -> None:
        super().__init__(name, (ctypes.Structure,), {})

    def typedef(cls) -> str:
        """The struct's C typedef, then a static assertion of each field's offset and of its size, at the
        values ctypes lays it out with; the compiler names the ``Struct.field`` whose assertion fails."""
        name = cls.__name__
        fields = "".join(f"    {declaration};\n" for declaration in cls._declarations_.values())
        return "\n".join([f"typedef struct {{\n{fields}}} {name};",
                          *(f'_Static_assert(offsetof({name}, {field}) == {getattr(cls, field).offset}, '
                            f'"{name}.{field}");' for field in cls._declarations_),
                          f'_Static_assert(sizeof({name}) == {ctypes.sizeof(cls)}, "sizeof {name}");'])


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
# The settings of one search, built by mcts._search. nodes: room for n_rollouts + 1 rows, a rollout adding
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
# A run of an episode's steps, set by harness.py: the planner's search settings, whose (x0, y0) is the
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

# What a negative kernel return raises, by the code's C name: (code, exception, message). The search's codes
# raise what Python's own arithmetic raised where the planner ran in Python.
ERRORS = {
    "ERR_OVERFLOW": (-1, OverflowError, "math range error"),  # an exp overflowed
    # Shaping on a 1 x 1 grid, a zero temperature or no visits.
    "ERR_ZERO_DIV": (-2, ZeroDivisionError, "float division by zero"),
    "ERR_NAN_POS": (-3, ValueError, "cannot convert float NaN to integer"),  # a move gave a NaN position
    "ERR_DEPTH": (-4, ValueError, f"rollout_length must be in 1..{MAX_DEPTH}"),
    "ERR_EMPTY": (-5, ValueError, "max() arg is an empty sequence"),  # no visit counts to pick from
    "ERR_SELECT_MEMORY": (-6, MemoryError, "select"),
    "ERR_ACTION": (-7, ValueError, f"action must be in 0..{N_ACTIONS - 1}"),  # a given action outside them
    "ERR_LANE": (-8, ValueError, "obstacle table: a lane index outside the lane table, or not a whole number"),
    "ERR_LENGTH": (-9, ValueError, f"obstacle table: a LEN1 that is NaN or outside 0..{MAX_LEN1}"),
    "ERR_ROW": (-10, ValueError, "a lane row outside the grid"),
    # The spawns ask for more rows than the buffer holds.
    "ERR_DRAWS": (-11, ValueError, "spawn counts past the uniforms or rows given"),
    "ERR_STEP_MEMORY": (-12, MemoryError, "world step"),
    "ERR_GOAL_NAN": (-13, ValueError, "cannot convert float NaN to integer"),
    "ERR_GOAL_INF": (-14, OverflowError, "cannot convert float infinity to integer"),
    "ERR_LAM": (-15, ValueError, "lam value too large"),  # a Poisson mean past numpy's POISSON_LAM_MAX, or NaN
    "ERR_GOAL_FAR": (-16, ValueError, f"goal position more than {GOAL_REACH:g} cells outside its walls"),
}
_RAISES = {code: (error, message) for code, error, message in ERRORS.values()}

# Each kernel function's C parameter types; each returns an int64_t. ctypes passes each argument as _CTYPES gives
# its type, any other pointer as c_void_p: bytes, a ctypes buffer, an address or None.
FUNCTIONS = {
    "lanenav_search": ("const Search *", "const Frame *"),
    "lanenav_select": ("const int64_t *", "int64_t", "double", "double"),
    "lanenav_play": ("Play *",),
    "lanenav_world_step": ("World *", "const double *", "double *"),
    "lanenav_rasterize": ("const World *", "const double *", "const double *", "uint8_t *", "FrameRead *", "Frame *"),
    "lanenav_advance": ("Timeline *", "int64_t"),
    "lanenav_read_frame": ("const World *", "const uint8_t *", "FrameRead *"),
    "lanenav_frame_to_rle": ("const uint8_t *", "int64_t", "char *"),
    "lanenav_rle_to_frame": ("const char *", "int64_t", "int64_t", "uint8_t *", "int64_t *"),
}
_CTYPES = {"const char *": ctypes.c_char_p, "int64_t": ctypes.c_int64, "double": ctypes.c_double}

# The C declarations of all the above, which the build includes ahead of each source; neither source
# declares any of them, and a definition that differs from its prototype here fails the build.
HEADER = "\n".join([
    "/* Generated by lanenav/kernel.py from its declarations. */",
    "#include <stddef.h>", "#include <stdint.h>", '#include "numpy/random/bitgen.h"',
    *(f"#define {name} {globals()[name]}"
      for name in ("N_ACTIONS MAX_DEPTH GOAL N_COLUMNS N_LANE_COLUMNS MAX_LEN1 PLAY_STOPPED PLAY_ENDED NEED_ROOM "
                   "RLE_ROOM BAD_RLE_GRAMMAR BAD_RLE_RANGE GOAL_REACH").split()),
    *(f"#define {name} ({code})" for name, (code, _, _) in ERRORS.items()),
    *(f"enum {{ {', '.join(names)} }};" for names in (OUTCOMES, OBSTACLE_COLUMNS, LANE_COLUMNS)),
    "typedef double (*hypot_fn)(double, double);",
    *(layout.typedef() for layout in (NODE, PRIOR, SEARCH, FRAME, STEP, WORLD, TIMELINE, PLAY, FRAME_READ)),
    *(f"int64_t {name}({', '.join(parameters)});" for name, parameters in FUNCTIONS.items()),
]) + "\n"


def check(code: int) -> int:
    """A kernel's return ``code``, or where it is negative, the error ``ERRORS`` gives it, raised."""
    if code < 0:
        error, message = _RAISES[code]
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
for _name, _types in FUNCTIONS.items():
    _function = getattr(library, _name)
    _function.restype = ctypes.c_int64
    _function.argtypes = [_CTYPES.get(t, ctypes.c_void_p) if t.endswith("*") else _CTYPES[t] for t in _types]


def zeroed(size: int) -> ctypes.Array:
    """A zeroed ctypes buffer of ``size`` bytes; its type is made once per size."""
    kind = _BUFFER_TYPES.get(size)
    if kind is None:
        kind = _BUFFER_TYPES[size] = ctypes.c_char * size
    return kind()
