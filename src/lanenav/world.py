"""Dynamic lane-crossing navigation environment.

A 48x48 pixel world. Horizontal lanes carry obstacles that enter at one edge,
cross at a constant per-obstacle speed, and are deleted once their whole body
has left the grid. Arrivals per lane per step are Poisson with rate
``level * spawn_base_rate``. A 2x2 goal drifts at constant speed and reflects
off the walls. The agent moves continuously in one of 8 compass directions;
collision and goal checks are quantized to the nearest pixel.

The obstacles are one float64 table, ``WorldState.obstacles``, one row per
body with the columns ``HEAD``, ``SPEED``, ``LEN1`` (length - 1) and ``LANE``.
One engine, ``world_step``, moves, removes and spawns on the whole table,
then moves the goal; the warm-up of ``new_episode`` is ``warmup_steps``
calls of it. Body cell i sits at column ``round_px(head - i)``,
i = 0..length-1, and the rasterizer is the only place that rule is applied:
the frame and the agent's free start cell read it, and the agent's collision
reads the frame. At an exact half-pixel tie where a body crosses x = 0, the
cells at 0.5 and -0.5 round to columns 1 and -1, so column 0 stays free
while the visible run stays contiguous.
A spawn is rejected only if it overlaps a body of its lane at its spawn step;
bodies keep their own speeds afterwards, so a faster body overtakes a slower
one and same-lane bodies may overlap.

The step (the table with its random draws, then the goal's reflection), the
rasterizer, the frame reader and a timeline's frame loop run in C
(``_world.c``, built by ``kernel`` into the package's one shared object). The
step draws through the state's numpy generators with numpy's own samplers
(``libnpyrandom.a``), so its draws and the generators' states are those of
``Generator.poisson`` and ``Generator.random``. The kernels keep the float
arithmetic of the former Python code bit for bit: the goal reflects as
``reflect_axis`` does; ``round_px`` is ``floor(x + 0.5)``, or ``ceil(x - 0.5)``
below zero, in double; cell i is ``head - (double)i``; the object is built
without fused multiply-adds; spawned rows follow the kept rows in lane order,
then draw order; a goal centre is the integer pixel sums over the count. A
table row whose lane index is outside the lane table or whose length is NaN
raises ``ValueError``, so the kernels never index outside a buffer.

World dynamics are action-independent: ``world_step`` never looks at the
agent, so the frame sequence of an episode is a function of (config, episode
seed) only. That property is what lets one predicted rollout serve every
branch of a planner search, and it is used once, by ``Timeline``: the world of
an episode is simulated once and every reader (the episode runner, the
models, every benchmark cell on the same seed) shares its frames.

Of the agent, the world state keeps only the start cell, and
``action_to_velocity`` gives its step per action. The agent's rule (a step
clamped to the grid, and its outcome read from the pixel it lands on in the
next frame: goal, obstacle, then the step limit) lives in the harness's one
episode loop, the C kernel ``lanenav_play``, which simulates and reads the
``Timeline``'s frames where they lie.

Coordinates are (x, y) with x the column and y the row; frames are indexed
``frame[y, x]``. All quantization uses round-half-away-from-zero.
"""
from __future__ import annotations

import ctypes
import math
import sys
from array import array
from dataclasses import dataclass, replace

import numpy as np

from .kernel import (FRAME, FRAME_READ, GOAL, GOAL_REACH, HEAD, LANE, LANE_COLUMNS, LEN1, N_ACTIONS, N_COLUMNS,
                     N_LANE_COLUMNS, OUTCOMES, SPEED, TIMELINE, WORLD, check, library, zeroed)
from .seeding import STREAM_CLASS, STREAM_PLACE, STREAM_SPAWN, clone_rng, substream

# Frame palette values: FREE, the obstacle classes' 1..5, and GOAL (6).
FREE = 0

# Lane directions: sign of obstacle travel along x.
LEFT_TO_RIGHT = 1
RIGHT_TO_LEFT = -1

# Episode outcome kinds: "running", "goal", "died" and "timeout".
RUNNING, GOAL_REACHED, DIED, TIMED_OUT = OUTCOMES.values()

GOAL_REWARD = 20.0
DEATH_REWARD = -20.0

_PLACEMENT_RETRIES = 1000

# Bounds of the WorldConfig sizes that drive work; at all of them at once a render takes seconds.
MAX_GRID = 128
MAX_WARMUP_STEPS = 5000
MAX_ARRIVALS = 32.0
MAX_BODY = 64
MAX_STEPS = 100_000  # an episode's draws and steps take about 4 MB at this bound
MAX_GOAL_SPEED = float(MAX_GRID)  # the goal's wall reflection makes one pass per grid width travelled
WORLD_INT_KEYS = ("grid_h", "grid_w", "goal_size", "max_steps", "warmup_steps", "master_seed")

_SQ2 = math.sqrt(0.5)
# Unit direction per action a: angle a * 45 degrees, y is the row axis.
_DIRECTIONS = (
    (1.0, 0.0),
    (_SQ2, _SQ2),
    (0.0, 1.0),
    (-_SQ2, _SQ2),
    (-1.0, 0.0),
    (-_SQ2, -_SQ2),
    (0.0, -1.0),
    (_SQ2, -_SQ2),
)


class ConfigError(ValueError):
    """Invalid world or planner configuration."""


def finite(value) -> bool:
    """A number, not a bool, converting to a finite float: NaN fails both comparisons, a huge integer one."""
    return not isinstance(value, (bool, np.bool_)) and -sys.float_info.max <= value <= sys.float_info.max


def fold(values) -> float:
    """Left-fold sum from 0.0: numpy's sum of under 8 floats, and sum() of floats before Python 3.12."""
    total = 0.0
    for value in values:
        total += value
    return total


class PlacementError(RuntimeError):
    """No free cell found for the agent or goal within the retry budget."""


def round_px(x: float) -> int:
    """Round half away from zero, the single quantization rule of the world."""
    return math.floor(x + 0.5) if x >= 0.0 else math.ceil(x - 0.5)


def round_px_array(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0.0, np.floor(x + 0.5), np.ceil(x - 0.5)).astype(np.int64)


def reflect_axis(pos: float, vel: float, lo: float, hi: float) -> tuple[float, float]:
    """Advance-free specular reflection of ``pos`` into [lo, hi].

    Mirrors the overshoot and flips the velocity sign per bounce, so the
    speed magnitude is conserved exactly. Shared by the environment's goal
    update and the forward models' goal extrapolation. On an axis with room
    (hi > lo), a position more than ``GOAL_REACH`` outside [lo, hi], past
    where any valid goal steps, raises ValueError: the mirrors of a position
    near 1e300 round back to their negations and never end.
    """
    if hi <= lo:
        return lo, -vel
    if pos < lo - GOAL_REACH or pos > hi + GOAL_REACH:
        raise ValueError(f"goal position {pos!r} more than {GOAL_REACH:g} cells outside [{lo!r}, {hi!r}]")
    while True:
        if pos < lo:
            pos = 2.0 * lo - pos
            vel = -vel
        elif pos > hi:
            pos = 2.0 * hi - pos
            vel = -vel
        else:
            return pos, vel


@dataclass(frozen=True)
class ObstacleClass:
    """One obstacle family: palette value plus speed/length distributions."""

    class_id: int
    mean_speed: float
    speed_jitter: float
    mean_length: float
    length_jitter: float


# Default class table, slow/short through fast/long. Palette values 1..5.
DEFAULT_CLASSES = (
    ObstacleClass(1, mean_speed=0.5, speed_jitter=0.1, mean_length=1.0, length_jitter=0.0),
    ObstacleClass(2, mean_speed=0.5, speed_jitter=0.1, mean_length=2.0, length_jitter=1.0),
    ObstacleClass(3, mean_speed=1.0, speed_jitter=0.2, mean_length=3.0, length_jitter=1.0),
    ObstacleClass(4, mean_speed=1.0, speed_jitter=0.2, mean_length=4.0, length_jitter=1.0),
    ObstacleClass(5, mean_speed=1.5, speed_jitter=0.3, mean_length=6.0, length_jitter=2.0),
)

# Every other row from 2 to 44: 22 lanes with safe corridor rows between.
DEFAULT_LANE_ROWS = tuple(range(2, 46, 2))


@dataclass(frozen=True)
class WorldConfig:
    """World settings, valid by construction: building one (``replace`` and ``for_speed``
    too) runs ``validate``, which also bounds the sizes that drive work by ``MAX_*``."""

    grid_h: int = 48
    grid_w: int = 48
    level: float = 6.0
    spawn_base_rate: float = 0.015
    lane_rows: tuple[int, ...] = DEFAULT_LANE_ROWS
    obstacle_classes: tuple[ObstacleClass, ...] = DEFAULT_CLASSES
    goal_speed: float = 0.5
    goal_size: int = 2
    agent_speed: float = 1.0
    max_steps: int = 203
    warmup_steps: int = 48
    master_seed: int = 1

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        ints = [(name, getattr(self, name)) for name in WORLD_INT_KEYS] + [("lane_rows", r) for r in self.lane_rows]
        for name, value in ints + [("class_id", cls.class_id) for cls in self.obstacle_classes]:
            if type(value) is not int:
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("level", "spawn_base_rate", "goal_speed", "agent_speed"):
            value = getattr(self, name)
            if not finite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.grid_h <= 0 or self.grid_w <= 0:
            raise ConfigError("grid dimensions must be positive")
        if self.grid_w < 2:
            # On one column a body straddling x = 0 on a half-pixel tie rounds its
            # head to column 1 and its tail to -1: kept, yet it has no visible cell.
            raise ConfigError(f"grid_w must be >= 2, got {self.grid_w}")
        if self.goal_size < 1:
            raise ConfigError("goal_size must be >= 1")
        if self.goal_size > min(self.grid_h, self.grid_w):
            raise ConfigError("goal footprint does not fit in the grid")
        if self.agent_speed <= 0:
            raise ConfigError("agent_speed must be positive")
        if self.max_steps <= 0:
            raise ConfigError("max_steps must be positive")
        if self.level < 0 or self.spawn_base_rate < 0:
            raise ConfigError("level and spawn_base_rate must be non-negative")
        if self.warmup_steps < 0:
            raise ConfigError("warmup_steps must be non-negative")
        if self.goal_speed < 0:
            raise ConfigError("goal_speed must be non-negative")
        # The rate first, as world_step draws it: an integer level times the lane count may overflow a float.
        arrivals = self.level * self.spawn_base_rate * len(self.lane_rows)
        for name, value, bound in (("grid_h", self.grid_h, MAX_GRID), ("grid_w", self.grid_w, MAX_GRID),
                                   ("max_steps", self.max_steps, MAX_STEPS),
                                   ("warmup_steps", self.warmup_steps, MAX_WARMUP_STEPS),
                                   ("goal_speed", self.goal_speed, MAX_GOAL_SPEED),
                                   ("expected arrivals per step, level * spawn_base_rate * len(lane_rows),",
                                    arrivals, MAX_ARRIVALS)):
            if value > bound:
                raise ConfigError(f"{name} must be <= {bound:g}, got {value!r}")
        if len(set(self.lane_rows)) != len(self.lane_rows):
            raise ConfigError("lane_rows must be distinct")
        for row in self.lane_rows:
            if not 0 <= row < self.grid_h:
                raise ConfigError(f"lane row {row} outside grid")
        if not self.obstacle_classes:
            raise ConfigError("at least one obstacle class required")
        for cls in self.obstacle_classes:
            for name in ("mean_speed", "speed_jitter", "mean_length", "length_jitter"):
                value = getattr(cls, name)
                if not finite(value):
                    raise ConfigError(f"class {cls.class_id}: {name} must be finite, got {value!r}")
            for mean_name, jitter_name in (("mean_speed", "speed_jitter"), ("mean_length", "length_jitter")):
                mean, jitter = getattr(cls, mean_name), getattr(cls, jitter_name)
                if jitter < 0:
                    raise ConfigError(f"class {cls.class_id}: {jitter_name} must be non-negative, got {jitter!r}")
                # A spawn draws lo + (hi - lo) * u from [mean - jitter, mean + jitter].
                if not finite((mean + jitter) - (mean - jitter)):
                    raise ConfigError(f"class {cls.class_id}: {mean_name} +- {jitter_name} must be finite")
            if cls.mean_speed <= 0:
                raise ConfigError(f"class {cls.class_id}: mean_speed must be positive")
            if cls.mean_length < 1:
                raise ConfigError(f"class {cls.class_id}: mean_length must be >= 1")
            if cls.mean_length + cls.length_jitter > MAX_BODY:
                raise ConfigError(f"class {cls.class_id}: mean_length + length_jitter must be <= {MAX_BODY}, "
                                  f"got {cls.mean_length + cls.length_jitter!r}")
            if not 1 <= cls.class_id <= 5:
                raise ConfigError(f"class_id {cls.class_id} outside palette range 1..5")

    def for_speed(self, speed: str) -> "WorldConfig":
        """Preset for the two benchmark agents: '1x' or '2x' the goal speed."""
        if speed == "1x":
            return replace(self, agent_speed=0.5, max_steps=407)
        if speed == "2x":
            return replace(self, agent_speed=1.0, max_steps=203)
        raise ConfigError(f"unknown speed preset {speed!r} (expected '1x' or '2x')")


@dataclass(frozen=True)
class Lane:
    row: int
    class_id: int
    direction: int  # LEFT_TO_RIGHT or RIGHT_TO_LEFT


@dataclass
class GoalState:
    x: float  # top-left of the goal_size x goal_size footprint
    y: float
    vx: float
    vy: float


@dataclass(frozen=True)
class Outcome:
    kind: str  # RUNNING, GOAL_REACHED, DIED or TIMED_OUT
    reward: float
    steps_taken: int

    @property
    def is_terminal(self) -> bool:
        return self.kind != RUNNING


_ROW_BYTES = 8 * N_COLUMNS


def _table(state: "WorldState") -> bytes | ctypes.Array:
    """The state's obstacle table as the kernels read it: the buffer ``world_step`` keeps it in, or a checked copy."""
    table = state.obstacles
    if table is state._view:
        return state._buffer
    if table.dtype != np.float64 or table.shape[1:] != (N_COLUMNS,):
        raise ValueError(f"the obstacle table is a float64 (bodies, {N_COLUMNS}) array, got {table.dtype} "
                         f"{table.shape}")
    return table.tobytes()


# The address of a bit generator's ``bitgen_t``, read from its capsule: ``bit_generator.ctypes`` builds a
# namedtuple of ctypes objects on each access, ten times the cost.
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _bitgen_address(bit_generator: np.random.BitGenerator) -> int:
    """Where ``bit_generator``'s ``bitgen_t`` lies, the address ``bit_generator.ctypes.bit_generator`` holds."""
    return _capsule_pointer(bit_generator.capsule, b"BitGenerator")


def _world(state: "WorldState", goal_size: int, draws: bool = False) -> WORLD:
    """The kernels' ``World`` for ``state`` as it stands, the goal painted where ``goal_size`` > 0, and with
    ``draws`` the addresses of the generators' ``bitgen_t`` and the Poisson mean a step draws with; the lane
    count is that of the packed lane table the kernels read."""
    cfg, goal = state.config, state.goal
    world = WORLD(height=cfg.grid_h, width=cfg.grid_w, n_lanes=len(state.lane_table) // (8 * N_LANE_COLUMNS),
                  goal_size=goal_size, n_rows=len(state.obstacles), goal_x=goal.x, goal_y=goal.y, goal_vx=goal.vx,
                  goal_vy=goal.vy)
    if draws:
        world.spawn = _bitgen_address(state.spawn_rng.bit_generator)
        world.classes = _bitgen_address(state.class_rng.bit_generator)
        world.lam = cfg.level * cfg.spawn_base_rate
    return world


class _StateKernel:
    """One state's kernel ``World``, its address and each generator's lock, made on first use and again where
    the state holds other generators. ``world_step`` sets the table and goal in it before each step."""

    __slots__ = ("world", "address", "spawn", "classes", "spawn_rng", "class_rng")

    def __init__(self, state: "WorldState") -> None:
        self.world = _world(state, state.config.goal_size, draws=True)
        self.address = ctypes.addressof(self.world)
        self.spawn, self.classes = state.spawn_rng.bit_generator.lock, state.class_rng.bit_generator.lock
        self.spawn_rng, self.class_rng = state.spawn_rng, state.class_rng


def _kernel(state: "WorldState") -> _StateKernel:
    made = state._kernel
    if made is None or made.spawn_rng is not state.spawn_rng or made.class_rng is not state.class_rng:
        made = state._kernel = _StateKernel(state)
    return made


def _locked(made: _StateKernel, function, *args) -> int:
    """``function(*args)``, a kernel call that draws, with both of ``made``'s generators' locks held, as numpy."""
    made.spawn.acquire()
    made.classes.acquire()
    try:
        return function(*args)
    finally:
        made.classes.release()
        made.spawn.release()


@dataclass
class WorldState:
    config: WorldConfig
    episode_seed: int
    t: int
    lanes: list[Lane]
    obstacles: np.ndarray  # float64 (bodies, 4) table, columns HEAD, SPEED, LEN1, LANE
    goal: GoalState
    start: tuple[float, float]  # the agent's start position; the world never reads it
    spawn_rng: np.random.Generator
    class_rng: np.random.Generator
    spawn_draws: int = 0  # raw Poisson total, before overlap rejection

    def __post_init__(self) -> None:
        # The kernels' lane table (kernel.LANE_COLUMNS), packed once: lanes
        # never change. The first class with the lane's id wins.
        classes = {cls.class_id: cls for cls in reversed(self.config.obstacle_classes)}
        values = []
        for lane in self.lanes:
            cls = classes[lane.class_id]
            len_lo, len_hi = cls.mean_length - cls.length_jitter, cls.mean_length + cls.length_jitter
            speed_lo, speed_hi = cls.mean_speed - cls.speed_jitter, cls.mean_speed + cls.speed_jitter
            row = dict(LEN_LO=len_lo, LEN_RANGE=len_hi - len_lo, SPEED_LO=speed_lo, SPEED_RANGE=speed_hi - speed_lo,
                       DIRECTION=lane.direction, ROW=lane.row, VALUE=lane.class_id)
            values.extend(row[name] for name in LANE_COLUMNS)
        self.lane_table = array("d", values).tobytes()
        # world_step keeps the table in a buffer of its own: _rows views all
        # of the buffer's rows, _view the first ones, which it left in obstacles.
        self._buffer = self._rows = self._view = None
        self._kernel = None  # made by _kernel

    def __getstate__(self) -> dict:
        # A copy or a pickle keeps the table's rows, not the buffer they sit in, nor the generators' addresses.
        return {**self.__dict__, "_buffer": None, "_rows": None, "_view": None, "_kernel": None}


def action_to_velocity(action: int, speed: float) -> tuple[float, float]:
    """Velocity of one of the 8 equally spaced compass actions."""
    if not 0 <= action < N_ACTIONS:
        raise ValueError(f"action must be in 0..7, got {action}")
    ux, uy = _DIRECTIONS[action]
    return ux * speed, uy * speed


def world_step(state: WorldState) -> None:
    """Advance the world one step in place.

    Moves every body by its speed, removes the bodies left without a visible
    cell, then spawns; last the goal moves and reflects off the walls, as
    ``reflect_axis`` gives it: one kernel call, which a ``Timeline`` makes
    per frame in C. The step first makes all its draws, in C through the
    state's generators and with numpy's own samplers: one Poisson count per
    lane from ``spawn_rng`` gives the candidates per lane, as
    ``spawn_rng.poisson(level * spawn_base_rate, size=lanes)`` would, then
    ``class_rng`` two uniforms per candidate in draw order (lane, then draw),
    as ``class_rng.random(2 * drawn)`` would: length, then speed magnitude,
    scaled as ``lo + (hi - lo) * u`` like ``Generator.uniform``. Every
    candidate draws both, whether it is accepted or not, and a step that
    raises has made all its draws too. Each generator's lock is held through
    the call, as numpy's own methods hold it. A candidate is rejected if its
    pixel span overlaps the span of a body of its lane, including earlier
    candidates of the step.

    The table is stepped in place, in a buffer the state keeps, and
    ``obstacles`` is then a view of its rows: an array taken from
    ``obstacles`` before the step does not keep the old rows, so copy it.
    """
    made = _kernel(state)
    try:
        table = _table(state)
    except ValueError:
        # The step's draws, then the raise; a mean numpy refuses raises first, before any draw.
        check(_locked(made, library.lanenav_world_step, made.address, state.lane_table, None))
        raise
    rows = len(state.obstacles)
    # A lane accepts at most one spawn a step.
    needed = rows + len(state.lanes)
    if table is not state._buffer or needed > len(state._rows):
        capacity = 2 * needed + 16
        state._buffer = zeroed(capacity * _ROW_BYTES)
        ctypes.memmove(state._buffer, table, rows * _ROW_BYTES)
        state._rows = np.frombuffer(state._buffer, np.float64).reshape(capacity, N_COLUMNS)
    world, goal = made.world, state.goal
    world.capacity, world.n_rows = len(state._rows), rows
    world.goal_x, world.goal_y, world.goal_vx, world.goal_vy = goal.x, goal.y, goal.vx, goal.vy
    rows = check(_locked(made, library.lanenav_world_step, made.address, state.lane_table,
                         ctypes.addressof(state._buffer)))
    state.obstacles = state._view = state._rows[:rows]
    goal.x, goal.y, goal.vx, goal.vy = world.goal_x, world.goal_y, world.goal_vx, world.goal_vy
    state.spawn_draws += world.n_drawn
    state.t += 1


def goal_block(center: tuple[float, float], goal_size: int) -> tuple[int, int, int, int]:
    """Footprint (col_lo, col_hi, row_lo, row_hi), inclusive, of a goal centred at ``center``; the search
    kernel computes the same block of each frame's goal estimate."""
    half = (goal_size - 1) / 2.0
    x0 = round_px(center[0] - half)
    y0 = round_px(center[1] - half)
    return x0, x0 + goal_size - 1, y0, y0 + goal_size - 1


def _rasterize(state: WorldState, goal_size: int = 0) -> np.ndarray:
    """Frame of the obstacles, each body's visible cells painted with its lane's value, and the goal where
    ``goal_size`` > 0.

    The world's one rasterization rule: body cell i is column
    ``round_px(head - i)`` for i = 0..length-1, kept when it is on the grid.
    The goal block's columns are ``round_px(goal.x)`` and the ``goal_size - 1``
    after it, its rows likewise, those on the grid painted; a NaN goal position raises
    ``ValueError`` and an infinite one ``OverflowError``, as ``round_px`` does.
    """
    cfg = state.config
    cells = zeroed(cfg.grid_h * cfg.grid_w)
    check(library.lanenav_rasterize(ctypes.byref(_world(state, goal_size)), state.lane_table, _table(state), cells,
                                    None, None))
    return np.frombuffer(cells, np.uint8).reshape(cfg.grid_h, cfg.grid_w)


def render_frame(state: WorldState) -> np.ndarray:
    """Palette frame of the world: obstacles then goal on top. No agent."""
    return _rasterize(state, state.config.goal_size)


def freeze(arr: np.ndarray) -> np.ndarray:
    """Mark an array read-only in place and return it."""
    arr.flags.writeable = False
    return arr


def obstacle_occupancy(frame: np.ndarray) -> np.ndarray:
    """Obstacle mask of a palette frame. Goal pixels count as free."""
    return freeze((frame >= 1) & (frame <= GOAL - 1))


def goal_center_of_frame(frame: np.ndarray) -> tuple[float, float] | None:
    """Pixel-mass center of the goal, or None if no goal pixel is visible."""
    return predicted_frame(frame).goal_estimate


@dataclass(frozen=True, eq=False)
class PredictedFrame:
    occupancy: np.ndarray  # bool (H, W), goal pixels excluded
    goal_estimate: tuple[float, float] | None
    # A ``Timeline`` frame's ``kernel.FRAME`` record, which the timeline's kernel call wrote; None elsewhere.
    _record = None

    def __getstate__(self) -> dict:
        # A copy or a pickle has an occupancy of its own, so it drops the record and the address in it.
        return {"occupancy": self.occupancy, "goal_estimate": self.goal_estimate}


def predicted_frame(frame: np.ndarray) -> PredictedFrame:
    """What a perfect model predicts for a true palette frame, read in one pass.

    The obstacle mask is ``obstacle_occupancy``; the goal estimate is the
    pixel-mass center of the goal pixels, their integer column and row sums
    over their count, or None without a goal pixel.
    """
    if frame.dtype != np.uint8 or frame.ndim != 2:
        raise ValueError(f"a palette frame is a 2-D uint8 array, got {frame.ndim}-D {frame.dtype}")
    height, width = frame.shape
    mask = FRAME_READ.mask.offset
    out = zeroed(mask + height * width)
    count = library.lanenav_read_frame(ctypes.byref(WORLD(height=height, width=width)), frame.tobytes(), out)
    occupancy = freeze(np.frombuffer(out, np.bool_, height * width, mask).reshape(height, width))
    if not count:
        return PredictedFrame(occupancy=occupancy, goal_estimate=None)
    read = FRAME_READ.from_buffer(out)
    return PredictedFrame(occupancy=occupancy, goal_estimate=(read.sum_x / count, read.sum_y / count))


def packed_frame(frame: PredictedFrame, shape: tuple[int, ...]) -> tuple[bytes, np.ndarray]:
    """(``kernel.FRAME`` record, occupancy) of a predicted frame on a grid of ``shape``, for the search kernel.

    A frame of a ``Timeline`` gives the record the timeline's kernel call
    wrote for it. Any other frame's is made here, per call: the record holds
    the address of its occupancy as a C-contiguous bool array, the frame's
    own where it is one, else a copy, which the tuple keeps alive; then its
    goal estimate, NaN for none. The search computes each estimate's goal
    block; an estimate that is not finite raises as ``round_px`` of it does.
    """
    record = frame._record
    if record is not None:
        if frame.occupancy.shape != shape:
            raise ValueError(f"predicted frames must share one non-empty grid, got {shape} and "
                             f"{frame.occupancy.shape}")
        return record, frame.occupancy
    occ = np.asarray(frame.occupancy, dtype=bool)
    if occ.shape != shape or not occ.size:
        raise ValueError(f"predicted frames must share one non-empty grid, got {shape} and {occ.shape}")
    if not occ.flags.c_contiguous:
        occ = np.ascontiguousarray(occ)
    goal = frame.goal_estimate
    if goal is None:
        x = y = math.nan
    else:
        x, y = goal[0], goal[1]
        round_px(x), round_px(y)  # a NaN raises ValueError, an infinity OverflowError
    return bytes(FRAME(occ=occ.ctypes.data, goal_x=x, goal_y=y)), occ


def clone_state(state: WorldState) -> WorldState:
    """Exact value copy: stepping original and clone in lockstep stays identical."""
    return WorldState(
        config=state.config,
        episode_seed=state.episode_seed,
        t=state.t,
        lanes=list(state.lanes),
        obstacles=state.obstacles.copy(),
        goal=replace(state.goal),
        start=state.start,
        spawn_rng=clone_rng(state.spawn_rng),
        class_rng=clone_rng(state.class_rng),
        spawn_draws=state.spawn_draws,
    )


def new_episode(config: WorldConfig, episode_seed: int) -> WorldState:
    """Fresh world: lanes assigned, field warmed up, agent and goal placed.

    The warm-up runs before placement so the agent can be placed on a cell
    that is actually obstacle-free in the populated field.
    """
    class_rng = substream(episode_seed, STREAM_CLASS)
    place_rng = substream(episode_seed, STREAM_PLACE)

    # Each lane's class index, then its direction bit (0: left to right), drawn in one call: the values and
    # the generator's state after it are those of two scalar draws per lane, lane by lane (none without lanes).
    class_ids = [c.class_id for c in config.obstacle_classes]
    draws = class_rng.integers(np.tile([len(class_ids), 2], len(config.lane_rows))).tolist()
    lanes = [Lane(row=row, class_id=class_ids[index], direction=RIGHT_TO_LEFT if bit else LEFT_TO_RIGHT)
             for row, index, bit in zip(config.lane_rows, draws[0::2], draws[1::2])]

    state = WorldState(
        config=config,
        episode_seed=episode_seed,
        t=0,
        lanes=lanes,
        obstacles=np.empty((0, N_COLUMNS)),
        goal=GoalState(x=0.0, y=0.0, vx=config.goal_speed, vy=0.0),
        start=(0.0, 0.0),
        spawn_rng=substream(episode_seed, STREAM_SPAWN),
        class_rng=class_rng,
    )
    for _ in range(config.warmup_steps):
        world_step(state)
    state.t = 0
    state.spawn_draws = 0

    occupied = _rasterize(state) != FREE
    if occupied.all():
        raise PlacementError("no obstacle-free pixel for the agent")
    for _ in range(_PLACEMENT_RETRIES):
        ax = int(place_rng.integers(config.grid_w))
        ay = int(place_rng.integers(config.grid_h))
        if not occupied[ay, ax]:
            state.start = (float(ax), float(ay))
            break
    else:
        raise PlacementError("agent placement failed")

    for _ in range(_PLACEMENT_RETRIES):
        gx = int(place_rng.integers(config.grid_w - config.goal_size + 1))
        gy = int(place_rng.integers(config.grid_h - config.goal_size + 1))
        overlaps_agent = gx <= ax <= gx + config.goal_size - 1 and gy <= ay <= gy + config.goal_size - 1
        if not overlaps_agent:
            break
    else:
        raise PlacementError("goal placement failed")
    angle = place_rng.uniform(0.0, 2.0 * math.pi)
    state.goal = GoalState(
        x=float(gx),
        y=float(gy),
        vx=config.goal_speed * math.cos(angle),
        vy=config.goal_speed * math.sin(angle),
    )
    return state


HISTORY_LEN = 4
_CHUNK = 16  # the frames of a timeline's kernel buffer


def _check_time(t: int) -> None:
    if t < 0:
        raise ValueError(f"a timeline's time t must be >= 0, got {t}")


@dataclass(frozen=True)
class History:
    """The 4 most recent frames, oldest first; short episodes repeat frame 0."""

    frames: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.frames) != HISTORY_LEN:
            raise ValueError(f"history must hold exactly {HISTORY_LEN} frames")


class Timeline:
    """The world of one episode, simulated once and shared by every reader.

    World dynamics never look at the agent, so an episode's frames depend on
    (config, episode seed) only; ``agent_speed`` and ``max_steps`` never
    enter them. ``frame(t)`` is the read-only palette frame after t world
    steps, simulated on demand; ``len(timeline)`` counts the frames
    simulated, ``spawn_draws`` their steps' raw Poisson total. ``predicted(t)``
    is frame t as a ``PredictedFrame``, ``history(t)`` the ``History`` seen
    at time t; both are kept, one per time asked for, and neither refers back
    to the timeline. ``start`` is the agent's start position. A negative
    time raises ``ValueError``.

    ``_state`` is the world ``new_episode`` made, never stepped. The kernel
    ``Timeline`` holds a copy, which one C loop, ``lanenav_advance``, steps
    with ``world_step``'s kernel, then paints, reads and records each new
    frame: its mask, goal pixel sums and ``kernel.FRAME`` record for the
    search. ``frame`` runs it for readers, the episode loop in C for its
    steps, with the generators' locks held; it returns for each buffer of
    ``_CHUNK`` frames, which ``_grow`` makes. By time, the timeline keeps
    each frame's address (``palettes``) and record (``records``).
    """

    def __init__(self, config: WorldConfig, episode_seed: int) -> None:
        state = new_episode(config, episode_seed)
        self.config = config
        self.episode_seed = episode_seed
        self.start = state.start
        self.palettes, self.records = array("Q"), array("B")
        self._state = state
        self._made = _kernel(state)
        self._frames: list[np.ndarray] = []  # the palette frames read so far
        self._predicted: dict[int, PredictedFrame] = {}
        self._histories: dict[int, History] = {}
        self._chunks: list[tuple[np.ndarray, np.ndarray]] = []  # per buffer: its palette frames and masks
        self._chunk = _CHUNK
        cells = config.grid_h * config.grid_w
        read_at = -(-cells // 8) * 8
        stride = -(-(read_at + ctypes.sizeof(FRAME_READ) + cells) // 8) * 8
        self._table = _table(state)  # the start's rows, which the first _grow moves into a buffer with room
        # The kernel's Timeline: the state's World and lane table (which _state keeps), no buffer and no frame yet.
        self._timeline = TIMELINE(world=_world(state, config.goal_size, draws=True),
                                  lanes=ctypes.cast(state.lane_table, ctypes.c_void_p).value, read_at=read_at,
                                  stride=stride)
        self._address = ctypes.addressof(self._timeline)
        self.frame(0)

    def __len__(self) -> int:
        return self._timeline.n_frames

    @property
    def spawn_draws(self) -> int:
        return self._timeline.spawn_draws

    def _call(self, function, *args) -> int:
        """``function(*args)``, a kernel call that may advance this timeline, with its generators' locks held."""
        return _locked(self._made, function, *args)

    def _grow(self) -> None:
        """Room for the kernel to go on: where the last buffer is full, one of ``_CHUNK`` more frames, the arrays
        grown to match; then table room for the rows their steps may add, a lane spawning at most once a step."""
        timeline, size = self._timeline, self._chunk
        world = timeline.world
        if timeline.n_frames >= timeline.room:
            cfg = self.config
            buffer = zeroed(size * timeline.stride)
            shape, strides = (size, cfg.grid_h, cfg.grid_w), (timeline.stride, cfg.grid_w, 1)
            self._chunks.append(tuple(freeze(np.ndarray(shape, kind, buffer, at, strides)) for kind, at in
                                      ((np.uint8, 0), (np.bool_, timeline.read_at + FRAME_READ.mask.offset))))
            self.palettes.frombytes(bytes(8 * size))
            self.records.frombytes(bytes(ctypes.sizeof(FRAME) * size))
            timeline.palettes, timeline.records = self.palettes.buffer_info()[0], self.records.buffer_info()[0]
            timeline.cells, timeline.room = ctypes.addressof(buffer), timeline.room + size
        needed = world.n_rows + (timeline.room - timeline.n_frames) * len(self._state.lanes)
        if not timeline.table or needed > world.capacity:
            capacity = 2 * needed + 16
            buffer = zeroed(capacity * _ROW_BYTES)
            ctypes.memmove(buffer, self._table, world.n_rows * _ROW_BYTES)
            self._table, timeline.table, world.capacity = buffer, ctypes.addressof(buffer), capacity

    def frame(self, t: int) -> np.ndarray:
        frames = self._frames
        if not 0 <= t < len(frames):
            _check_time(t)
            while not (count := self._call(library.lanenav_advance, self._address, t)):  # no room: make it
                self._grow()
            size, chunks = self._chunk, self._chunks
            frames.extend(chunks[i // size][0][i % size] for i in range(len(frames), check(count)))
        return frames[t]

    def predicted(self, t: int) -> PredictedFrame:
        predicted = self._predicted.get(t)
        if predicted is None:
            self.frame(t)
            size = ctypes.sizeof(FRAME)
            record = self.records[t * size:(t + 1) * size].tobytes()
            read = FRAME.from_buffer_copy(record)
            occupancy = self._chunks[t // self._chunk][1][t % self._chunk]
            goal = None if math.isnan(read.goal_x) else (read.goal_x, read.goal_y)
            predicted = self._predicted[t] = PredictedFrame(occupancy, goal)
            object.__setattr__(predicted, "_record", record)
        return predicted

    def history(self, t: int) -> History:
        """Frames t-3..t, frame 0 repeated before the start."""
        history = self._histories.get(t)
        if history is None:
            _check_time(t)
            times = [max(0, t - HISTORY_LEN + 1 + i) for i in range(HISTORY_LEN)]
            history = self._histories[t] = History(tuple(map(self.frame, times)))
        return history

    def rollout(self, t: int, k: int) -> tuple[PredictedFrame, ...]:
        """The true future of decision time t: predicted frames t+1..t+k."""
        if k < 1:
            raise ValueError("k must be >= 1")
        _check_time(t)
        return tuple(self.predicted(i) for i in range(t + 1, t + k + 1))

