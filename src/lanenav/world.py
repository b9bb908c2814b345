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
i = 0..length-1, and ``_body_cells`` is the only place that rule is applied:
the frame and the agent's free start cell read it, and the agent's collision
reads the frame. At an exact half-pixel tie where a body crosses x = 0, the
cells at 0.5 and -0.5 round to columns 1 and -1, so column 0 stays free
while the visible run stays contiguous.
A spawn is rejected only if it overlaps a body of its lane at its spawn step;
bodies keep their own speeds afterwards, so a faster body overtakes a slower
one and same-lane bodies may overlap.

World dynamics are action-independent: ``world_step`` never looks at the
agent, so the frame sequence of an episode is a function of (config, episode
seed) only. That property is what lets one predicted rollout serve every
branch of a planner search, and it is used once, by ``Timeline``: the world of
an episode is simulated once and every reader (the episode runner, the
models, every benchmark cell on the same seed) shares its frames.

Of the agent, the world state keeps only the start cell. ``move`` is the
agent's clamped step and ``outcome_at`` reads its outcome from the frame it
lands on; the harness's one episode loop, which also replays episodes, uses
them on ``Timeline`` frames.

Coordinates are (x, y) with x the column and y the row; frames are indexed
``frame[y, x]``. All quantization uses round-half-away-from-zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .seeding import STREAM_CLASS, STREAM_PLACE, STREAM_SPAWN, clone_rng, substream

# Frame palette values.
FREE = 0
GOAL = 6
N_ACTIONS = 8

# Lane directions: sign of obstacle travel along x.
LEFT_TO_RIGHT = 1
RIGHT_TO_LEFT = -1

# Episode outcome kinds.
RUNNING = "running"
GOAL_REACHED = "goal"
DIED = "died"
TIMED_OUT = "timeout"

GOAL_REWARD = 20.0
DEATH_REWARD = -20.0

_PLACEMENT_RETRIES = 1000

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
    update and the forward models' goal extrapolation.
    """
    if hi <= lo:
        return lo, -vel
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

    def validate(self) -> None:
        for name in ("level", "spawn_base_rate", "goal_speed", "agent_speed"):
            value = getattr(self, name)
            if not math.isfinite(value):
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
                if not math.isfinite(value):
                    raise ConfigError(f"class {cls.class_id}: {name} must be finite, got {value!r}")
            for mean_name, jitter_name in (("mean_speed", "speed_jitter"), ("mean_length", "length_jitter")):
                mean, jitter = getattr(cls, mean_name), getattr(cls, jitter_name)
                if jitter < 0:
                    raise ConfigError(f"class {cls.class_id}: {jitter_name} must be non-negative, got {jitter!r}")
                # A spawn draws lo + (hi - lo) * u from [mean - jitter, mean + jitter].
                if not math.isfinite((mean + jitter) - (mean - jitter)):
                    raise ConfigError(f"class {cls.class_id}: {mean_name} +- {jitter_name} must be finite")
            if cls.mean_speed <= 0:
                raise ConfigError(f"class {cls.class_id}: mean_speed must be positive")
            if cls.mean_length < 1:
                raise ConfigError(f"class {cls.class_id}: mean_length must be >= 1")
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


# Columns of the obstacle table, one row per body.
HEAD = 0  # x of the largest-x cell; the body covers head - i for i = 0..length-1
SPEED = 1  # signed; the sign matches the lane direction for positive magnitudes
LEN1 = 2  # length - 1
LANE = 3  # index into WorldState.lanes


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
        # Lookups between lanes and pixel rows for the rasterizer; lanes never change.
        self.lane_row = np.array([lane.row for lane in self.lanes], dtype=np.intp)
        self.lane_value = np.array([lane.class_id for lane in self.lanes], dtype=np.uint8)
        # Per lane, what a spawn draws from: length low and range, speed
        # magnitude low and range (Generator.uniform's low and high - low), and
        # the direction. The first class with the lane's id wins.
        classes = {cls.class_id: cls for cls in reversed(self.config.obstacle_classes)}
        self.lane_draw = []
        for lane in self.lanes:
            cls = classes[lane.class_id]
            len_lo, len_hi = cls.mean_length - cls.length_jitter, cls.mean_length + cls.length_jitter
            speed_lo, speed_hi = cls.mean_speed - cls.speed_jitter, cls.mean_speed + cls.speed_jitter
            self.lane_draw.append((len_lo, len_hi - len_lo, speed_lo, speed_hi - speed_lo, lane.direction))


def action_to_velocity(action: int, speed: float) -> tuple[float, float]:
    """Velocity of one of the 8 equally spaced compass actions."""
    if not 0 <= action < N_ACTIONS:
        raise ValueError(f"action must be in 0..7, got {action}")
    ux, uy = _DIRECTIONS[action]
    return ux * speed, uy * speed


def move(x: float, y: float, action: int, speed: float, x_max: float, y_max: float) -> tuple[float, float]:
    """The agent's position after one action, clamped to [0, x_max] x [0, y_max]."""
    dx, dy = action_to_velocity(action, speed)
    return min(max(x + dx, 0.0), x_max), min(max(y + dy, 0.0), y_max)


def world_step(state: WorldState) -> None:
    """Advance the world one step in place.

    Moves every body by its speed, removes the bodies left without a visible
    cell, then spawns; last the goal moves. The step makes two draws: one
    ``spawn_rng.poisson`` over the lanes gives the candidates per lane, and
    one ``class_rng.random(2 * drawn)`` two uniforms per candidate in draw
    order (lane, then draw): length, then speed magnitude, scaled as
    ``lo + (hi - lo) * u`` like ``Generator.uniform``. Every candidate draws
    both, whether it is accepted or not. A candidate is rejected if its pixel
    span overlaps the span of a body of its lane, including earlier
    candidates of the step.
    """
    cfg = state.config
    grid_w = cfg.grid_w
    counts = state.spawn_rng.poisson(cfg.level * cfg.spawn_base_rate, size=len(state.lanes)).tolist()
    drawn = sum(counts)
    state.spawn_draws += drawn
    u = iter(state.class_rng.random(2 * drawn).tolist())
    table = state.obstacles
    heads = table[:, HEAD]
    heads += table[:, SPEED]
    # Keep a body while round_px(head) >= 0 and round_px(tail) < grid_w, as
    # exact float comparisons: one of its cells is still on the grid.
    table = table.compress((heads - 0.5 > -1.0) & (heads - table[:, LEN1] + 0.5 < grid_w), axis=0)
    spawned = []
    for lane, k in enumerate(counts):
        if not k:
            continue
        len_lo, len_range, speed_lo, speed_range, direction = state.lane_draw[lane]
        spans = []
        for head, _, len1, _ in table.compress(table[:, LANE] == lane, axis=0).tolist():
            hi = round_px(head)
            spans.append((hi - int(len1), hi))
        for _ in range(k):
            length = max(1, round_px(len_lo + len_range * next(u)))
            speed = direction * (speed_lo + speed_range * next(u))
            # Left-to-right bodies enter with the head on column 0; right-to-left
            # ones with the leading (smallest-x) cell on the right edge.
            head = 0 if direction == LEFT_TO_RIGHT else grid_w - 1 + length - 1
            lo = head - length + 1
            if all(hi < lo or head < other_lo for other_lo, hi in spans):
                spans.append((lo, head))
                spawned.append((head, speed, length - 1, lane))
    state.obstacles = np.concatenate((table, spawned)) if spawned else table

    goal = state.goal
    hi_x = float(cfg.grid_w - cfg.goal_size)
    hi_y = float(cfg.grid_h - cfg.goal_size)
    goal.x, goal.vx = reflect_axis(goal.x + goal.vx, goal.vx, 0.0, hi_x)
    goal.y, goal.vy = reflect_axis(goal.y + goal.vy, goal.vy, 0.0, hi_y)
    state.t += 1


def goal_pixels(state: WorldState) -> tuple[int, int, int, int]:
    """Quantized goal footprint as (col_lo, col_hi, row_lo, row_hi), inclusive."""
    gs = state.config.goal_size
    cx = round_px(state.goal.x)
    cy = round_px(state.goal.y)
    return cx, cx + gs - 1, cy, cy + gs - 1


def goal_block(center: tuple[float, float], goal_size: int) -> tuple[int, int, int, int]:
    """Footprint (col_lo, col_hi, row_lo, row_hi), inclusive, of a goal centred at ``center``."""
    half = (goal_size - 1) / 2.0
    x0 = round_px(center[0] - half)
    y0 = round_px(center[1] - half)
    return x0, x0 + goal_size - 1, y0, y0 + goal_size - 1


def _body_cells(state: WorldState, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Visible cells of the bodies in ``table``: (lane index, column) per cell.

    The world's one rasterization rule: body cell i is column
    ``round_px(head - i)`` for i = 0..length-1, kept when it is on the grid.
    """
    lens = table[:, LEN1].astype(np.intp) + 1
    body = np.repeat(np.arange(len(table)), lens)
    first = np.cumsum(lens) - lens
    cols = round_px_array(table[body, HEAD] - (np.arange(len(body)) - first[body]))
    keep = (cols >= 0) & (cols < state.config.grid_w)
    return table[body[keep], LANE].astype(np.intp), cols[keep]


def render_frame(state: WorldState) -> np.ndarray:
    """Palette frame of the world: obstacles then goal on top. No agent."""
    cfg = state.config
    cells = np.zeros((cfg.grid_h, cfg.grid_w), dtype=np.uint8)
    # One batched scatter for all bodies; paint order does not matter
    # because same-lane obstacles share one class value.
    lanes, cols = _body_cells(state, state.obstacles)
    cells[state.lane_row[lanes], cols] = state.lane_value[lanes]
    x0, x1, y0, y1 = goal_pixels(state)
    cells[max(y0, 0):y1 + 1, max(x0, 0):x1 + 1] = GOAL
    return cells


def outcome_at(frame: np.ndarray, x: float, y: float, t: int, max_steps: int) -> Outcome:
    """Outcome of the agent at (x, y) on the palette frame of time t.

    The agent's one outcome rule: the goal if its pixel is goal (the goal is
    painted over obstacles), death if it is any obstacle class, then the
    timeout at ``max_steps``, else still running.
    """
    cell = frame[round_px(y), round_px(x)]
    if cell == GOAL:
        return Outcome(GOAL_REACHED, GOAL_REWARD, t)
    if cell != FREE:
        return Outcome(DIED, DEATH_REWARD, t)
    if t >= max_steps:
        return Outcome(TIMED_OUT, 0.0, t)
    return Outcome(RUNNING, 0.0, t)


def freeze(arr: np.ndarray) -> np.ndarray:
    """Mark an array read-only in place and return it."""
    arr.flags.writeable = False
    return arr


def obstacle_occupancy(frame: np.ndarray) -> np.ndarray:
    """Obstacle mask of a palette frame. Goal pixels count as free."""
    return freeze((frame >= 1) & (frame <= GOAL - 1))


def goal_center_of_frame(frame: np.ndarray) -> tuple[float, float] | None:
    """Pixel-mass center of the goal, or None if no goal pixel is visible."""
    rows, cols = np.nonzero(frame == GOAL)
    if rows.size == 0:
        return None
    return float(cols.mean()), float(rows.mean())


@dataclass(frozen=True, eq=False)
class PredictedFrame:
    occupancy: np.ndarray  # bool (H, W), goal pixels excluded
    goal_estimate: tuple[float, float] | None


def predicted_frame(frame: np.ndarray) -> PredictedFrame:
    """What a perfect model predicts for a true palette frame."""
    return PredictedFrame(occupancy=obstacle_occupancy(frame), goal_estimate=goal_center_of_frame(frame))


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
    config.validate()
    class_rng = substream(episode_seed, STREAM_CLASS)
    place_rng = substream(episode_seed, STREAM_PLACE)

    lanes = []
    class_ids = [c.class_id for c in config.obstacle_classes]
    for row in config.lane_rows:
        cid = class_ids[int(class_rng.integers(len(class_ids)))]
        direction = LEFT_TO_RIGHT if class_rng.integers(2) == 0 else RIGHT_TO_LEFT
        lanes.append(Lane(row=row, class_id=cid, direction=direction))

    state = WorldState(
        config=config,
        episode_seed=episode_seed,
        t=0,
        lanes=lanes,
        obstacles=np.empty((0, 4)),
        goal=GoalState(x=0.0, y=0.0, vx=config.goal_speed, vy=0.0),
        start=(0.0, 0.0),
        spawn_rng=substream(episode_seed, STREAM_SPAWN),
        class_rng=class_rng,
    )
    for _ in range(config.warmup_steps):
        world_step(state)
    state.t = 0
    state.spawn_draws = 0

    lanes, cols = _body_cells(state, state.obstacles)
    occupied = np.zeros((config.grid_h, config.grid_w), dtype=bool)
    occupied[state.lane_row[lanes], cols] = True
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


class Timeline:
    """The world of one episode, simulated once and shared by every reader.

    World dynamics never look at the agent, so an episode's frames depend on
    (config, episode seed) only, and ``agent_speed`` and ``max_steps`` never
    enter them. ``frames[t]`` is the read-only palette frame after t world
    steps; frames are simulated on demand by ``frame(t)``. ``predicted(t)``
    is frame t as a ``PredictedFrame`` (obstacle mask and goal centre),
    computed on first use. ``start`` is the agent's start position.
    """

    def __init__(self, config: WorldConfig, episode_seed: int) -> None:
        state = new_episode(config, episode_seed)
        self.config = config
        self.episode_seed = episode_seed
        self.start = state.start
        self.frames: list[np.ndarray] = [freeze(render_frame(state))]
        self._state = state
        self._predicted: dict[int, PredictedFrame] = {}

    def frame(self, t: int) -> np.ndarray:
        frames = self.frames
        while len(frames) <= t:
            world_step(self._state)
            frames.append(freeze(render_frame(self._state)))
        return frames[t]

    def predicted(self, t: int) -> PredictedFrame:
        predicted = self._predicted.get(t)
        if predicted is None:
            predicted = self._predicted[t] = predicted_frame(self.frame(t))
        return predicted

    def rollout(self, t: int, k: int) -> tuple[PredictedFrame, ...]:
        """The true future of decision time t: predicted frames t+1..t+k."""
        if k < 1:
            raise ValueError("k must be >= 1")
        return tuple(self.predicted(i) for i in range(t + 1, t + k + 1))
