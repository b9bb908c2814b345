"""Dynamic lane-crossing navigation environment.

A 48x48 pixel world. Horizontal lanes carry obstacles that enter at one edge,
cross at a constant per-obstacle speed, and are deleted once their whole body
has left the grid. Arrivals per lane per step are Poisson with rate
``level * spawn_base_rate``. A 2x2 goal drifts at constant speed and reflects
off the walls. The agent moves continuously in one of 8 compass directions;
collision and goal checks are quantized to the nearest pixel.

World dynamics are action-independent: ``world_step`` never looks at the
agent, so the frame sequence of an episode is a function of (config, episode
seed) only. That property is what lets one predicted rollout serve every
branch of a planner search, and it is used once, by ``Timeline``: the world of
an episode is simulated once and every reader (the episode runner, the
models, every benchmark cell on the same seed) shares its frames.

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


class EpisodeFinishedError(RuntimeError):
    """agent_step called on an episode that already ended."""


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
class Obstacle:
    lane_index: int
    head_x: float  # largest-x cell of the body; body extends to head_x - length + 1
    length: int
    speed: float  # signed, sign matches the lane direction


@dataclass
class GoalState:
    x: float  # top-left of the goal_size x goal_size footprint
    y: float
    vx: float
    vy: float


@dataclass
class AgentState:
    x: float
    y: float
    alive: bool = True


@dataclass(frozen=True)
class Outcome:
    kind: str  # RUNNING, GOAL_REACHED, DIED or TIMED_OUT
    reward: float
    steps_taken: int

    @property
    def is_terminal(self) -> bool:
        return self.kind != RUNNING


@dataclass
class WorldState:
    config: WorldConfig
    episode_seed: int
    t: int
    lanes: list[Lane]
    obstacles: list[Obstacle]
    goal: GoalState
    agent: AgentState
    spawn_rng: np.random.Generator
    class_rng: np.random.Generator
    done: bool = False
    spawn_draws: int = 0  # raw Poisson total, before overlap rejection


def action_to_velocity(action: int, speed: float) -> tuple[float, float]:
    """Velocity of one of the 8 equally spaced compass actions."""
    if not 0 <= action < N_ACTIONS:
        raise ValueError(f"action must be in 0..7, got {action}")
    ux, uy = _DIRECTIONS[action]
    return ux * speed, uy * speed


def _obstacle_cols(obstacle: Obstacle) -> np.ndarray:
    offsets = np.arange(obstacle.length, dtype=np.float64)
    return round_px_array(obstacle.head_x - offsets)


def _has_visible_pixel(obstacle: Obstacle, grid_w: int) -> bool:
    # Body pixels are monotone in the offset, so checking the two ends is enough.
    if round_px(obstacle.head_x) < 0:
        return False
    if round_px(obstacle.head_x - (obstacle.length - 1)) >= grid_w:
        return False
    return True


def _spans_overlap(head_a: float, len_a: int, head_b: float, len_b: int) -> bool:
    lo_a, hi_a = round_px(head_a) - len_a + 1, round_px(head_a)
    lo_b, hi_b = round_px(head_b) - len_b + 1, round_px(head_b)
    return lo_a <= hi_b and lo_b <= hi_a


def _sample_obstacle(state: WorldState, lane_index: int) -> Obstacle:
    cfg = state.config
    lane = state.lanes[lane_index]
    cls = next(c for c in cfg.obstacle_classes if c.class_id == lane.class_id)
    rng = state.class_rng
    raw_len = rng.uniform(cls.mean_length - cls.length_jitter, cls.mean_length + cls.length_jitter)
    length = max(1, round_px(raw_len))
    magnitude = rng.uniform(cls.mean_speed - cls.speed_jitter, cls.mean_speed + cls.speed_jitter)
    if lane.direction == LEFT_TO_RIGHT:
        head_x = 0.0
    else:
        # Leading (smallest-x) cell sits on the right edge; the rest is outside.
        head_x = float(cfg.grid_w - 1 + length - 1)
    return Obstacle(lane_index=lane_index, head_x=head_x, length=length,
                    speed=lane.direction * magnitude)


def world_step(state: WorldState) -> None:
    """Advance the world one step in place. Never touches the agent."""
    cfg = state.config
    for obstacle in state.obstacles:
        obstacle.head_x += obstacle.speed
    state.obstacles = [o for o in state.obstacles if _has_visible_pixel(o, cfg.grid_w)]

    lam = cfg.level * cfg.spawn_base_rate
    counts = state.spawn_rng.poisson(lam, size=len(cfg.lane_rows))
    state.spawn_draws += int(counts.sum())
    for lane_index, n in enumerate(counts):
        for _ in range(int(n)):
            candidate = _sample_obstacle(state, lane_index)
            blocked = any(
                o.lane_index == lane_index
                and _spans_overlap(o.head_x, o.length, candidate.head_x, candidate.length)
                for o in state.obstacles
            )
            if not blocked:
                state.obstacles.append(candidate)

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


def render_frame(state: WorldState) -> np.ndarray:
    """Palette frame of the world: obstacles then goal on top. No agent."""
    cfg = state.config
    cells = np.zeros((cfg.grid_h, cfg.grid_w), dtype=np.uint8)
    obstacles = state.obstacles
    if obstacles:
        # One batched scatter for all bodies; paint order does not matter
        # because same-lane obstacles share one class value.
        lanes = state.lanes
        heads = np.array([o.head_x for o in obstacles])
        lens = np.array([o.length for o in obstacles])
        rows = np.array([lanes[o.lane_index].row for o in obstacles])
        vals = np.array([lanes[o.lane_index].class_id for o in obstacles], dtype=np.uint8)
        offsets = np.arange(int(lens.sum())) - np.repeat(np.cumsum(lens) - lens, lens)
        cols = round_px_array(np.repeat(heads, lens) - offsets)
        keep = (cols >= 0) & (cols < cfg.grid_w)
        cells[np.repeat(rows, lens)[keep], cols[keep]] = np.repeat(vals, lens)[keep]
    x0, x1, y0, y1 = goal_pixels(state)
    cells[max(y0, 0):y1 + 1, max(x0, 0):x1 + 1] = GOAL
    return cells


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
        obstacles=[replace(o) for o in state.obstacles],
        goal=replace(state.goal),
        agent=replace(state.agent),
        spawn_rng=clone_rng(state.spawn_rng),
        class_rng=clone_rng(state.class_rng),
        done=state.done,
        spawn_draws=state.spawn_draws,
    )


def _obstacle_pixel_set(state: WorldState) -> set[tuple[int, int]]:
    cfg = state.config
    pixels: set[tuple[int, int]] = set()
    for obstacle in state.obstacles:
        row = state.lanes[obstacle.lane_index].row
        for col in _obstacle_cols(obstacle):
            if 0 <= col < cfg.grid_w:
                pixels.add((int(col), row))
    return pixels


def _occupied(state: WorldState, px: int, py: int) -> bool:
    for obstacle in state.obstacles:
        if state.lanes[obstacle.lane_index].row != py:
            continue
        head = round_px(obstacle.head_x)
        if head - obstacle.length + 1 <= px <= head:
            # Rounding each cell individually can skip one column at a
            # sign-change tie; confirm against the actual cell set.
            if any(int(c) == px for c in _obstacle_cols(obstacle)):
                return True
    return False


def agent_step(state: WorldState, action: int) -> Outcome:
    """World advances, then the agent moves and the outcome is checked."""
    if state.done:
        raise EpisodeFinishedError("episode already finished")
    cfg = state.config
    world_step(state)

    dx, dy = action_to_velocity(action, cfg.agent_speed)
    agent = state.agent
    agent.x = min(max(agent.x + dx, 0.0), float(cfg.grid_w - 1))
    agent.y = min(max(agent.y + dy, 0.0), float(cfg.grid_h - 1))
    px, py = round_px(agent.x), round_px(agent.y)

    x0, x1, y0, y1 = goal_pixels(state)
    if x0 <= px <= x1 and y0 <= py <= y1:
        # Goal wins over obstacle contact, matching render precedence.
        outcome = Outcome(GOAL_REACHED, GOAL_REWARD, state.t)
    elif _occupied(state, px, py):
        agent.alive = False
        outcome = Outcome(DIED, DEATH_REWARD, state.t)
    elif state.t >= cfg.max_steps:
        outcome = Outcome(TIMED_OUT, 0.0, state.t)
    else:
        outcome = Outcome(RUNNING, 0.0, state.t)
    state.done = outcome.is_terminal
    return outcome


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
        obstacles=[],
        goal=GoalState(x=0.0, y=0.0, vx=config.goal_speed, vy=0.0),
        agent=AgentState(x=0.0, y=0.0),
        spawn_rng=substream(episode_seed, STREAM_SPAWN),
        class_rng=class_rng,
    )
    for _ in range(config.warmup_steps):
        world_step(state)
    state.t = 0
    state.spawn_draws = 0

    occupied = _obstacle_pixel_set(state)
    if len(occupied) >= config.grid_h * config.grid_w:
        raise PlacementError("no obstacle-free pixel for the agent")
    for _ in range(_PLACEMENT_RETRIES):
        ax = int(place_rng.integers(config.grid_w))
        ay = int(place_rng.integers(config.grid_h))
        if (ax, ay) not in occupied:
            state.agent = AgentState(x=float(ax), y=float(ay))
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
        self.start = (state.agent.x, state.agent.y)
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
