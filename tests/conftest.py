import math
import re
from bisect import bisect_right
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import strategies as st

from lanenav.harness import EpisodeRecord, StepRecord
from lanenav.mcts import MCTSConfig, goal_prior, plan_action
from lanenav.models import ForwardModel, _noisy_samples, build_model, oracle_predict
from lanenav.seeding import STREAM_AGENT, STREAM_CLASS, STREAM_PLAN, STREAM_SPAWN, substream
from lanenav.world import (
    DEATH_REWARD,
    DIED,
    FREE,
    GOAL,
    GOAL_REACHED,
    GOAL_REWARD,
    HEAD,
    LANE,
    LEFT_TO_RIGHT,
    LEN1,
    N_ACTIONS,
    SPEED,
    GoalState,
    Lane,
    Outcome,
    RUNNING,
    TIMED_OUT,
    PredictedFrame,
    RIGHT_TO_LEFT,
    Timeline,
    WorldConfig,
    WorldState,
    action_to_velocity,
    fold,
    goal_block,
    reflect_axis,
    render_frame,
    round_px,
    world_step,
)


def noisy_sample_predict(state: WorldState, k: int, n_samples: int, p_fn: float, p_fp: float,
                         goal_sigma: float, rng: np.random.Generator):
    """Reference noisy prediction from a ``WorldState``: ``_noisy_samples`` on the
    clone-and-step rollout of ``oracle_predict``, where the noisy model reads its timeline."""
    return _noisy_samples(oracle_predict(state, k), n_samples, p_fn, p_fp, goal_sigma, rng)


_UNIFORM = (1.0 / N_ACTIONS,) * N_ACTIONS
_ZERO_VALUES = (0.0,) * N_ACTIONS
_ONES = (1,) * N_ACTIONS
_NO_CHILDREN = (None,) * N_ACTIONS


class ReferenceNode:
    """One node of ``reference_search``: per-action edge statistics in 8-slot sequences.

    ``den`` holds 1 + the visit count of each action and ``n`` is derived
    from it; ``w`` holds summed values, ``total`` is the node's visit count,
    ``mean`` is w/n (0.0 while unvisited). ``prior`` and ``cp``
    (c_puct * prior) are set when a rollout first selects from the node, and
    the node gets its own statistics lists then; until that it shares
    read-only all-zero ones, with a uniform prior. ``stop_value`` is the
    value backed up when a rollout reaches the node: its terminal value, or
    its leaf value at the rollout horizon; None for an interior node.
    """

    __slots__ = ("depth", "x", "y", "terminal_value", "stop_value", "prior", "cp",
                 "w", "children", "total", "mean", "den")

    def __init__(self, depth: int, x: float, y: float,
                 terminal_value: float | None = None, stop_value: float | None = None) -> None:
        self.depth = depth
        self.x = x
        self.y = y
        self.terminal_value = terminal_value
        self.stop_value = stop_value
        self.prior: list[float] | tuple[float, ...] = _UNIFORM
        self.cp: list[float] | tuple[float, ...] = _UNIFORM
        self.w: list[float] | tuple[float, ...] = _ZERO_VALUES
        self.children: list[ReferenceNode | None] | tuple[None, ...] = _NO_CHILDREN
        self.mean: list[float] | tuple[float, ...] = _ZERO_VALUES
        self.den: list[int] | tuple[int, ...] = _ONES
        self.total = 0

    @property
    def n(self) -> list[int]:
        """Visit count of each action."""
        return [d - 1 for d in self.den]

    def q(self, action: int) -> float:
        visits = self.den[action] - 1
        return self.w[action] / visits if visits else 0.0


def assert_exploration_factors(root, c_puct: float) -> None:
    """Every node of the kernel tree of ``root`` keeps the bits of ``c_puct * prior[a]`` in ``cp[a]`` and of
    ``sqrt(total)`` in ``scale``; a node no rollout has selected from holds those of its uniform prior and 0.0."""
    table = root._tree.table
    assert table["cp"].tobytes() == (np.float64(c_puct) * table["prior"]).tobytes()
    assert table["scale"].tobytes() == np.sqrt(table["total"].astype(np.float64)).tobytes()


def reference_search(
    agent_pos: tuple[float, float],
    frames: tuple[PredictedFrame, ...],
    cfg: MCTSConfig,
    agent_speed: float,
    goal_size: int = 2,
) -> ReferenceNode:
    """The planner's search as a Python loop, the oracle of the kernel's trees.

    Each rollout descends by PUCT, argmax over a of
    Q(a) + c * P(a) * sqrt(sum N) / (1 + N(a)) with ties to the lowest index
    (an unvisited node takes the exploration scale as 1, so it picks the prior
    argmax), expands one child, and adds one visit and the rollout value to
    every edge on its path. What reaching a node means, and its prior,
    depend only on its (depth, x, y), so each is computed once per search
    for each exact key.
    """
    k = cfg.rollout_length
    if len(frames) < k:
        raise ValueError(f"{len(frames)} predicted frames given, need {k}")
    height, width = frames[0].occupancy.shape
    max_x, max_y = float(width - 1), float(height - 1)
    diag = math.hypot(max_x, max_y)
    moves = [action_to_velocity(a, agent_speed) for a in range(N_ACTIONS)]
    occs = [frames[d].occupancy for d in range(k)]
    goals = [frames[d].goal_estimate for d in range(k)]
    blocks = [None if goal is None else goal_block(goal, goal_size) for goal in goals]
    c_puct = cfg.c_puct
    kappa = cfg.prior_kappa
    death_value = cfg.death_value
    goal_value = cfg.goal_value
    beta = cfg.shaping_beta
    floor = math.floor
    sqrt = math.sqrt
    # Per exact (depth, x, y), computed once per search: the arrival outcome
    # (terminal_value, stop_value, value backed up on expansion), and the
    # selection data (prior, c_puct * prior, first pick) of a node selected from.
    outcomes: dict[tuple[int, float, float], tuple[float | None, float | None, float]] = {}
    priors: dict[tuple[int, float, float], tuple[list[float], list[float], int]] = {}

    def outcome(depth: int, x: float, y: float) -> tuple[float | None, float | None, float]:
        # x, y are clamped to >= 0, where round_px(v) is floor(v + 0.5).
        px, py = floor(x + 0.5), floor(y + 0.5)
        block = blocks[depth - 1]
        if block is not None and block[0] <= px <= block[1] and block[2] <= py <= block[3]:
            return goal_value, goal_value, goal_value
        if occs[depth - 1][py, px]:
            return death_value, death_value, death_value
        value = 0.0
        if beta != 0.0:
            goal = goals[depth - 1]
            if goal is not None:
                value = -beta * math.hypot(x - goal[0], y - goal[1]) / diag
        return None, (value if depth >= k else None), value

    def selection(depth: int, x: float, y: float) -> tuple[list[float], list[float], int]:
        prior = goal_prior((x, y), goals[depth], kappa)
        cp = [c_puct * p for p in prior]
        # With no visits the exploration scale is 1 and every q is 0, so the
        # first PUCT pick is the argmax of c_puct * prior, ties to the lowest.
        return prior, cp, cp.index(max(cp))

    root = ReferenceNode(0, agent_pos[0], agent_pos[1])

    for _ in range(cfg.n_rollouts):
        node = root
        path = []
        while True:
            total = node.total
            if total:
                # PUCT; mean and den hold q and 1 + n, so every action, visited
                # or not, is q + c * p * scale / (1 + n) in the same float order.
                # Written out over the 8 actions; a strict > keeps ties at the
                # lowest index.
                m0, m1, m2, m3, m4, m5, m6, m7 = node.mean
                c0, c1, c2, c3, c4, c5, c6, c7 = node.cp
                d0, d1, d2, d3, d4, d5, d6, d7 = node.den
                scale = sqrt(total)
                best = m0 + c0 * scale / d0
                action = 0
                value = m1 + c1 * scale / d1
                if value > best:
                    best, action = value, 1
                value = m2 + c2 * scale / d2
                if value > best:
                    best, action = value, 2
                value = m3 + c3 * scale / d3
                if value > best:
                    best, action = value, 3
                value = m4 + c4 * scale / d4
                if value > best:
                    best, action = value, 4
                value = m5 + c5 * scale / d5
                if value > best:
                    best, action = value, 5
                value = m6 + c6 * scale / d6
                if value > best:
                    best, action = value, 6
                if m7 + c7 * scale / d7 > best:
                    action = 7
            else:
                # The first rollout through the node.
                key = (node.depth, node.x, node.y)
                known = priors.get(key)
                if known is None:
                    known = priors[key] = selection(*key)
                node.prior, node.cp, action = known
                node.w = [0.0] * N_ACTIONS
                node.children = [None] * N_ACTIONS
                node.mean = [0.0] * N_ACTIONS
                node.den = [1] * N_ACTIONS
            path.append((node, action))
            child = node.children[action]
            if child is None:
                # The world's ``move``, spelled out because the builtin calls of
                # its min(max(v, 0), max) cost more than the comparisons.
                dx, dy = moves[action]
                nx = node.x + dx
                if nx < 0.0:
                    nx = 0.0
                elif nx > max_x:
                    nx = max_x
                ny = node.y + dy
                if ny < 0.0:
                    ny = 0.0
                elif ny > max_y:
                    ny = max_y
                depth = node.depth + 1
                key = (depth, nx, ny)
                known = outcomes.get(key)
                if known is None:
                    known = outcomes[key] = outcome(depth, nx, ny)
                terminal_value, stop_value, value = known
                node.children[action] = ReferenceNode(depth, nx, ny, terminal_value, stop_value)
                break
            value = child.stop_value
            if value is not None:
                break
            node = child
        for node, action in path:
            den = node.den
            visits = den[action]  # 1 + n before this visit, n after it
            den[action] = visits + 1
            w = node.w
            w[action] = summed = w[action] + value
            node.mean[action] = summed / visits
            node.total += 1
    return root


def reference_cdf(visits: list[int], temperature: float) -> list[float]:
    """The normalized cumulative distribution of N(a)^(1/temperature), as the planner's Python loop computed it."""
    logs = [math.log(v) if v > 0 else -math.inf for v in visits]
    top = max(logs)
    weights = [math.exp((l - top) / temperature) if l > -math.inf else 0.0 for l in logs]
    total = fold(weights)
    cdf = list(accumulate(w / total for w in weights))
    last = cdf[-1]
    return [c / last for c in cdf]


def reference_select(visits: list[int], temperature: float, u: float) -> int:
    """The planner's former temperature pick, the oracle of the kernel's ``lanenav_select``: the index of
    the draw ``u`` in ``reference_cdf``, the same index ``rng.choice(len(visits), p=pi)`` gives."""
    return bisect_right(reference_cdf(visits, temperature), u)


def reference_world_step(state: WorldState) -> None:
    """The world's former Python step, the oracle of the C step: the same draws, then
    move, drop and spawn on the table with one table scan per drawing lane, then the goal."""
    cfg = state.config
    grid_w = cfg.grid_w
    counts = state.spawn_rng.poisson(cfg.level * cfg.spawn_base_rate, size=len(state.lanes)).tolist()
    drawn = sum(counts)
    state.spawn_draws += drawn
    u = iter(state.class_rng.random(2 * drawn).tolist())
    classes = {cls.class_id: cls for cls in reversed(cfg.obstacle_classes)}
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
        cls, direction = classes[state.lanes[lane].class_id], state.lanes[lane].direction
        len_lo, len_hi = cls.mean_length - cls.length_jitter, cls.mean_length + cls.length_jitter
        speed_lo, speed_hi = cls.mean_speed - cls.speed_jitter, cls.mean_speed + cls.speed_jitter
        len_range, speed_range = len_hi - len_lo, speed_hi - speed_lo
        spans = []
        for head, _, len1, _ in table.compress(table[:, LANE] == lane, axis=0).tolist():
            hi = round_px(head)
            spans.append((hi - int(len1), hi))
        for _ in range(k):
            length = max(1, round_px(len_lo + len_range * next(u)))
            speed = direction * (speed_lo + speed_range * next(u))
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


def reference_body_cells(state: WorldState) -> tuple[np.ndarray, np.ndarray]:
    """The world's former rasterizer: (lane index, column) of every visible body cell,
    cell i of a body at column ``round_px(head - i)``, batched in numpy."""
    table = state.obstacles
    lens = table[:, LEN1].astype(np.intp) + 1
    body = np.repeat(np.arange(len(table)), lens)
    first = np.cumsum(lens) - lens
    x = table[body, HEAD] - (np.arange(len(body)) - first[body])
    cols = np.where(x >= 0.0, np.floor(x + 0.5), np.ceil(x - 0.5)).astype(np.int64)
    keep = (cols >= 0) & (cols < state.config.grid_w)
    return table[body[keep], LANE].astype(np.intp), cols[keep]


def goal_pixels(state: WorldState) -> tuple[int, int, int, int]:
    """The world's former goal quantization, the reference of the rasterizer's goal block: the footprint
    (col_lo, col_hi, row_lo, row_hi), inclusive."""
    gs = state.config.goal_size
    cx = round_px(state.goal.x)
    cy = round_px(state.goal.y)
    return cx, cx + gs - 1, cy, cy + gs - 1


def reference_render_frame(state: WorldState) -> np.ndarray:
    """The world's former ``render_frame``: ``reference_body_cells`` scattered, then the goal."""
    cfg = state.config
    cells = np.zeros((cfg.grid_h, cfg.grid_w), dtype=np.uint8)
    lanes, cols = reference_body_cells(state)
    lane_row = np.array([lane.row for lane in state.lanes], dtype=np.intp)
    lane_value = np.array([lane.class_id for lane in state.lanes], dtype=np.uint8)
    cells[lane_row[lanes], cols] = lane_value[lanes]
    x0, x1, y0, y1 = goal_pixels(state)
    # Clipped to the grid: a stop left of the grid paints nothing, where numpy's slice would count it from the end.
    cells[max(y0, 0):max(y1 + 1, 0), max(x0, 0):max(x1 + 1, 0)] = GOAL
    return cells


def reference_predicted_frame(frame: np.ndarray) -> PredictedFrame:
    """The world's former ``predicted_frame``: the obstacle mask and the goal's pixel-mass center in numpy."""
    rows, cols = np.nonzero(frame == GOAL)
    goal = None if rows.size == 0 else (float(cols.mean()), float(rows.mean()))
    return PredictedFrame(occupancy=(frame >= 1) & (frame <= GOAL - 1), goal_estimate=goal)


def move(x: float, y: float, action: int, speed: float, x_max: float, y_max: float) -> tuple[float, float]:
    """The agent's former Python step, the reference of the episode kernel's: its position after one action,
    clamped to [0, x_max] x [0, y_max]."""
    dx, dy = action_to_velocity(action, speed)
    return min(max(x + dx, 0.0), x_max), min(max(y + dy, 0.0), y_max)


def outcome_at(frame: np.ndarray, x: float, y: float, t: int, max_steps: int) -> Outcome:
    """The agent's former outcome rule, the reference of the episode kernel's: on the palette frame of
    time t, the goal if its pixel is goal, death if it is any obstacle class, then the timeout at
    ``max_steps``, else still running."""
    cell = frame[round_px(y), round_px(x)]
    if cell == GOAL:
        return Outcome(GOAL_REACHED, GOAL_REWARD, t)
    if cell != FREE:
        return Outcome(DIED, DEATH_REWARD, t)
    if t >= max_steps:
        return Outcome(TIMED_OUT, 0.0, t)
    return Outcome(RUNNING, 0.0, t)


def reference_episode_loop(timeline: Timeline, world_cfg: WorldConfig, choose
                           ) -> tuple[Outcome, list[StepRecord], Exception | None]:
    """The harness's former Python episode loop, the reference of ``lanenav_play``: (outcome, steps, the
    chooser's exception or None). At each time t, ``choose(t, x, y)`` picks the action, the agent steps by
    ``move`` and its outcome is ``outcome_at`` the pixel it lands on in frame t + 1; the loop ends at a
    terminal outcome, or when the chooser raises."""
    speed, max_steps = world_cfg.agent_speed, world_cfg.max_steps
    x_max, y_max = float(world_cfg.grid_w - 1), float(world_cfg.grid_h - 1)
    x, y = timeline.start
    t = 0
    trace: list[StepRecord] = []
    outcome = Outcome(RUNNING, 0.0, 0)
    while not outcome.is_terminal:
        try:
            action = choose(t, x, y)
        except Exception as exc:
            return outcome, trace, exc
        x, y = move(x, y, action, speed, x_max, y_max)
        t += 1
        outcome = outcome_at(timeline.frame(t), x, y, t, max_steps)
        trace.append(StepRecord(t, x, y, action, outcome.reward, outcome.kind))
    return outcome, trace, None


def reference_play(timeline: Timeline, world_cfg: WorldConfig, mcts_cfg: MCTSConfig,
                   model_spec: str | ForwardModel) -> EpisodeRecord:
    """The harness's former ``_play``: ``reference_episode_loop`` with a chooser that draws as it goes, one
    ``rng.integers(8)`` per random step, or per planner step the model's ``predict`` at time
    t, then ``plan_action`` with its one ``rng.random()``."""
    ep_seed = timeline.episode_seed
    if isinstance(model_spec, ForwardModel):
        model = model_spec
        model_spec = model.spec
    else:
        model = build_model(model_spec, ep_seed)
    if model is None:
        agent_rng = substream(ep_seed, STREAM_AGENT)

        def choose(t, x, y):
            return int(agent_rng.integers(N_ACTIONS))
    else:
        plan_rng = substream(ep_seed, STREAM_PLAN)
        k, speed, goal_size = mcts_cfg.rollout_length, world_cfg.agent_speed, world_cfg.goal_size

        def choose(t, x, y):
            frames = model.predict(timeline, t, k)
            return plan_action((x, y), frames, mcts_cfg, plan_rng, agent_speed=speed, goal_size=goal_size)

    outcome, trace, exception = reference_episode_loop(timeline, world_cfg, choose)
    return EpisodeRecord(
        episode_seed=ep_seed, outcome=outcome, steps=outcome.steps_taken, trace=trace,
        model_name=model.name if model is not None else "random", model_spec=model_spec,
        world_config=world_cfg, mcts_config=mcts_cfg,
        error=None if exception is None else f"{type(exception).__name__}: {exception}", exception=exception)


def reference_replay(record: EpisodeRecord) -> tuple[Outcome, list[StepRecord]]:
    """The former ``verify_replay``'s replay: the logged actions through ``reference_episode_loop`` on a
    fresh timeline, until the world ends the episode or an action runs out or fails to move."""
    actions = iter([step.action for step in record.trace])
    outcome, trace, _ = reference_episode_loop(Timeline(record.world_config, record.episode_seed),
                                               record.world_config, lambda t, x, y: next(actions))
    return outcome, trace


def obstacle_table(bodies: list[tuple[int, float, int, float]]) -> np.ndarray:
    """World obstacle table of (lane_index, head_x, length, speed) bodies."""
    table = np.zeros((len(bodies), 4))
    for row, (lane, head, length, speed) in zip(table, bodies):
        row[[LANE, HEAD, LEN1, SPEED]] = lane, head, length - 1, speed
    return table


def timeline_of(state: WorldState) -> Timeline:
    """A timeline whose world starts from ``state``, given in place of the ``new_episode`` it calls."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("lanenav.world.new_episode", lambda config, episode_seed: state)
        return Timeline(state.config, state.episode_seed)


def build_state(
    config: WorldConfig | None = None,
    lanes: list[tuple[int, int, int]] | None = None,
    obstacles: list[tuple[int, float, int, float]] | None = None,
    goal: tuple[float, float, float, float] = (20.0, 20.0, 0.0, 0.0),
    agent: tuple[float, float] = (10.0, 13.0),
    seed: int = 0,
) -> WorldState:
    """Hand-built world for directed tests.

    lanes: (row, class_id, direction); obstacles: (lane_index, head_x, length,
    speed). Defaults to a quiet level-0 world so nothing spawns.
    """
    if config is None:
        config = WorldConfig(level=0.0, warmup_steps=0)
    return WorldState(
        config=config,
        episode_seed=seed,
        t=0,
        lanes=[Lane(row=r, class_id=c, direction=d) for r, c, d in (lanes or [])],
        obstacles=obstacle_table(obstacles or []),
        goal=GoalState(x=goal[0], y=goal[1], vx=goal[2], vy=goal[3]),
        start=agent,
        spawn_rng=substream(seed, STREAM_SPAWN),
        class_rng=substream(seed, STREAM_CLASS),
    )


def agent_turn(state: WorldState, x: float, y: float, action: int) -> tuple[float, float, Outcome]:
    """One episode step on a stepped world: the world advances, then the agent
    moves by ``move`` and ``outcome_at`` reads the new frame."""
    cfg = state.config
    world_step(state)
    x, y = move(x, y, action, cfg.agent_speed, cfg.grid_w - 1.0, cfg.grid_h - 1.0)
    return x, y, outcome_at(render_frame(state), x, y, state.t, cfg.max_steps)


def state_fingerprint(state: WorldState) -> tuple:
    """Hashable value snapshot of everything that evolves."""
    return (
        state.t,
        tuple(state.lanes),
        tuple(map(tuple, state.obstacles.tolist())),
        (state.goal.x, state.goal.y, state.goal.vx, state.goal.vy),
        state.start,
        str(state.spawn_rng.bit_generator.state),
        str(state.class_rng.bit_generator.state),
    )


class TimelineRead(Exception):
    """Raised by a ``stand_in_timeline`` on a read it does not serve."""


def stand_in_timeline(timeline: Timeline, t: int, reads: tuple[str, ...]):
    """A stand-in for ``timeline`` where a model asked at time t must not read the truth.

    Of ``reads`` it serves "history", ``history(t)`` only, and "predicted", ``predicted(s)`` for s <= t
    only, from ``timeline``; any other read raises ``TimelineRead``.
    """
    allowed = {"history": lambda s: s == t, "predicted": lambda s: s <= t}
    serves = {name: allowed[name] for name in reads}

    class StandIn:
        def __getattribute__(self, name):
            if name not in serves:
                raise TimelineRead(name)

            def read(s):
                if not serves[name](s):
                    raise TimelineRead(f"{name}({s})")
                return getattr(timeline, name)(s)

            return read

    return StandIn()


@pytest.fixture
def quiet_config() -> WorldConfig:
    return WorldConfig(level=0.0, warmup_steps=0)


def frames_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.array_equal(a, b))


def reference_lanes(config: WorldConfig, episode_seed: int) -> tuple[list[Lane], np.random.Generator]:
    """``new_episode``'s lanes drawn by the scalar loop, two draws per lane, with the class stream after them."""
    class_rng = substream(episode_seed, STREAM_CLASS)
    class_ids = [c.class_id for c in config.obstacle_classes]
    lanes = []
    for row in config.lane_rows:
        cid = class_ids[int(class_rng.integers(len(class_ids)))]
        direction = LEFT_TO_RIGHT if class_rng.integers(2) == 0 else RIGHT_TO_LEFT
        lanes.append(Lane(row=row, class_id=cid, direction=direction))
    return lanes, class_rng


def reference_frame_to_rle(frame: np.ndarray) -> str:
    """The RLE text in numpy: the run bounds (the start, each change of value, the end), each run's value and
    length interleaved in one array, formatted by one % operation."""
    flat = frame.ravel()
    change = np.empty(flat.size + 1, dtype=bool)
    change[0] = change[-1] = True
    np.not_equal(flat[1:], flat[:-1], out=change[1:-1])
    bounds = np.flatnonzero(change)
    runs = np.empty(2 * bounds.size - 2, dtype=np.int64)
    runs[0::2], runs[1::2] = flat[bounds[:-1]], bounds[1:] - bounds[:-1]
    return ",".join(("%d:%d",) * (bounds.size - 1)) % tuple(runs.tolist())


_RLE_TOKEN = re.compile(r"([0-9]+):([0-9]+)")
_RLE = re.compile(r"[0-9]+:[0-9]+(?:,[0-9]+:[0-9]+)*")


def reference_rle_to_frame(rle: str, grid_h: int, grid_w: int) -> np.ndarray:
    """The RLE decoder in numpy, with its checks in their order: the grammar, then the values and counts
    (a number too long for int64 parsing as the int64 maximum), then the size."""
    cells = grid_h * grid_w
    if _RLE.fullmatch(rle) is None:
        raise ValueError(_reference_bad_token(rle, cells))
    numbers = np.fromstring(rle.replace(",", ":"), dtype=np.int64, sep=":")
    values, counts = numbers[0::2], numbers[1::2]
    if values.max() > GOAL or counts.max() > cells:
        raise ValueError(_reference_bad_token(rle, cells))
    size = int(counts.sum())
    if size != cells:
        raise ValueError(f"RLE decodes to {size} cells, expected {cells}")
    return np.repeat(values.astype(np.uint8), counts).reshape(grid_h, grid_w)


def _reference_bad_token(rle: str, cells: int) -> str:
    for token in rle.split(","):
        match = _RLE_TOKEN.fullmatch(token)
        if match is None:
            return f"malformed RLE token {token!r}"
        if int(match[1]) > GOAL or int(match[2]) > cells:
            return f"bad RLE token {token!r}: value must be 0..{GOAL}, count 0..{cells}"
    raise AssertionError(f"no bad token in {rle!r}")


# Config and flag values for the boundary fuzz: any text, numbers, and near misses of valid values.
FUZZ_VALUES = (st.text(max_size=12) | st.integers(-3, 10 ** 20).map(str) | st.floats().map(repr)
               | st.sampled_from(["0", "1x", "2x", "nan", "-inf", "1e999", "oracle", "none", "noisy",
                                  "noisy:0.1,0.02,1,5", "noisy:0.1,0.02", "noisy:2,0,1,1", "oracle,frozen", "1,3"]))
