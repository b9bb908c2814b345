"""Episode runner and benchmark grid.

One episode is a run of steps: choose an action, move the agent, read its
outcome. The chooser is the planner, the random agent or, in a replay, the
logged actions. The world of an episode is a ``Timeline``: its frames are
the agent's observations, and goal and death are read from them.

The one episode loop is ``lanenav_play`` in ``_search.c``, driven by
``_episode``. It simulates the timeline's frames itself, with the frame loop
``lanenav_advance``, where a decision's window or the frame a step lands in
is not simulated yet; where a frame has no room, the kernel grows the
timeline through its grow callback and goes on. A call plays steps until one
ends the episode or its given steps end. So the random agent and a model
with a window of the timeline (oracle, frozen; ``ForwardModel.window``) play
an episode in one call; any other model predicts in Python, and ``_episode``
gives the kernel its frames and one step a call. The loop simulates the
frames the Python loop it replaced did, in the same order, and no others.
An episode's searches share its prior table (see ``mcts``); the loop returns
the kernel's step table.

The random draws are taken up front by ``_draws``: the planner's uniforms,
``rng.random(n)``, or the random agent's actions, ``rng.integers(8,
size=n)``. On numpy's PCG64 these are what as many scalar calls give, and n
draws are a prefix of more, so a bench batch draws once per seed for its
longest cell. Draws past an episode's end are never read.

The benchmark evaluates every grid cell on the same derived episode seeds,
so all cells see identical environment realizations; the cells that share a
seed share one timeline. It reduces to a G/T/D/S table.
"""
from __future__ import annotations

import ctypes
import math
import operator
from dataclasses import dataclass, field, replace
from itertools import repeat

import numpy as np

from .kernel import FRAME, OUTCOMES, PLAY, PLAY_STOPPED, STEP, check, library, zeroed
from .mcts import MCTSConfig, _pack_frames, _search, _search_tables
from .models import ForwardModel, build_model, model_label
from .seeding import STREAM_AGENT, STREAM_PLAN, episode_seed, substream
from .world import (DEATH_REWARD, DIED, GOAL_REACHED, GOAL_REWARD, N_ACTIONS, RUNNING, TIMED_OUT, ConfigError, Outcome,
                    Timeline, WorldConfig, action_to_velocity, fold)


@dataclass(frozen=True)
class StepRecord:
    t: int
    agent_x: float
    agent_y: float
    action: int
    reward: float
    outcome: str


@dataclass
class EpisodeRecord:
    episode_seed: int
    outcome: Outcome
    steps: int
    trace: list[StepRecord]
    model_name: str
    model_spec: str | None  # the spec build_model built the model from; None for a model built by hand
    world_config: WorldConfig
    mcts_config: MCTSConfig
    error: str | None = None
    frames: list[np.ndarray] | None = None
    exception: Exception | None = None  # what ``error`` describes, with its traceback


# Contiguous task batches per pool worker in ``run_benchmark``: enough to
# balance uneven episode lengths, few enough that most seeds stay in one batch.
BATCHES_PER_WORKER = 4
# Bounds of ``run_benchmark``: each pool worker is a process, forked when the
# pool starts, and the seed and task lists are built before any episode runs.
MAX_PARALLELISM = 64
MAX_EPISODES = 100_000


@dataclass(frozen=True)
class BenchCell:
    model_spec: str
    speed: str  # "1x" or "2x"
    rollout_length: int


@dataclass(frozen=True)
class BenchRow:
    model: str
    n_samples: int
    speed: str
    k: int
    g: int
    t: int
    d: int
    s_mean: float | None
    s_std: float | None
    episodes: int


@dataclass
class BenchTable:
    rows: list[BenchRow] = field(default_factory=list)

    CSV_HEADER = "model,n_samples,speed,k,G,T,D,S_mean,S_std,episodes"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            s_mean = "" if r.s_mean is None else f"{r.s_mean:.6f}"
            s_std = "" if r.s_std is None else f"{r.s_std:.6f}"
            lines.append(
                f"{r.model},{r.n_samples},{r.speed},{r.k},{r.g},{r.t},{r.d},{s_mean},{s_std},{r.episodes}"
            )
        return "\n".join(lines) + "\n"

    def format_text(self) -> str:
        header = f"{'model':<10} {'n':>3} {'speed':>5} {'k':>3} {'G':>4} {'T':>4} {'D':>4}  {'S':<16}"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            s = "-" if r.s_mean is None else f"{r.s_mean:.1f} +- {r.s_std:.1f}"
            lines.append(
                f"{r.model:<10} {r.n_samples:>3} {r.speed:>5} {r.k:>3} {r.g:>4} {r.t:>4} {r.d:>4}  {s:<16}"
            )
        return "\n".join(lines)


def run_episode(
    world_cfg: WorldConfig,
    mcts_cfg: MCTSConfig,
    model_spec: str | ForwardModel,
    ep_seed: int,
    keep_frames: bool = False,
) -> EpisodeRecord:
    """Play one full episode; deterministic given (configs, spec, seed).

    ``model_spec`` is a selection string, or a ready ForwardModel instance
    (useful for instrumented models), whose ``spec`` the record keeps: None
    for a model not made by ``build_model``, whose trace ``write_trace``
    refuses.
    """
    return _play(Timeline(world_cfg, ep_seed), world_cfg, mcts_cfg, model_spec, keep_frames)


def _play(
    timeline: Timeline,
    world_cfg: WorldConfig,
    mcts_cfg: MCTSConfig,
    model_spec: str | ForwardModel,
    keep_frames: bool = False,
) -> EpisodeRecord:
    """``run_episode`` on a given timeline of ``world_cfg``'s world: the
    episode of ``_episode`` on the seed's draws, turned into records."""
    ep_seed = timeline.episode_seed
    if isinstance(model_spec, ForwardModel):
        model = model_spec
        model_spec = model.spec
    else:
        model = build_model(model_spec, ep_seed)
    steps, exception = _episode(timeline, world_cfg, mcts_cfg, model, _draws(ep_seed, model is None,
                                                                              world_cfg.max_steps))
    trace = _trace(steps)
    outcome = _outcome(steps)
    return EpisodeRecord(
        episode_seed=ep_seed,
        outcome=outcome,
        steps=outcome.steps_taken,
        trace=trace,
        model_name=model.name if model is not None else "random",
        model_spec=model_spec,
        world_config=world_cfg,
        mcts_config=mcts_cfg,
        error=None if exception is None else _error_text(exception),
        frames=[timeline.frame(t) for t in range(len(trace) + 1)] if keep_frames else None,
        exception=exception,
    )


def _draws(seed: int, random_agent: bool, n: int) -> np.ndarray:
    """The first n draws of an episode of ``seed``: the random agent's actions, or the planner's uniforms."""
    if random_agent:
        return substream(seed, STREAM_AGENT).integers(N_ACTIONS, size=n)
    return substream(seed, STREAM_PLAN).random(n)


def _error_text(exception: Exception) -> str:
    return f"{type(exception).__name__}: {exception}"


_kernel = library.lanenav_play
_STEP = np.dtype(STEP)
# (kind, reward) of each outcome kind a ``Step`` records.
_OUTCOMES = tuple((kind, {GOAL_REACHED: GOAL_REWARD, DIED: DEATH_REWARD}.get(kind, 0.0)) for kind in OUTCOMES.values())
# Slots of an episode's prior table, 22 KB, which serves every decision of the episode. Over plan_grid's cells
# 61% of the priors asked for hit at 256 slots, 63% at 1024 (88 KB) and 64% with no eviction at all.
PRIOR_SLOTS = 256


def _trace(steps: np.ndarray) -> list[StepRecord]:
    """The records of a step table, t counting from 1."""
    columns = (steps[name].tolist() for name in ("x", "y", "action", "kind"))
    return [StepRecord(i, x, y, action, _OUTCOMES[kind][1], _OUTCOMES[kind][0])
            for i, (x, y, action, kind) in enumerate(zip(*columns), 1)]


def _outcome(steps: np.ndarray) -> Outcome:
    """The outcome of a step table: its last step's, or running before any step."""
    if not len(steps):
        return Outcome(RUNNING, 0.0, 0)
    kind, reward = _OUTCOMES[steps["kind"][-1]]
    return Outcome(kind, reward, len(steps))


def _episode(timeline: Timeline, world_cfg: WorldConfig, mcts_cfg: MCTSConfig, model: ForwardModel | None,
             given: np.ndarray) -> tuple[np.ndarray, Exception | None]:
    """The one episode loop: (its step table, the exception that ended it or None).

    The planner picks with ``model`` and ``mcts_cfg`` on the ``given``
    uniforms, one per step; with no model the ``given`` actions are taken in
    turn, and the loop also ends where they run out. Each step moves the
    agent, clamped to the grid, and reads its outcome from the pixel it
    lands on in frame t + 1: the goal (palette 6), an obstacle (1..5), then
    the step limit. The loop ends at a terminal outcome, or where the model,
    the search or the pick raises, or a frame of a decision's window fails to
    simulate, counted as the model's call; a frame a step lands in that fails
    to simulate raises. ``world_cfg`` supplies the agent's speed and step
    limit, which the timeline never reads; its grid and goal size are the
    timeline's.

    The kernel plays a model that predicts in Python one step a call, on its
    frames of time t. The step table holds the kernel's ``Step`` of each
    step taken, in order, as an array of ``np.dtype(STEP)``. The planner's
    searches share one prior table of ``PRIOR_SLOTS`` slots, made here for
    the episode.
    """
    cfg = timeline.config
    shape = (cfg.grid_h, cfg.grid_w)
    if (world_cfg.grid_h, world_cfg.grid_w, world_cfg.goal_size) != (*shape, cfg.goal_size):
        raise ValueError("an episode's world_cfg must have its timeline's grid and goal size")
    max_steps, k = world_cfg.max_steps, mcts_cfg.rollout_length
    # No step reads past max_steps, so the step table below has one size per max_steps.
    given = np.ascontiguousarray(given, np.int64 if model is None else np.float64)[:max_steps]
    window = None if model is None else model.window
    first, stride = window or (0, 1)
    # The planner's node table and prior table, one buffer: (buffer, their addresses, the prior table's slots).
    tables = _search_tables(mcts_cfg, PRIOR_SLOTS) if model is not None else (None, 0, 0, 0)
    records = zeroed(k * ctypes.sizeof(FRAME)) if model is not None and window is None else None
    steps, drawn = zeroed(max_steps * _STEP.itemsize), given.ctypes.data
    play = PLAY(search=_search(mcts_cfg, *tables[1:], timeline.start, world_cfg.agent_speed, shape, cfg.goal_size),
                timeline=timeline._address, frames=None if records is None else ctypes.addressof(records),
                uniforms=None if model is None else drawn, actions=drawn if model is None else None,
                steps=ctypes.addressof(steps), n_given=len(given), first=first, stride=stride, max_steps=max_steps,
                temperature=mcts_cfg.temperature, pending=-1)
    status, exception = PLAY_STOPPED, None
    while status == PLAY_STOPPED and play.t < len(given):
        try:
            if records is not None:
                # keep holds the occupancies the records point to while the kernel reads them.
                packed, keep = _pack_frames(model.predict(timeline, play.t, k), k, shape)
                ctypes.memmove(records, packed, len(packed))
                play.n_given = play.t + 1  # the one step these frames decide
            status = check(timeline._call(_kernel, ctypes.byref(play)))
        except Exception as exc:  # diagnostic record instead of a crash
            if play.pending >= 0:  # the frame a step lands in: out of the episode, as a raising world step was
                raise
            exception = exc
            break
    if window is not None:  # the kernel read the model's frames from the timeline: a call per decision
        model.calls += play.decisions
    return np.frombuffer(steps, _STEP, play.t), exception


def verify_replay(record: EpisodeRecord) -> bool:
    """Re-run the logged actions through a fresh timeline; True iff it matches.

    The replay is the episode loop on its own ``Timeline``, independent of the
    one the episode ran on, with the logged actions as the chooser: it ends
    where the world ends the episode or where the actions run out, or at the
    first that is not an integer in 0..7. Its steps (t, agent position,
    action, reward, outcome) and its outcome must equal the record's
    exactly, so t must count up from 1 and no step may follow a terminal
    one. A logged action that is not an integer in 0..7 raises the error of
    ``action_to_velocity`` when the replay reaches it.
    """
    actions = []
    for step in record.trace:
        try:
            action = operator.index(step.action)
        except TypeError:
            break
        if not 0 <= action < N_ACTIONS:
            break
        actions.append(action)
    cfg = record.world_config
    steps, _ = _episode(Timeline(cfg, record.episode_seed), cfg, record.mcts_config, None, np.array(actions))
    trace, outcome = _trace(steps), _outcome(steps)
    if len(trace) == len(actions) < len(record.trace) and not outcome.is_terminal:
        action_to_velocity(record.trace[len(actions)].action, cfg.agent_speed)
    return trace == record.trace and outcome == record.outcome


def _bench_row(label: tuple[str, int], speed: str, k: int, outcomes: list[tuple[str, int]]) -> BenchRow:
    """Table row of one condition: G/T/D counts plus mean and population std
    of steps over non-deaths. ``label`` is the ``model_label`` of its spec."""
    g = sum(1 for kind, _ in outcomes if kind == GOAL_REACHED)
    d = sum(1 for kind, _ in outcomes if kind == DIED)
    t = sum(1 for kind, _ in outcomes if kind == TIMED_OUT)
    survivor_steps = [steps for kind, steps in outcomes if kind != DIED]
    mean = std = None
    if survivor_steps:
        mean = sum(survivor_steps) / len(survivor_steps)
        std = math.sqrt(fold((s - mean) ** 2 for s in survivor_steps) / len(survivor_steps))
    return BenchRow(model=label[0], n_samples=label[1], speed=speed, k=k, g=g, t=t, d=d,
                    s_mean=mean, s_std=std, episodes=len(outcomes))


def _bench_batch(world_cfg: WorldConfig, cells: list[tuple[WorldConfig, MCTSConfig, str]],
                 tasks: list[tuple[int, int, int]]) -> list[tuple[int, int, str, int]]:
    """Run (cell index, episode index, seed) tasks in order, each cell as its (world, mcts, spec); per task,
    the episode's outcome kind and length, read from the last step of its step table, so no records are built.

    Every cell's world is ``world_cfg``'s, so consecutive tasks on the same
    seed share one timeline and one draw of each kind, made for the batch's
    longest cell, and only one timeline is alive at a time.
    """
    results = []
    timeline = None
    longest = max((cell_world.max_steps for cell_world, _, _ in cells), default=0)
    for ci, ei, seed in tasks:
        if timeline is None or timeline.episode_seed != seed:
            timeline = None  # release the previous world before simulating the next
            timeline = Timeline(world_cfg, seed)
            draws = {}  # per kind of agent, the seed's draws for the longest cell; each cell reads its prefix
        cell_world, cell_mcts, spec = cells[ci]
        model = build_model(spec, seed)
        if (random_agent := model is None) not in draws:
            draws[random_agent] = _draws(seed, random_agent, longest)
        steps, exception = _episode(timeline, cell_world, cell_mcts, model, draws[random_agent])
        if exception is not None:
            raise RuntimeError(f"episode {seed} failed: {_error_text(exception)}") from exception
        outcome = _outcome(steps)
        results.append((ci, ei, outcome.kind, outcome.steps_taken))
    return results


def run_benchmark(
    cells: list[BenchCell],
    world_cfg: WorldConfig,
    mcts_cfg: MCTSConfig,
    n_episodes: int,
    master_seed: int | None = None,
    parallelism: int = 1,
) -> BenchTable:
    """Evaluate every cell on the same n_episodes derived seeds. Each cell's speed
    preset sets its agent speed and step limit, so ``world_cfg`` keeps the defaults.

    ``n_episodes`` must be in 1..``MAX_EPISODES`` and ``parallelism`` in
    1..``MAX_PARALLELISM``, else a ``ConfigError`` names the argument.
    Above 1, the episodes run in a process pool of at most ``parallelism``
    workers, and of no more than there are task batches: a pool starts all
    its workers at once."""
    for name, value, bound in (("n_episodes", n_episodes, MAX_EPISODES), ("parallelism", parallelism,
                                                                         MAX_PARALLELISM)):
        if not 1 <= value <= bound:
            raise ConfigError(f"{name} must be in 1..{bound}, got {value!r}")
    for name in ("agent_speed", "max_steps"):
        if getattr(world_cfg, name) != getattr(WorldConfig, name):
            raise ValueError(f"world_cfg.{name} must keep its default: each cell's speed preset sets it")
    if master_seed is None:
        master_seed = world_cfg.master_seed
    seeds = [episode_seed(master_seed, i) for i in range(n_episodes)]
    # Labels and configs first: a bad spec or k fails here, before any episode runs.
    labels = [model_label(cell.model_spec) for cell in cells]

    presets: dict[str, WorldConfig] = {}  # each speed preset built once, where its first cell asks for it

    def preset(speed: str) -> WorldConfig:
        if speed not in presets:
            presets[speed] = world_cfg.for_speed(speed)
        return presets[speed]

    cell_configs = [(preset(cell.speed), replace(mcts_cfg, rollout_length=cell.rollout_length), cell.model_spec)
                    for cell in cells]
    # Seed-major, so that the cells of one seed run back to back on one timeline.
    tasks = [(ci, ei, seed) for ei, seed in enumerate(seeds) for ci in range(len(cells))]

    if parallelism == 1 or not tasks:  # no cells: no batch to start a pool for
        done = _bench_batch(world_cfg, cell_configs, tasks)
    else:
        size = -(-len(tasks) // (parallelism * BATCHES_PER_WORKER))
        batches = [tasks[i:i + size] for i in range(0, len(tasks), size)]
        # Imported here: a serial run never pays for the process pool machinery.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(parallelism, len(batches))) as pool:
            batched = pool.map(_bench_batch, repeat(world_cfg), repeat(cell_configs), batches)
            done = [result for batch in batched for result in batch]
    results = {(ci, ei): (kind, steps) for ci, ei, kind, steps in done}

    return BenchTable([_bench_row(labels[ci], cell.speed, cell.rollout_length,
                                  [results[(ci, ei)] for ei in range(n_episodes)])
                       for ci, cell in enumerate(cells)])
