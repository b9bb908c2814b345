"""Episode runner and benchmark grid.

One episode = loop of (choose an action, move the agent); the chooser is the
planner, the random agent, or, in a replay, the logged actions. The world of
an episode is a ``Timeline``: its frames are the agent's
observations, and goal and death are read from them. The benchmark evaluates
every grid cell on the same derived episode seeds, so all cells see
identical environment realizations; the cells that share a seed share one
timeline. It reduces to a G/T/D/S table.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from itertools import repeat

import numpy as np

from .mcts import MCTSConfig, plan_action
from .models import ForwardModel, Observation, build_model, model_label
from .seeding import STREAM_AGENT, STREAM_MODEL, STREAM_PLAN, episode_seed, substream
from .world import (DIED, GOAL_REACHED, N_ACTIONS, RUNNING, TIMED_OUT, Outcome, Timeline, WorldConfig, fold, move,
                    outcome_at)


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
    model_spec: str
    world_config: WorldConfig
    mcts_config: MCTSConfig
    error: str | None = None
    frames: list[np.ndarray] | None = None
    exception: Exception | None = None  # what ``error`` describes, with its traceback


# Contiguous task batches per pool worker in ``run_benchmark``: enough to
# balance uneven episode lengths, few enough that most seeds stay in one batch.
BATCHES_PER_WORKER = 4


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
    (useful for instrumented models; the caller then owns its RNG).
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
    episode loop with the planner, or the random agent for spec "none", as
    its action chooser."""
    ep_seed = timeline.episode_seed
    if isinstance(model_spec, ForwardModel):
        model = model_spec
        model_spec = model.name
    else:
        model = build_model(model_spec, rng=substream(ep_seed, STREAM_MODEL))
    if model is None:
        agent_rng = substream(ep_seed, STREAM_AGENT)

        def choose(t: int, x: float, y: float) -> int:
            return int(agent_rng.integers(N_ACTIONS))
    else:
        plan_rng = substream(ep_seed, STREAM_PLAN)
        k, speed, goal_size = mcts_cfg.rollout_length, world_cfg.agent_speed, world_cfg.goal_size

        def choose(t: int, x: float, y: float) -> int:
            frames = model.predict(Observation.at(timeline, t), k)
            return plan_action((x, y), frames, mcts_cfg, plan_rng, agent_speed=speed, goal_size=goal_size)

    outcome, trace, exception = _episode_loop(timeline, world_cfg, choose)
    return EpisodeRecord(
        episode_seed=ep_seed,
        outcome=outcome,
        steps=outcome.steps_taken,
        trace=trace,
        model_name=model.name if model is not None else "random",
        model_spec=model_spec,
        world_config=world_cfg,
        mcts_config=mcts_cfg,
        error=None if exception is None else f"{type(exception).__name__}: {exception}",
        frames=timeline.frames[:len(trace) + 1] if keep_frames else None,
        exception=exception,
    )


def _episode_loop(timeline: Timeline, world_cfg: WorldConfig, choose: Callable[[int, float, float], int]
                  ) -> tuple[Outcome, list[StepRecord], Exception | None]:
    """The one episode loop: (outcome, steps, the chooser's exception or None).

    At each time t, ``choose(t, x, y)`` picks the action, the agent steps by
    ``move`` and its outcome is ``outcome_at`` the pixel it lands on in frame
    t + 1. The loop ends at a terminal outcome, or when the chooser raises.
    ``world_cfg`` supplies the agent's speed and step limit, which the
    timeline never reads.
    """
    speed, max_steps = world_cfg.agent_speed, world_cfg.max_steps
    x_max, y_max = float(world_cfg.grid_w - 1), float(world_cfg.grid_h - 1)
    x, y = timeline.start
    t = 0
    trace: list[StepRecord] = []
    outcome = Outcome(RUNNING, 0.0, 0)
    while not outcome.is_terminal:
        try:
            action = choose(t, x, y)
        except Exception as exc:  # diagnostic record instead of a crash
            return outcome, trace, exc
        x, y = move(x, y, action, speed, x_max, y_max)
        t += 1
        outcome = outcome_at(timeline.frame(t), x, y, t, max_steps)
        trace.append(StepRecord(t, x, y, action, outcome.reward, outcome.kind))
    return outcome, trace, None


def verify_replay(record: EpisodeRecord) -> bool:
    """Re-run the logged actions through a fresh timeline; True iff it matches.

    The replay is the episode loop on its own ``Timeline``, independent of the
    one the episode ran on, with the logged actions as the chooser: it ends
    where the world ends the episode or where the actions run out. Its steps
    (t, agent position, action, reward, outcome) and its outcome must equal
    the record's exactly, so t must count up from 1 and no step may follow a
    terminal one.
    """
    actions = iter([step.action for step in record.trace])
    outcome, trace, _ = _episode_loop(Timeline(record.world_config, record.episode_seed), record.world_config,
                                      lambda t, x, y: next(actions))
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
    """Run (cell index, episode index, seed) tasks in order, each cell as its (world, mcts, spec).

    Every cell's world is ``world_cfg``'s, so consecutive tasks on the same
    seed share one timeline, and only one timeline is alive at a time.
    """
    results = []
    timeline = None
    for ci, ei, seed in tasks:
        if timeline is None or timeline.episode_seed != seed:
            timeline = None  # release the previous world before simulating the next
            timeline = Timeline(world_cfg, seed)
        cell_world, cell_mcts, spec = cells[ci]
        record = _play(timeline, cell_world, cell_mcts, spec)
        if record.exception is not None:
            raise RuntimeError(f"episode {seed} failed: {record.error}") from record.exception
        results.append((ci, ei, record.outcome.kind, record.steps))
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
    preset sets its agent speed and step limit, so ``world_cfg`` keeps the defaults."""
    if n_episodes < 1:
        raise ValueError("n_episodes must be >= 1")
    for name in ("agent_speed", "max_steps"):
        if getattr(world_cfg, name) != getattr(WorldConfig, name):
            raise ValueError(f"world_cfg.{name} must keep its default: each cell's speed preset sets it")
    if master_seed is None:
        master_seed = world_cfg.master_seed
    seeds = [episode_seed(master_seed, i) for i in range(n_episodes)]
    # Labels and configs first: a bad spec or k fails here, before any episode runs.
    labels = [model_label(cell.model_spec) for cell in cells]

    cell_configs = [(world_cfg.for_speed(cell.speed), replace(mcts_cfg, rollout_length=cell.rollout_length),
                     cell.model_spec) for cell in cells]
    # Seed-major, so that the cells of one seed run back to back on one timeline.
    tasks = [(ci, ei, seed) for ei, seed in enumerate(seeds) for ci in range(len(cells))]

    if parallelism <= 1:
        done = _bench_batch(world_cfg, cell_configs, tasks)
    else:
        size = -(-len(tasks) // (parallelism * BATCHES_PER_WORKER))
        batches = [tasks[i:i + size] for i in range(0, len(tasks), size)]
        # Imported here: a serial run never pays for the process pool machinery.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            batched = pool.map(_bench_batch, repeat(world_cfg), repeat(cell_configs), batches)
            done = [result for batch in batched for result in batch]
    results = {(ci, ei): (kind, steps) for ci, ei, kind, steps in done}

    return BenchTable([_bench_row(labels[ci], cell.speed, cell.rollout_length,
                                  [results[(ci, ei)] for ei in range(n_episodes)])
                       for ci, cell in enumerate(cells)])
