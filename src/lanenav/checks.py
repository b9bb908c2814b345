"""Statistical self-checks of the simulator and the planner; each returns ``(ok, detail)``.

``lanenav validate`` runs all four; acceptance criteria 6 and 9 run them at their own seeds and sizes.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

from .mcts import MCTSConfig, run_search
from .models import prediction_error
from .seeding import make_rng
from .world import Timeline, WorldConfig, new_episode, render_frame, world_step


def spawn_rate(world_cfg: WorldConfig, seed: int, steps: int, tol: float) -> tuple[bool, str]:
    """Poisson spawn draws per step, within relative ``tol`` of the lanes' total rate."""
    state = new_episode(world_cfg, seed)
    for _ in range(steps):
        world_step(state)
    expected = len(world_cfg.lane_rows) * world_cfg.level * world_cfg.spawn_base_rate
    rate = state.spawn_draws / steps
    return (abs(rate - expected) <= tol * expected,
            f"{rate:.4f} vs {expected:.4f} over {steps} steps (tol {tol:.0%})")


def goal_speed(world_cfg: WorldConfig, seed: int, steps: int, tol: float) -> tuple[bool, str]:
    """The goal's speed stays within ``tol`` of ``goal_speed`` at every step."""
    state = new_episode(world_cfg, seed)
    worst = 0.0
    for _ in range(steps):
        world_step(state)
        worst = max(worst, abs(math.hypot(state.goal.vx, state.goal.vy) - world_cfg.goal_speed))
    return worst <= tol, f"max drift {worst:.2e} over {steps} steps"


def timeline_searches(world_cfg: WorldConfig, k: int, seed: int, n: int) -> Iterator:
    """(start, true k-step future) of ``n`` episodes, their seeds drawn from ``seed``."""
    rng = make_rng(seed)
    for _ in range(n):
        timeline = Timeline(world_cfg, int(rng.integers(2 ** 63)))
        yield timeline.start, timeline.rollout(0, k)


def visit_conservation(world_cfg: WorldConfig, mcts_cfg: MCTSConfig, searches: Iterable) -> tuple[bool, str]:
    """A search on each (start, frames) of ``searches`` spends exactly n_rollouts root visits."""
    speed, goal_size = world_cfg.agent_speed, world_cfg.goal_size
    roots = (run_search(start, frames, mcts_cfg, speed, goal_size=goal_size) for start, frames in searches)
    conserved = [sum(root.n) == mcts_cfg.n_rollouts for root in roots]
    return all(conserved), f"{len(conserved)} random searches"


def oracle_exactness(world_cfg: WorldConfig, cases: Iterable[tuple[int, int, int]]) -> tuple[bool, str]:
    """``Timeline.rollout(t, k)``, which episodes read, has no FN, FP or goal
    error against the world stepped on its own, for each (seed, t, k) case."""
    cases = list(cases)
    exact = True
    timeline = None
    for seed, t, k in cases:
        if timeline is None or timeline.episode_seed != seed:
            timeline = Timeline(world_cfg, seed)
            state = new_episode(world_cfg, seed)
            truth = [render_frame(state)]
        while len(truth) <= t + k:
            world_step(state)
            truth.append(render_frame(state))
        for predicted, frame in zip(timeline.rollout(t, k), truth[t + 1:]):
            err = prediction_error(predicted, frame)
            exact &= err.fn_count == 0 and err.fp_count == 0 and err.goal_err == 0.0
    _, ts, ks = zip(*cases)
    return exact, f"{len(cases)} seed/t/k triples, t {min(ts)}..{max(ts)}, horizons {min(ks)}..{max(ks)}"
