"""PUCT Monte-Carlo tree search over the 8-action space.

The search consumes the tuple of ``PredictedFrame``s that a model's
``predict`` returns and never calls or imports a model: the tree is bounded
to the rollout length, node expansion moves a simulated agent with the
environment's own kinematics, and collision / goal checks at depth d read
predicted frame d-1 (the frame for world time t+d). Node
selection is PUCT with a goal-directed von-Mises-style prior; the final
action is sampled from visit counts sharpened by a temperature.

Results are bit-stable: every float is evaluated in a fixed order, so the
same inputs give the same tree statistics and the same drawn action.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING

from .world import N_ACTIONS, ConfigError, PredictedFrame, action_to_velocity, finite, fold, goal_block

if TYPE_CHECKING:
    import numpy as np

_A0, _A1, _A2, _A3, _A4, _A5, _A6, _A7 = (a * math.pi / 4.0 for a in range(N_ACTIONS))
_UNIFORM = (1.0 / N_ACTIONS,) * N_ACTIONS
_ZERO_VALUES = (0.0,) * N_ACTIONS
_ONES = (1,) * N_ACTIONS
_NO_CHILDREN = (None,) * N_ACTIONS
MCTS_INT_KEYS = ("n_rollouts", "rollout_length")


@dataclass(frozen=True)
class MCTSConfig:
    """Search settings, valid by construction: building one (``replace`` too) runs ``validate``."""

    n_rollouts: int = 100
    rollout_length: int = 3
    temperature: float = 0.01
    c_puct: float = 1.4
    prior_kappa: float = 2.0
    death_value: float = -20.0
    goal_value: float = 20.0
    shaping_beta: float = 0.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for name in MCTS_INT_KEYS:
            value = getattr(self, name)
            if type(value) is not int:
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("temperature", "c_puct", "prior_kappa", "death_value", "goal_value", "shaping_beta"):
            value = getattr(self, name)
            if not finite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.temperature <= 0:
            raise ConfigError("temperature must be positive")
        if self.c_puct < 0:
            raise ConfigError("c_puct must be >= 0")
        if self.prior_kappa < 0:
            raise ConfigError("prior_kappa must be >= 0")


class SearchNode:
    """One tree node: per-action edge statistics in 8-slot sequences.

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
        self.children: list[SearchNode | None] | tuple[None, ...] = _NO_CHILDREN
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


def goal_prior(
    agent_pos: tuple[float, float],
    goal_estimate: tuple[float, float] | None,
    kappa: float,
) -> list[float]:
    """Action prior concentrated toward the predicted goal direction.

    P(a) is proportional to exp(kappa * cos(angle_a - angle_goal)); uniform
    when there is no goal estimate, the goal sits on the agent, or kappa = 0.
    """
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    if goal_estimate is None:
        return list(_UNIFORM)
    dx = goal_estimate[0] - agent_pos[0]
    dy = goal_estimate[1] - agent_pos[1]
    if dx == 0.0 and dy == 0.0:
        return list(_UNIFORM)
    theta = math.atan2(dy, dx)
    exp, cos = math.exp, math.cos
    w0 = exp(kappa * cos(_A0 - theta))
    w1 = exp(kappa * cos(_A1 - theta))
    w2 = exp(kappa * cos(_A2 - theta))
    w3 = exp(kappa * cos(_A3 - theta))
    w4 = exp(kappa * cos(_A4 - theta))
    w5 = exp(kappa * cos(_A5 - theta))
    w6 = exp(kappa * cos(_A6 - theta))
    w7 = exp(kappa * cos(_A7 - theta))
    # A left fold: from Python 3.12 sum() of floats is compensated, with other bits.
    total = w0 + w1 + w2 + w3 + w4 + w5 + w6 + w7
    return [w0 / total, w1 / total, w2 / total, w3 / total, w4 / total, w5 / total, w6 / total, w7 / total]


def run_search(
    agent_pos: tuple[float, float],
    frames: tuple[PredictedFrame, ...],
    cfg: MCTSConfig,
    agent_speed: float,
    goal_size: int = 2,
) -> SearchNode:
    """Build and fill the search tree; returns the root with its statistics.

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

    root = SearchNode(0, agent_pos[0], agent_pos[1])

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
                node.children[action] = SearchNode(depth, nx, ny, terminal_value, stop_value)
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


def select_by_temperature(visits: list[int], temperature: float, rng: np.random.Generator) -> int:
    """Sample an action from pi(a) proportional to N(a)^(1/temperature).

    One ``rng.random()`` draw against the normalized cumulative distribution,
    the same draw and index ``rng.choice(len(visits), p=pi)`` makes.
    """
    logs = [math.log(v) if v > 0 else -math.inf for v in visits]
    top = max(logs)
    weights = [math.exp((l - top) / temperature) if l > -math.inf else 0.0 for l in logs]
    total = fold(weights)
    cdf = list(accumulate(w / total for w in weights))
    last = cdf[-1]
    return bisect_right([c / last for c in cdf], rng.random())


def plan_action(
    agent_pos: tuple[float, float],
    frames: tuple[PredictedFrame, ...],
    cfg: MCTSConfig,
    rng: np.random.Generator,
    agent_speed: float,
    goal_size: int = 2,
) -> int:
    """One planned action: search the shared predicted frames, then pick by visits."""
    root = run_search(agent_pos, frames, cfg, agent_speed, goal_size=goal_size)
    return select_by_temperature(root.n, cfg.temperature, rng)
