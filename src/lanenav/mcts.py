"""PUCT Monte-Carlo tree search over the 8-action space.

The search consumes the tuple of ``PredictedFrame``s that a model's
``predict`` returns and never calls or imports a model: the tree is bounded
to the rollout length, node expansion moves a simulated agent with the
environment's own kinematics, and collision / goal checks at depth d read
predicted frame d-1 (the frame for world time t+d). Node
selection is PUCT with a goal-directed von-Mises-style prior; the final
action is sampled from visit counts sharpened by a temperature.

A decision (``plan_action``) is two calls of a C kernel, ``_search.c``,
which ``kernel`` compiles with the system C compiler on first import, into
the package's one cached shared object: the rollouts (``run_search``), then
the temperature pick from the root's visit counts, read in the kernel's node
table (``select_by_temperature``), with one ``rng.random()`` drawn between
them. ``run_search``, ``plan_action`` and ``select_by_temperature`` are the
one-decision API; an episode's decisions are made by the same two kernel
functions from C, inside the harness's episode loop ``lanenav_play``, on
draws taken up front (``harness``). The kernel reads each frame's occupancy
where it lies, through the frame's record (``world.packed_frame``): its
occupancy's address and its goal estimate. A ``Timeline`` frame carries the
record its timeline wrote; any other frame is packed per search. The kernel
computes each estimate's goal block once per search, for the search's goal
size.

A node's goal prior is a function of the bits of its offset to the goal
estimate, (dx, dy), and of kappa, so the kernel reads it through a
direct-mapped prior table, keyed by those bits: never by ``==``, for which
-0.0 is 0.0, while ``atan2`` puts an offset of (-1, -0.0) at -pi and one of
(-1, +0.0) at pi. A hit gives the bits a computation gives. The caller owns
the table, so the kernel keeps no state and searches may run in several
threads: ``run_search`` makes one per search, as many slots as its node
table has rows, rounded up to a power of two; the harness makes one per
episode, which serves every decision of it.

Results are bit-stable: every float is evaluated in a fixed order, so the
same inputs give the same tree statistics and the same drawn action. The
pick is the former Python loop's bit for bit: libm ``log`` of each positive
count, ``-inf`` for none; the first maximum of them as top; libm
``exp((l - top) / temperature)``; a left fold for the total; running sums of
``w / total``, each divided by the last; the count of those ``<=`` the draw,
the index ``bisect_right`` gives.
"""
from __future__ import annotations

import ctypes
import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kernel import MAX_DEPTH, NODE, PRIOR, SEARCH, check, library, zeroed
from .world import N_ACTIONS, ConfigError, PredictedFrame, action_to_velocity, finite, packed_frame

_A0, _A1, _A2, _A3, _A4, _A5, _A6, _A7 = (a * math.pi / 4.0 for a in range(N_ACTIONS))
_UNIFORM = (1.0 / N_ACTIONS,) * N_ACTIONS
MCTS_INT_KEYS = ("n_rollouts", "rollout_length")
# Both sizes drive work; the kernel's node table has n_rollouts + 1 rows and
# its rollout path rollout_length entries.
MAX_ROLLOUTS = 100_000
MAX_ROLLOUT_LENGTH = MAX_DEPTH
# Nodes of a full tree of depth k: a node at the horizon is never expanded,
# so no search at rollout length k adds more, whatever n_rollouts.
_FULL_TREE = tuple((N_ACTIONS ** (k + 1) - 1) // (N_ACTIONS - 1) for k in range(MAX_ROLLOUT_LENGTH + 1))
# Where a node's visit counts start in its row: plan_action picks from the root's in place.
_VISITS = NODE.n.offset
_NODE = np.dtype(NODE)
_kernel, _select = library.lanenav_search, library.lanenav_select
# Python's own hypot, which the shaping term calls: CPython's differs from libm's.
_hypot = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_double, ctypes.c_double)(math.hypot)
_HYPOT_ADDRESS = ctypes.cast(_hypot, ctypes.c_void_p).value


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
        for name, bound in zip(MCTS_INT_KEYS, (MAX_ROLLOUTS, MAX_ROLLOUT_LENGTH)):
            value = getattr(self, name)
            if type(value) is not int:
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ConfigError(f"{name} must be >= 1")
            if value > bound:
                raise ConfigError(f"{name} must be <= {bound}, got {value!r}")
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


class _Tree:
    """One search's node table: the kernel's buffer of ``count`` rows at ``address``.

    Its numpy view and its children column are read on first use; a
    decision reads neither, since ``plan_action`` picks from the root's
    visit counts by address.
    """

    __slots__ = ("nodes", "count", "address", "_table", "_children")

    def __init__(self, nodes: ctypes.Array, count: int, address: int) -> None:
        self.nodes = nodes
        self.count = count
        self.address = address
        self._table = None
        self._children = None

    @property
    def table(self) -> np.ndarray:
        if self._table is None:
            self._table = np.frombuffer(self.nodes, _NODE, self.count)
        return self._table

    @property
    def children(self) -> list[list[int]]:
        if self._children is None:
            self._children = self.table["children"].tolist()
        return self._children


class SearchNode:
    """Read-only view of one row of a search's node table.

    ``n`` and ``w`` hold each action's visit count and summed value,
    ``total`` the node's visit count, ``q(a)`` the mean w / n (0.0 while
    unvisited). ``prior`` is set when a rollout first selects from the node;
    until then it reads uniform, and the statistics read zero. ``stop_value``
    is the value backed up when a rollout reaches the node: its terminal
    value, or its leaf value at the rollout horizon; None for an interior
    node. ``children`` holds the child of each action, None where no rollout
    has taken it.
    """

    __slots__ = ("_tree", "_row")

    def __init__(self, tree: _Tree, row: int) -> None:
        self._tree = tree
        self._row = row

    def _field(self, name: str):
        return self._tree.table[name][self._row]

    def _optional(self, name: str) -> float | None:
        value = float(self._field(name))
        return None if math.isnan(value) else value

    @property
    def depth(self) -> int:
        return int(self._field("depth"))

    @property
    def x(self) -> float:
        return float(self._field("x"))

    @property
    def y(self) -> float:
        return float(self._field("y"))

    @property
    def terminal_value(self) -> float | None:
        return self._optional("terminal_value")

    @property
    def stop_value(self) -> float | None:
        return self._optional("stop_value")

    @property
    def prior(self) -> list[float]:
        return self._field("prior").tolist()

    @property
    def w(self) -> list[float]:
        return self._field("w").tolist()

    @property
    def n(self) -> list[int]:
        return self._field("n").tolist()

    @property
    def total(self) -> int:
        return int(self._field("total"))

    @property
    def children(self) -> list[SearchNode | None]:
        tree = self._tree
        return [None if row < 0 else SearchNode(tree, row) for row in tree.children[self._row]]

    def q(self, action: int) -> float:
        # The kernel's w / n, written at the action's last visit.
        return float(self._field("mean")[action])


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


@lru_cache(maxsize=16)
def _moves(agent_speed: float) -> ctypes.Array:
    """(dx, dy) of each action, flat, as the ``Search``'s ``moves``."""
    moves = (v for a in range(N_ACTIONS) for v in action_to_velocity(a, agent_speed))
    return (ctypes.c_double * (2 * N_ACTIONS))(*moves)


def _search(cfg: MCTSConfig, nodes: int, priors: int, n_priors: int, agent_pos: tuple[float, float],
            agent_speed: float, shape: tuple[int, int], goal_size: int) -> SEARCH:
    """The kernel's ``Search``: the addresses of the node table and of the prior table of ``n_priors`` slots,
    the settings of ``cfg`` and the agent's moves on a grid of ``shape`` with goal blocks of side
    ``goal_size``, searching from ``agent_pos``."""
    height, width = shape
    return SEARCH(nodes=nodes, priors=priors, hypot=_HYPOT_ADDRESS, n_rollouts=cfg.n_rollouts, k=cfg.rollout_length,
                  height=height, width=width, goal_size=goal_size, n_priors=n_priors, x0=agent_pos[0],
                  y0=agent_pos[1], c_puct=cfg.c_puct, kappa=cfg.prior_kappa, death_value=cfg.death_value,
                  goal_value=cfg.goal_value, beta=cfg.shaping_beta, diag=math.hypot(width - 1.0, height - 1.0),
                  moves=_moves(agent_speed))


@lru_cache(maxsize=64)
def _table_layout(n_rollouts: int, k: int, slots: int | None) -> tuple[int, int, int]:
    """(bytes, prior table's offset, its slots) of ``_search_tables``' buffer, worked out once per size."""
    rows = min(n_rollouts + 1, _FULL_TREE[k])
    if slots is None:
        slots = 1 << (rows - 1).bit_length()
    nodes = rows * ctypes.sizeof(NODE)
    return nodes + slots * ctypes.sizeof(PRIOR), nodes, slots


def _search_tables(cfg: MCTSConfig, slots: int | None = None) -> tuple[ctypes.Array, int, int, int]:
    """One zeroed buffer for the searches of ``cfg`` and where its parts lie: (buffer, node table's address,
    prior table's address, prior table's slots).

    The node table comes first: ``n_rollouts + 1`` rows, a rollout adding at most one node, or the nodes of a
    full tree of depth k where that is fewer. The empty prior table follows, of ``slots`` slots, a power of
    two; by default as many as the node table has rows, rounded up to one.
    """
    size, offset, slots = _table_layout(cfg.n_rollouts, cfg.rollout_length, slots)
    buffer = zeroed(size)
    address = ctypes.addressof(buffer)
    return buffer, address, address + offset, slots


def _pack_frames(frames: tuple[PredictedFrame, ...], k: int, shape: tuple[int, ...]) -> tuple[bytes, list]:
    """The kernel's ``Frame`` records of the first k frames, and what keeps their occupancies alive."""
    if len(frames) < k:
        raise ValueError(f"{len(frames)} predicted frames given, need {k}")
    packed = [packed_frame(frame, shape) for frame in frames[:k]]
    return b"".join([record for record, _ in packed]), packed


def run_search(
    agent_pos: tuple[float, float],
    frames: tuple[PredictedFrame, ...],
    cfg: MCTSConfig,
    agent_speed: float,
    goal_size: int = 2,
) -> SearchNode:
    """Build and fill the search tree; returns a view of the root.

    Each rollout descends by PUCT, argmax over a of
    Q(a) + c * P(a) * sqrt(sum N) / (1 + N(a)) with ties to the lowest index
    (an unvisited node takes the exploration scale as 1, so it picks the prior
    argmax), expands one child, and adds one visit and the rollout value to
    every edge on its path. Reaching a node at depth d ends the rollout with
    the goal value inside the goal block of frame d-1, else with the death
    value on an occupied cell of it, else, at the horizon, with the leaf
    value: 0, or with ``shaping_beta`` > 0 minus beta times the distance to
    frame d-1's goal estimate over the grid diagonal. The first selection
    from a node reads its ``goal_prior`` toward frame d's goal estimate.

    The loop runs in the C kernel, which fills a table of
    ``n_rollouts + 1`` nodes, since each rollout adds at most one, or of the
    nodes of a full tree of depth k where that is fewer. It reads
    each frame's occupancy where it lies, through the frame's record
    (``world.packed_frame``), and computes the goal blocks of ``goal_size``.
    Its priors go through a prior table of this search's own, in the node
    table's buffer.
    """
    shape = frames[0].occupancy.shape if frames else ()
    records, packed = _pack_frames(frames, cfg.rollout_length, shape)
    tables, nodes, priors, slots = _search_tables(cfg)
    search = _search(cfg, nodes, priors, slots, agent_pos, agent_speed, shape, goal_size)
    count = check(_kernel(ctypes.byref(search), records))
    return SearchNode(_Tree(tables, count, nodes), 0)


def select_by_temperature(visits: list[int], temperature: float, rng: np.random.Generator) -> int:
    """Sample an action from pi(a) proportional to N(a)^(1/temperature).

    One ``rng.random()`` draw against the normalized cumulative distribution,
    the same draw and index ``rng.choice(len(visits), p=pi)`` makes. The
    pick runs in the kernel (``lanenav_select``), with the exactness rules
    of the module docstring. The draw comes first, so a pick that raises (a
    zero temperature, no visits) has made it.
    """
    return check(_select(struct.pack(f"{len(visits)}q", *visits), len(visits), temperature, rng.random()))


def plan_action(
    agent_pos: tuple[float, float],
    frames: tuple[PredictedFrame, ...],
    cfg: MCTSConfig,
    rng: np.random.Generator,
    agent_speed: float,
    goal_size: int = 2,
) -> int:
    """One planned action: search the shared predicted frames, then pick by the root's visits.

    The pick is ``select_by_temperature``'s, read from the kernel's node
    table in place; its one ``rng.random()`` draw follows the search, and a
    search that raises draws nothing.
    """
    root = run_search(agent_pos, frames, cfg, agent_speed, goal_size=goal_size)
    return check(_select(root._tree.address + _VISITS, N_ACTIONS, cfg.temperature, rng.random()))
