import numpy as np
import pytest
from hypothesis import strategies as st

from lanenav.models import _noisy_samples, oracle_predict
from lanenav.seeding import STREAM_CLASS, STREAM_SPAWN, substream
from lanenav.world import (
    HEAD,
    LANE,
    LEN1,
    SPEED,
    GoalState,
    Lane,
    Outcome,
    WorldConfig,
    WorldState,
    move,
    outcome_at,
    render_frame,
    world_step,
)


def noisy_sample_predict(state: WorldState, k: int, n_samples: int, p_fn: float, p_fp: float,
                         goal_sigma: float, rng: np.random.Generator):
    """Reference noisy prediction from a ``WorldState``: ``_noisy_samples`` on the
    clone-and-step rollout of ``oracle_predict``, where the noisy model reads its timeline."""
    return _noisy_samples(oracle_predict(state, k), n_samples, p_fn, p_fp, goal_sigma, rng)


def obstacle_table(bodies: list[tuple[int, float, int, float]]) -> np.ndarray:
    """World obstacle table of (lane_index, head_x, length, speed) bodies."""
    table = np.zeros((len(bodies), 4))
    for row, (lane, head, length, speed) in zip(table, bodies):
        row[[LANE, HEAD, LEN1, SPEED]] = lane, head, length - 1, speed
    return table


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
    """Raised by ``NoTimeline`` on any attribute access."""


class NoTimeline:
    """Stands in for ``Observation.timeline`` where a model must not read the truth."""

    def __getattribute__(self, name):
        raise TimelineRead(name)


@pytest.fixture
def quiet_config() -> WorldConfig:
    return WorldConfig(level=0.0, warmup_steps=0)


def frames_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.array_equal(a, b))


# Config and flag values for the boundary fuzz: any text, numbers, and near misses of valid values.
FUZZ_VALUES = (st.text(max_size=12) | st.integers(-3, 10 ** 20).map(str) | st.floats().map(repr)
               | st.sampled_from(["0", "1x", "2x", "nan", "-inf", "1e999", "oracle", "none", "noisy",
                                  "noisy:0.1,0.02,1,5", "noisy:0.1,0.02", "noisy:2,0,1,1", "oracle,frozen", "1,3"]))
