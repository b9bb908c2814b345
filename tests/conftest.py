import numpy as np
import pytest

from lanenav.seeding import STREAM_CLASS, STREAM_SPAWN, substream
from lanenav.world import (
    HEAD,
    LANE,
    LEN1,
    SPEED,
    AgentState,
    GoalState,
    Lane,
    WorldConfig,
    WorldState,
)


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
        agent=AgentState(x=agent[0], y=agent[1]),
        spawn_rng=substream(seed, STREAM_SPAWN),
        class_rng=substream(seed, STREAM_CLASS),
    )


def state_fingerprint(state: WorldState) -> tuple:
    """Hashable value snapshot of everything that evolves."""
    return (
        state.t,
        tuple(state.lanes),
        tuple(map(tuple, state.obstacles.tolist())),
        (state.goal.x, state.goal.y, state.goal.vx, state.goal.vy),
        (state.agent.x, state.agent.y, state.agent.alive),
        str(state.spawn_rng.bit_generator.state),
        str(state.class_rng.bit_generator.state),
        state.done,
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
