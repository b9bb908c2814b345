"""The warm-up of ``new_episode`` is ``warmup_steps`` calls of ``world_step``.

On random worlds (no speed jitter, jitter at or above the mean speed, long
lengths, one busy lane) the warmed-up world must be exactly what that many
``world_step`` calls leave on an empty field: the obstacle table with its row
order, ``spawn_draws`` and the state of both random generators. Long runs
must keep the table and the memory small. ``tests/data/world_frames.json``
pins the step itself to recorded frames.
"""
import tracemalloc
from dataclasses import replace

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from lanenav.world import (
    ObstacleClass,
    PlacementError,
    WorldConfig,
    new_episode,
    world_step,
)


@st.composite
def worlds(draw) -> WorldConfig:
    grid_w = draw(st.integers(2, 64))
    grid_h = draw(st.integers(3, 48))
    if draw(st.booleans()):
        # One busy lane: several candidates per step compete for its entry.
        lane_rows = [draw(st.integers(0, grid_h - 1))]
        level, rate = draw(st.floats(5.0, 80.0)), draw(st.sampled_from([0.015, 0.05, 0.2]))
    else:
        lane_rows = draw(st.lists(st.integers(0, grid_h - 1), min_size=1, max_size=12, unique=True))
        level, rate = draw(st.floats(0.0, 80.0)), 0.015
    classes = tuple(
        ObstacleClass(
            class_id,
            mean_speed=(speed := draw(st.sampled_from([0.25, 0.5, 1.0, 1.5]) | st.floats(0.05, 2.5))),
            # 0: heads on exact half-pixels (rounding ties); >= 1: bodies that stall or back out.
            speed_jitter=speed * draw(st.sampled_from([0.0, 0.2, 1.0, 2.0])),
            mean_length=(length := draw(st.floats(1.0, 6.0))),
            length_jitter=draw(st.sampled_from([0.0, 1.0, length + 8.0]) | st.floats(0.0, 4.0)),
        )
        for class_id in draw(st.lists(st.integers(1, 5), min_size=1, max_size=5, unique=True))
    )
    return WorldConfig(
        grid_h=grid_h,
        grid_w=grid_w,
        level=level,
        spawn_base_rate=rate,
        lane_rows=tuple(lane_rows),
        obstacle_classes=classes,
        goal_size=1,
        warmup_steps=draw(st.sampled_from([0, 1]) | st.integers(0, 64)),
    )


def episode(cfg: WorldConfig, seed: int):
    try:
        return new_episode(cfg, seed)
    except PlacementError:
        assume(False)


def snapshot(state) -> tuple:
    return (
        state.obstacles.shape,
        state.obstacles.tobytes(),
        state.spawn_draws,
        state.spawn_rng.bit_generator.state,
        state.class_rng.bit_generator.state,
    )


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=worlds(), seed=st.integers(0, 2**31 - 1))
def test_warmup_equals_single_steps(cfg, seed):
    """The warm-up of new_episode, including 0 and 1 steps, is single steps from an empty field."""
    warm = episode(cfg, seed)
    cold = episode(replace(cfg, warmup_steps=0), seed)
    assert len(cold.obstacles) == 0
    for _ in range(cfg.warmup_steps):
        world_step(cold)
    cold.spawn_draws = 0
    assert snapshot(warm) == snapshot(cold)
    assert warm.t == 0


def test_long_runs_keep_memory_bounded():
    """A long warm-up and a long run keep the table and the memory small."""
    tracemalloc.start()
    try:
        state = new_episode(WorldConfig(warmup_steps=5000), 3)
        for _ in range(5000):
            world_step(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert len(state.obstacles) < 500
