"""The two starts of an episode: ``new_episode`` and ``Timeline``.

The warm-up of ``new_episode`` is ``warmup_steps`` calls of ``world_step``.
On random worlds (no speed jitter, jitter at or above the mean speed, long
lengths, one busy lane) the warmed-up world must be exactly what that many
``world_step`` calls leave on an empty field: the obstacle table with its row
order, ``spawn_draws`` and the state of both random generators. Long runs
must keep the table and the memory small. ``tests/data/world_frames.json``
pins the step itself to recorded frames.

A ``Timeline`` starts in one kernel call, which warms up in C and calls
neither ``new_episode`` nor ``world_step``. On the same worlds it must start
as ``new_episode`` of its seed does, and both as the former Python start,
``conftest.reference_new_episode``: the agent, the goal's position and
velocity, frame 0, ``PlacementError`` and its message where the start
fails, and the states of all three generators of the seed, the placement's
after its draws; then frames 1..n must be ``world_step`` plus
``render_frame`` of the state, with the same ``spawn_draws`` and draws.
"""
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from conftest import reference_new_episode, reference_render_frame
from lanenav import world
from lanenav.seeding import STREAM_CLASS, STREAM_PLACE, STREAM_SPAWN, substream
from lanenav.world import (
    ObstacleClass,
    PlacementError,
    Timeline,
    WorldConfig,
    new_episode,
    render_frame,
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


# Dense worlds: 128 lanes on a grid 2 cells wide, each lane blocked for good once its first body, 64 cells
# long, is half a cell in. After 30 steps most seeds leave no free cell, some one or two: seeds 47, 198 and
# 298 fail the agent's placement, 1 and 2 place it after retries.
DENSE = WorldConfig(grid_h=128, grid_w=2, lane_rows=tuple(range(128)), level=0.25, spawn_base_rate=1.0,
                    obstacle_classes=(ObstacleClass(1, mean_speed=0.05, speed_jitter=0.0, mean_length=64.0,
                                                    length_jitter=0.0),),
                    goal_size=1, warmup_steps=30)
# One busy lane whose bodies, a cell long at a cell a step, fill the timeline's first table (48 rows for one
# lane) during the warm-up, so that the start grows.
BUSY = WorldConfig(grid_h=3, grid_w=64, lane_rows=(1,), level=80.0, spawn_base_rate=0.2,
                   obstacle_classes=(ObstacleClass(2, mean_speed=1.0, speed_jitter=0.0, mean_length=1.0,
                                                   length_jitter=0.0),),
                   goal_size=1, warmup_steps=64)
# Both cells of the one row covered for good after a step: no free cell for the agent.
COVERED = WorldConfig(grid_h=1, grid_w=2, lane_rows=(0,), level=30.0, spawn_base_rate=1.0,
                      obstacle_classes=(ObstacleClass(1, mean_speed=1.0, speed_jitter=0.0, mean_length=64.0,
                                                      length_jitter=0.0),),
                      goal_size=1, warmup_steps=5)
# A goal block as large as the grid holds the agent wherever it lies.
WHOLE_GOAL = WorldConfig(grid_h=5, grid_w=5, lane_rows=(2,), goal_size=5, warmup_steps=3)


def started(make, cfg: WorldConfig, seed: int) -> tuple:
    """(what ``make(cfg, seed)`` starts, or the ``PlacementError`` it raises; the states of the generators it
    made through ``world.substream``, by stream tag, after the start)."""
    made = {}

    def recording(episode_seed: int, tag: int):
        made[tag] = rng = substream(episode_seed, tag)
        return rng

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(world, "substream", recording)
        try:
            result = make(cfg, seed)
        except PlacementError as error:
            result = error
    return result, {tag: rng.bit_generator.state for tag, rng in made.items()}


def goal_of(timeline: Timeline) -> str:
    """The goal of the timeline's world as it stands, by ``repr`` so that -0.0 and 0.0 differ."""
    kernel = timeline._timeline.world
    return repr((kernel.goal_x, kernel.goal_y, kernel.goal_vx, kernel.goal_vy))


def assert_starts_agree(cfg: WorldConfig, seed: int, frames: int) -> Timeline | None:
    """The timeline of ``seed`` starts as ``new_episode`` and the former Python start do, and steps on as
    ``world_step`` plus ``render_frame`` for ``frames`` frames; returns it, or None where the start failed."""
    timeline, timeline_rngs = started(Timeline, cfg, seed)
    state, state_rngs = started(new_episode, cfg, seed)
    reference, place_rng = reference_new_episode(cfg, seed)
    assert timeline_rngs == state_rngs
    assert set(state_rngs) == {STREAM_SPAWN, STREAM_CLASS, STREAM_PLACE}
    assert state_rngs[STREAM_PLACE] == place_rng.bit_generator.state
    if isinstance(reference, PlacementError):
        for error in (timeline, state):
            assert type(error) is PlacementError and str(error) == str(reference) and error.episode_seed == seed
        return None
    assert state_rngs[STREAM_SPAWN] == reference.spawn_rng.bit_generator.state
    assert state_rngs[STREAM_CLASS] == reference.class_rng.bit_generator.state
    assert state.lanes == reference.lanes and state.obstacles.tobytes() == reference.obstacles.tobytes()
    goal = state.goal
    assert timeline.start == state.start == reference.start
    assert goal_of(timeline) == repr((goal.x, goal.y, goal.vx, goal.vy)) == repr(
        (reference.goal.x, reference.goal.y, reference.goal.vx, reference.goal.vy))
    assert timeline.frame(0).tobytes() == render_frame(state).tobytes() == reference_render_frame(reference).tobytes()
    assert timeline.spawn_draws == state.spawn_draws == 0
    for t in range(1, frames + 1):
        world_step(state)
        assert np.array_equal(timeline.frame(t), render_frame(state)), t
    spawn_rng, class_rng = timeline._rngs
    assert (timeline.spawn_draws, spawn_rng.bit_generator.state, class_rng.bit_generator.state, goal_of(timeline)) \
        == (state.spawn_draws, state.spawn_rng.bit_generator.state, state.class_rng.bit_generator.state,
            repr((state.goal.x, state.goal.y, state.goal.vx, state.goal.vy)))
    return timeline


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=worlds(), seed=st.integers(0, 2**31 - 1), frames=st.integers(0, 20), goal=st.sampled_from([1, 2, 0]))
@example(cfg=replace(WorldConfig(), warmup_steps=0), seed=3, frames=5, goal=2)
@example(cfg=replace(WorldConfig(), warmup_steps=1), seed=4, frames=5, goal=2)
@example(cfg=replace(WorldConfig(), warmup_steps=64), seed=5, frames=5, goal=2)
def test_timeline_starts_as_new_episode(cfg, seed, frames, goal):
    """On random worlds, with goals of 1 and 2 cells and as large as the grid allows (0), which fail to be
    placed on square grids."""
    assert_starts_agree(replace(cfg, goal_size=goal or min(cfg.grid_h, cfg.grid_w)), seed, frames)


@pytest.mark.parametrize("cfg, seed, message", [
    (DENSE, 47, "agent placement failed"), (DENSE, 198, "agent placement failed"),
    (DENSE, 3, "no obstacle-free pixel for the agent"), (COVERED, 0, "no obstacle-free pixel for the agent"),
    (WHOLE_GOAL, 0, "goal placement failed"), (DENSE, 1, None), (DENSE, 2, None)])
def test_placements_that_retry_or_fail(cfg, seed, message):
    """Dense worlds, where the agent's placement retries and may fail, and a goal that is never placed: both
    starts fail with the former start's message and draws, or place where it placed."""
    timeline = assert_starts_agree(cfg, seed, 3)
    assert (timeline is None) == (message is not None)
    if message is not None:
        with pytest.raises(PlacementError, match=f"^{message}$"):
            Timeline(cfg, seed)


def test_a_busy_warm_up_returns_for_table_room():
    """The timeline's start grows a larger table in the middle of the warm-up, and goes on as
    ``new_episode`` warms up."""
    grown = []
    grow = Timeline._grow

    def counting_grow(self):
        grown.append((len(self), self._timeline.world.n_rows))
        grow(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Timeline, "_grow", counting_grow)
        assert assert_starts_agree(BUSY, 9, 20) is not None
    assert grown[0] == (0, 0) and grown[1][0] == 0 and grown[1][1] > 48 - 1


def test_timeline_calls_neither_new_episode_nor_world_step():
    """A tracer that wraps ``world_step`` and ``new_episode`` sees no call from a timeline, which starts and
    steps in C, and one ``world_step`` call per warm-up step of ``new_episode``."""
    calls = []

    def wrapped(name, function):
        def tracing(*args):
            calls.append(name)
            return function(*args)
        return tracing

    cfg = WorldConfig()
    with pytest.MonkeyPatch.context() as patch:
        for name in ("world_step", "new_episode"):
            patch.setattr(world, name, wrapped(name, getattr(world, name)))
        timeline = Timeline(cfg, 7)
        timeline.frame(30)
        assert calls == []
        world.new_episode(cfg, 7)
    assert calls == ["new_episode"] + ["world_step"] * cfg.warmup_steps
