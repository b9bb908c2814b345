"""The world's C kernels against the Python code they replaced.

``conftest.reference_world_step``, ``reference_render_frame`` and
``reference_predicted_frame`` are the world's former step, rasterizer and
frame reader. On random worlds, a state and its clone are stepped in
lockstep, one by the kernel and one by the reference, and after every step
they must hold the same bits: the table rows in order, ``spawn_draws``, both
generators' states and the goal; so must their frames, obstacle masks and
goal centres. Where the kernel cannot index safely it raises.
"""
from __future__ import annotations

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from conftest import (
    build_state,
    obstacle_table,
    reference_predicted_frame,
    reference_render_frame,
    reference_world_step,
)
from lanenav.world import (
    LEFT_TO_RIGHT,
    LEN1,
    MAX_ARRIVALS,
    MAX_BODY,
    MAX_GRID,
    RIGHT_TO_LEFT,
    SPEED,
    ObstacleClass,
    PlacementError,
    WorldConfig,
    clone_state,
    new_episode,
    predicted_frame,
    render_frame,
    world_step,
)

STEPS = 20


def state_bits(state) -> tuple:
    goal = state.goal
    return (state.t, state.spawn_draws, state.obstacles.shape, state.obstacles.tobytes(),
            repr((goal.x, goal.y, goal.vx, goal.vy)),
            state.spawn_rng.bit_generator.state, state.class_rng.bit_generator.state)


def assert_same_read(frame: np.ndarray) -> None:
    got, want = predicted_frame(frame), reference_predicted_frame(frame)
    assert got.occupancy.dtype == want.occupancy.dtype and np.array_equal(got.occupancy, want.occupancy)
    assert repr(got.goal_estimate) == repr(want.goal_estimate)
    assert not got.occupancy.flags.writeable


def assert_lockstep(state, steps: int = STEPS) -> None:
    """Step ``state`` with the kernel and a clone with the reference; every step agrees bit for bit."""
    reference = clone_state(state)
    frame = render_frame(state)
    assert np.array_equal(frame, reference_render_frame(reference))
    for _ in range(steps):
        world_step(state)
        reference_world_step(reference)
        assert state_bits(state) == state_bits(reference)
        frame = render_frame(state)
        assert frame.dtype == np.uint8 and np.array_equal(frame, reference_render_frame(reference))
        assert_same_read(frame)


@st.composite
def classes(draw) -> tuple[ObstacleClass, ...]:
    out = []
    for class_id in draw(st.lists(st.integers(1, 5), min_size=1, max_size=5, unique=True)):
        # Multiples of 0.5 put heads on half-pixel ties; a jitter >= the mean draws magnitudes <= 0.
        mean_speed = draw(st.sampled_from([0.5, 1.0, 1.5]) | st.floats(0.01, 3.0))
        speed_jitter = mean_speed * draw(st.sampled_from([0.0, 1.0, 1.5]) | st.floats(0.0, 2.0))
        mean_length = draw(st.sampled_from([1.0, 1.5, 2.0, 63.0, 64.0]) | st.floats(1.0, MAX_BODY))
        length_jitter = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, MAX_BODY - mean_length))
        if mean_length + length_jitter > MAX_BODY:
            length_jitter = 0.0
        out.append(ObstacleClass(class_id, mean_speed, speed_jitter, mean_length, length_jitter))
    return tuple(out)


@st.composite
def hand_built_worlds(draw):
    """A world of random lanes and bodies: bodies on, across and past both edges, ties at x = 0."""
    grid_w = draw(st.sampled_from([2, 3, MAX_GRID]) | st.integers(2, MAX_GRID))
    grid_h = draw(st.integers(2, 24))
    obstacle_classes = draw(classes())
    n_lanes = draw(st.integers(1, 6))
    lanes = [(draw(st.integers(0, grid_h - 1)), draw(st.sampled_from([c.class_id for c in obstacle_classes])),
              draw(st.sampled_from([LEFT_TO_RIGHT, RIGHT_TO_LEFT]))) for _ in range(n_lanes)]
    # Up to 32 arrivals per step over few lanes: many candidates per lane.
    arrivals = draw(st.sampled_from([0.0, 1.0, MAX_ARRIVALS - 1.0]) | st.floats(0.0, MAX_ARRIVALS - 1.0))
    config = WorldConfig(grid_h=grid_h, grid_w=grid_w, level=1.0, spawn_base_rate=arrivals / n_lanes,
                         lane_rows=tuple(range(min(n_lanes, grid_h))), obstacle_classes=obstacle_classes,
                         goal_size=draw(st.integers(1, 2)), warmup_steps=0)
    head = (st.integers(-MAX_BODY - 4, grid_w + MAX_BODY + 4).map(float)
            | st.integers(-8, 8).map(lambda i: i / 2.0)
            | st.floats(-MAX_BODY - 4.0, grid_w + MAX_BODY + 4.0))
    speed = st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.5]) | st.floats(-3.0, 3.0)
    bodies = draw(st.lists(st.tuples(st.integers(0, n_lanes - 1), head, st.integers(1, MAX_BODY), speed),
                           max_size=40))
    goal = (draw(st.floats(0.0, grid_w - config.goal_size)), draw(st.floats(0.0, grid_h - config.goal_size)),
            draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
    return build_state(config=config, lanes=lanes, obstacles=bodies, goal=goal, seed=draw(st.integers(0, 2**31 - 1)))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(state=hand_built_worlds())
def test_hand_built_worlds_step_as_the_reference(state):
    assert_lockstep(state)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grid_w=st.integers(2, MAX_GRID), grid_h=st.integers(3, 48), obstacle_classes=classes(),
       rows=st.integers(1, 12), level=st.floats(0.0, 80.0), warmup_steps=st.integers(0, 60),
       seed=st.integers(0, 2**31 - 1))
def test_warmed_up_worlds_step_as_the_reference(grid_w, grid_h, obstacle_classes, rows, level, warmup_steps, seed):
    lane_rows = tuple(range(0, grid_h, max(1, grid_h // rows)))
    level = min(level, (MAX_ARRIVALS - 1.0) / (0.015 * len(lane_rows)))
    config = WorldConfig(grid_h=grid_h, grid_w=grid_w, level=level, lane_rows=lane_rows,
                         obstacle_classes=obstacle_classes, warmup_steps=warmup_steps)
    try:
        state = new_episode(config, seed)
    except PlacementError:
        assume(False)
    assert_lockstep(state)


def test_empty_tables_and_no_lanes():
    assert_lockstep(build_state())
    quiet = build_state(lanes=[(3, 1, LEFT_TO_RIGHT)])
    assert_lockstep(quiet)
    assert quiet.obstacles.shape == (0, 4)


@settings(max_examples=100, deadline=None)
@given(frame=st.integers(1, 40).flatmap(lambda w: st.lists(st.integers(0, 255) | st.sampled_from([0, 5, 6]),
                                                           min_size=w, max_size=w * 20)
                                          .map(lambda v: np.array(v[:len(v) // w * w], np.uint8).reshape(-1, w))))
def test_frames_read_as_the_reference(frame):
    assume(frame.size)
    assert_same_read(frame)
    assert_same_read(frame[::-1])  # not contiguous


@pytest.mark.parametrize("lane, length, match", [
    (-1.0, 1, "lane index"), (2.0, 1, "lane index"), (0.5, 1, "lane index"), (math.nan, 1, "lane index"),
    (0.0, math.nan, "LEN1"), (0.0, 0.0, "LEN1"), (0.0, 2.0 ** 40, "LEN1"),
])
def test_bad_rows_raise(lane, length, match):
    state = build_state(lanes=[(3, 1, LEFT_TO_RIGHT), (5, 2, RIGHT_TO_LEFT)])
    state.obstacles = obstacle_table([(0, 10.0, 2, 1.0), (0, 20.0, 1, 1.0)])
    state.obstacles[1, [3, LEN1]] = lane, length - 1.0
    with pytest.raises(ValueError, match=match):
        render_frame(state)
    with pytest.raises(ValueError, match=match):
        world_step(state)


def test_lane_row_outside_the_grid_raises():
    state = build_state(lanes=[(48, 1, LEFT_TO_RIGHT)], obstacles=[(0, 10.0, 2, 1.0)])
    with pytest.raises(ValueError, match="lane row"):
        render_frame(state)


@pytest.mark.parametrize("table", [np.zeros((2, 3)), np.zeros((2, 4), np.float32), np.zeros(8)])
def test_malformed_tables_raise(table):
    state = build_state(lanes=[(3, 1, LEFT_TO_RIGHT)])
    state.obstacles = table
    with pytest.raises(ValueError, match="obstacle table"):
        render_frame(state)


@pytest.mark.parametrize("frame", [np.zeros((4, 4), np.int64), np.zeros(16, np.uint8), np.zeros((2, 2, 2), np.uint8)])
def test_frames_not_palette_raise(frame):
    with pytest.raises(ValueError, match="palette frame"):
        predicted_frame(frame)


def test_the_table_can_be_edited_or_replaced_between_steps():
    state = new_episode(WorldConfig(level=30.0), 5)
    world_step(state)
    state.obstacles[0, SPEED] = 0.0  # in the view world_step left
    assert_lockstep(state, steps=3)
    state.obstacles = state.obstacles[2:]
    assert_lockstep(state, steps=3)


@pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda state: pickle.loads(pickle.dumps(state))])
def test_copies_step_apart_from_the_original(duplicate):
    state = new_episode(WorldConfig(level=30.0), 6)
    world_step(state)
    twin = duplicate(state)
    assert state_bits(twin) == state_bits(state)
    for _ in range(3):
        world_step(state)
    assert_lockstep(twin, steps=3)
    assert state_bits(twin) == state_bits(state)
