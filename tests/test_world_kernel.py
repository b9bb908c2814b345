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

import contextlib
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
    timeline_of,
)
from lanenav import kernel, world
from lanenav.kernel import FRAME, N_LANE_COLUMNS, WORLD, library, zeroed
from lanenav.seeding import clone_rng
from lanenav.world import (
    GOAL,
    LEFT_TO_RIGHT,
    LEN1,
    MAX_ARRIVALS,
    MAX_BODY,
    MAX_GRID,
    RIGHT_TO_LEFT,
    SPEED,
    ObstacleClass,
    PlacementError,
    PredictedFrame,
    Timeline,
    WorldConfig,
    clone_state,
    new_episode,
    packed_frame,
    predicted_frame,
    render_frame,
    round_px,
    world_step,
)

pytestmark = pytest.mark.bitpin

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


# The world's draws in C: numpy's own samplers on the state's generators, against Generator's methods.
# numpy draws Poisson counts by multiplication below a mean of 10 and by PTRS from 10 on.
MEANS = (st.just(0.0) | st.floats(1e-3, 10.0, exclude_max=True) | st.floats(10.0, MAX_ARRIVALS)
         | st.just(MAX_ARRIVALS))


def kernel_counts(lam: float, lanes: int, spawn_rng, class_rng) -> list[int]:
    """The Poisson counts the step kernel draws, one one-lane draw-only call per lane; each call also
    takes two uniforms from ``class_rng`` per candidate."""
    counts = []
    for _ in range(lanes):
        world = zeroed(WORLD.size)
        WORLD.struct.pack_into(world, 0, 1, 2, 1, 0, spawn_rng.bit_generator.ctypes.bit_generator.value,
                               class_rng.bit_generator.ctypes.bit_generator.value, lam, 0, 0, 0.0, 0.0, 0.0, 0.0,
                               0)
        assert library.lanenav_world_step(world, bytes(8 * N_LANE_COLUMNS), None) == 0
        counts.append(WORLD.struct.unpack_from(world)[-1])
    return counts


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64])
def test_the_capsule_gives_the_address_numpy_gives(bit_generator):
    generator = bit_generator(5)
    assert world._bitgen_address(generator) == generator.ctypes.bit_generator.value
    state = new_episode(WorldConfig(), 3)
    spawn, classes = WORLD.struct.unpack_from(world._kernel(state).world)[4:6]
    assert (spawn, classes) == (state.spawn_rng.bit_generator.ctypes.bit_generator.value,
                                state.class_rng.bit_generator.ctypes.bit_generator.value)


@settings(max_examples=150, deadline=None)
@given(lam=MEANS, lanes=st.integers(0, 40), seed=st.integers(0, 2**63))
def test_draws_equal_numpys(lam, lanes, seed):
    spawn_rng, class_rng = np.random.default_rng(seed), np.random.default_rng(seed + 1)
    want_spawn, want_class = clone_rng(spawn_rng), clone_rng(class_rng)
    counts = kernel_counts(lam, lanes, spawn_rng, class_rng)
    want = want_spawn.poisson(lam, size=lanes).tolist()
    want_class.random(2 * sum(want))
    assert counts == want
    assert spawn_rng.bit_generator.state == want_spawn.bit_generator.state
    assert class_rng.bit_generator.state == want_class.bit_generator.state


def one_lane_world(seed: int, lam: float = MAX_ARRIVALS):
    """A one-lane world of 1-cell bodies at arrival rate ``lam`` (at most MAX_ARRIVALS), not warmed up."""
    config = WorldConfig(grid_h=4, grid_w=24, level=1.0, spawn_base_rate=lam, lane_rows=(1,),
                         obstacle_classes=(ObstacleClass(1, 1.0, 0.5, 1.0, 0.0),), warmup_steps=0)
    return build_state(config=config, lanes=[(1, 1, RIGHT_TO_LEFT)], seed=seed)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), lam=MEANS)
def test_steps_equal_the_reference_step_by_step(seed, lam):
    """N steps of the kernel and of the reference: the same table, spawn count and generator states after each."""
    assert_lockstep(one_lane_world(seed, lam), steps=60)


def test_at_the_arrivals_bound_each_step_draws_as_the_reference():
    state = one_lane_world(11)
    assert_lockstep(state, steps=200)
    assert state.spawn_draws > 200 * (MAX_ARRIVALS - 8)


@pytest.mark.parametrize("spoil", [
    lambda state: state.obstacles.__setitem__((0, 3), 7.0),  # a lane index outside the lane table
    lambda state: state.obstacles.__setitem__((0, LEN1), math.nan),
    lambda state: setattr(state, "obstacles", np.zeros((2, 3))),
    lambda state: setattr(state, "obstacles", np.zeros((2, 4), np.float32)),
])
def test_a_step_that_raises_leaves_the_generators_where_the_reference_does(spoil):
    state = one_lane_world(5, lam=3.0)
    state.obstacles = obstacle_table([(0, 10.0, 2, 1.0)])
    world_step(state)
    spoil(state)
    reference = clone_state(state)
    with pytest.raises(ValueError, match="obstacle table"):
        world_step(state)
    with contextlib.suppress(Exception):  # the reference draws first; where it then fails does not matter here
        reference_world_step(reference)
    assert state.spawn_rng.bit_generator.state == reference.spawn_rng.bit_generator.state
    assert state.class_rng.bit_generator.state == reference.class_rng.bit_generator.state


def test_a_mean_numpy_refuses_raises_as_numpy_before_any_draw():
    state = build_state(config=WorldConfig(lane_rows=(), level=1e10, spawn_base_rate=1e10, warmup_steps=0))
    before = state_bits(state)
    with pytest.raises(ValueError, match="^lam value too large$"):
        world_step(state)
    with pytest.raises(ValueError, match="^lam value too large$"):
        reference_world_step(clone_state(state))
    assert state_bits(state) == before


def test_the_generators_locks_are_held_through_the_draws(monkeypatch):
    state = one_lane_world(2)
    held = []
    step = kernel.library.lanenav_world_step

    def watching_step(*args):
        held.append((state.spawn_rng.bit_generator.lock._is_owned(), state.class_rng.bit_generator.lock._is_owned()))
        return step(*args)

    monkeypatch.setattr(kernel.library, "lanenav_world_step", watching_step)
    world_step(state)
    assert held == [(True, True)]
    assert not state.spawn_rng.bit_generator.lock._is_owned()


# The frame pass: one kernel call paints, reads and packs each new timeline frame.

def assert_frame_pass(state, steps: int) -> None:
    """A timeline from ``state`` against the references, frame by frame: palette, mask, goal, record."""
    reference = clone_state(state)
    cfg = state.config
    timeline = timeline_of(state)
    for t in range(steps + 1):
        if t:
            reference_world_step(reference)
        frame, predicted = timeline.frame(t), timeline.predicted(t)
        want = reference_render_frame(reference)
        assert np.array_equal(frame, want) and not frame.flags.writeable
        read = reference_predicted_frame(want)
        assert np.array_equal(predicted.occupancy, read.occupancy) and not predicted.occupancy.flags.writeable
        assert repr(predicted.goal_estimate) == repr(read.goal_estimate)
        record = timeline.records[t * FRAME.size:(t + 1) * FRAME.size].tobytes()
        packed = packed_frame(PredictedFrame(read.occupancy.copy(), read.goal_estimate), (cfg.grid_h, cfg.grid_w))[0]
        assert record[8:] == packed[8:]  # the goal estimate, NaN for none
        assert FRAME.struct.unpack(record)[0] == predicted.occupancy.ctypes.data == timeline.palettes[t] + (
            predicted.occupancy.ctypes.data - frame.ctypes.data)
        assert timeline.palettes[t] == frame.ctypes.data
        assert predicted is timeline.predicted(t) and packed_frame(predicted, frame.shape)[0] == record


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(state=hand_built_worlds())
def test_the_frame_pass_equals_the_references(state):
    assert_frame_pass(state, steps=5)


@settings(max_examples=60, deadline=None)
@given(grid=st.tuples(st.integers(2, 12), st.integers(2, 12)), size=st.integers(1, 12), data=st.data())
def test_goals_on_and_off_the_grid_edges(grid, size, data):
    """The goal block at and past every edge, where the grid clips it or leaves no goal pixel; a frame
    without a goal pixel has no goal estimate and a NaN record."""
    grid_h, grid_w = grid
    size = min(size, grid_h, grid_w)
    config = WorldConfig(grid_h=grid_h, grid_w=grid_w, level=0.0, lane_rows=(0,), goal_size=size,
                         warmup_steps=0)
    edge = st.sampled_from([0.0, -0.5, 0.5, -1.0, -size - 0.5, -size - 1.0, -100.0, -1e300])
    x = data.draw(edge | st.sampled_from([grid_w - size, grid_w - size + 0.5, grid_w, 1e300])
                  | st.floats(-2.0 * grid_w, 2.0 * grid_w))
    y = data.draw(edge | st.sampled_from([grid_h - size, grid_h - size + 0.5, grid_h, 1e300])
                  | st.floats(-2.0 * grid_h, 2.0 * grid_h))
    state = build_state(config=config, lanes=[(0, 1, LEFT_TO_RIGHT)], obstacles=[(0, 1.0, 2, 0.0)],
                        goal=(x, y, 0.0, 0.0))
    assert_frame_pass(state, steps=0)


@pytest.mark.parametrize("axis", [0, 1])
def test_an_off_grid_goal_paints_exactly_its_on_grid_cells(axis):
    """On the default 48 x 48 grid, the goal block at every quarter cell from 56 cells before the grid to 56
    past it paints exactly those of its cells round_px(pos) + 0..goal_size - 1 that lie on the grid: none
    once the block has left, and never a block counted from the far edge."""
    config = WorldConfig(level=0.0, warmup_steps=0)
    size, n = config.goal_size, config.grid_w
    assert config.grid_h == n
    for quarter in range(-4 * (n + 8), 4 * (2 * n + 8) + 1):
        pos = quarter / 4.0
        goal = [20.0, 20.0, 0.0, 0.0]
        goal[axis] = pos
        frame = render_frame(build_state(config=config, goal=tuple(goal)))
        want = np.zeros_like(frame)
        want[20:20 + size, [c for c in range(round_px(pos), round_px(pos) + size) if 0 <= c < n]] = GOAL
        assert np.array_equal(frame, want.T if axis else want), pos


def test_a_frame_without_a_goal_pixel():
    config = WorldConfig(grid_h=8, grid_w=8, level=0.0, lane_rows=(2,), warmup_steps=0)
    state = build_state(config=config, lanes=[(2, 3, RIGHT_TO_LEFT)], obstacles=[(0, 5.0, 3, 0.0)],
                        goal=(8.0, 3.0, 0.0, 0.0))
    timeline = timeline_of(state)
    assert timeline.predicted(0).goal_estimate is None
    assert all(map(math.isnan, FRAME.struct.unpack(timeline.records[:FRAME.size].tobytes())[1:]))
    assert timeline.predicted(0).occupancy.sum() == 3


@pytest.mark.parametrize("position, error, message", [
    (math.nan, ValueError, "cannot convert float NaN to integer"),
    (math.inf, OverflowError, "cannot convert float infinity to integer"),
    (-math.inf, OverflowError, "cannot convert float infinity to integer"),
])
def test_a_goal_position_that_is_not_finite_raises_as_the_reference(position, error, message):
    state = build_state(goal=(5.0, position, 0.0, 0.0))
    with pytest.raises(error, match=message):
        reference_render_frame(state)
    with pytest.raises(error, match=message):
        render_frame(state)
    with pytest.raises(error, match=message):
        timeline_of(state)


def test_a_frame_made_again_after_a_raise_keeps_its_mask_with_it(monkeypatch):
    """Frame 16, the first of a new kernel buffer, raises once; made again, its mask and record are
    read from the palette frame the timeline gives for it."""
    timeline = Timeline(WorldConfig(level=30.0), 3)
    timeline.frame(15)
    advance = kernel.library.lanenav_advance
    monkeypatch.setattr(kernel.library, "lanenav_advance", lambda *args: -10)
    with pytest.raises(ValueError, match="lane row"):
        timeline.frame(16)
    assert len(timeline) == 16
    monkeypatch.setattr(kernel.library, "lanenav_advance", advance)
    frame, predicted = timeline.frame(16), timeline.predicted(16)
    read = predicted_frame(frame)
    assert read.occupancy.any() and np.array_equal(predicted.occupancy, read.occupancy)
    assert repr(predicted.goal_estimate) == repr(read.goal_estimate)
    record = timeline.records[16 * FRAME.size:17 * FRAME.size].tobytes()
    assert FRAME.struct.unpack(record)[0] == predicted.occupancy.ctypes.data
    assert timeline.palettes[16] == frame.ctypes.data