"""The timeline's frame loop in C against the Python world it replaced.

``lanenav_advance`` simulates a timeline's frames: per frame the world's
step (the table with its draws, then the goal's reflection), then the frame
pass. It runs inside ``lanenav_play``, for the frames an episode's steps
need, and under ``Timeline.frame``, for the frames a reader asks for. Both
must give, frame by frame, what ``conftest.reference_world_step`` and
``reference_render_frame`` give on ``new_episode`` of the same seed: the palette
frame, its ``Frame`` record (the mask's address and the goal centre), and
after each frame both generators' states, the raw Poisson total and the
goal. With buffers of 1 or 2 frames (``_CHUNK`` patched) the kernel returns
for a new buffer in the middle of an episode, and the states are compared
at every such return; a goal as fast as ``MAX_GOAL_SPEED`` on a small grid
bounces several times in one step.
"""
from __future__ import annotations

import ctypes
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from conftest import reference_predicted_frame, reference_render_frame, reference_world_step
from lanenav import world
from lanenav.harness import _play
from lanenav.kernel import FRAME
from lanenav.mcts import MCTSConfig
from lanenav.models import ForwardModel
from lanenav.world import MAX_GOAL_SPEED, PlacementError, Timeline, WorldConfig, WorldState, new_episode

pytestmark = pytest.mark.bitpin

CHUNKS = st.sampled_from([1, 2, 16])


@st.composite
def configs(draw) -> WorldConfig:
    """Small worlds at several levels: grids from 2 columns, goals up to the grid, goals as fast as the
    bound, and warm-ups from none."""
    grid_h, grid_w = draw(st.integers(2, 14)), draw(st.integers(2, 14))
    return WorldConfig(grid_h=grid_h, grid_w=grid_w,
                       level=draw(st.sampled_from([0.0, 1.0, 6.0, 30.0, 60.0])),
                       lane_rows=tuple(draw(st.lists(st.integers(0, grid_h - 1), unique=True, max_size=grid_h))),
                       goal_size=draw(st.integers(1, min(grid_h, grid_w))),
                       goal_speed=draw(st.sampled_from([0.0, 0.5, MAX_GOAL_SPEED]) | st.floats(0.0, MAX_GOAL_SPEED)),
                       max_steps=draw(st.integers(1, 60)),
                       warmup_steps=draw(st.sampled_from([0, 1, 5])))


def start(cfg: WorldConfig, seed: int, chunk: int, patch: pytest.MonkeyPatch) -> tuple[Timeline, WorldState, dict]:
    """A timeline of buffers of ``chunk`` frames, ``new_episode`` of its seed for the reference, and what the
    timeline held at each return of the kernel for a new buffer, by the steps it had simulated."""
    patch.setattr(world, "_CHUNK", chunk)
    returns = {}
    grow = Timeline._grow

    def recording_grow(self):
        if len(self):
            returns[len(self) - 1] = timeline_bits(self)
        grow(self)

    patch.setattr(Timeline, "_grow", recording_grow)
    try:
        timeline = Timeline(cfg, seed)
    except PlacementError:
        assume(False)
    return timeline, new_episode(cfg, seed), returns


def timeline_bits(timeline: Timeline) -> tuple:
    kernel, (spawn_rng, class_rng) = timeline._timeline.world, timeline._rngs
    return (spawn_rng.bit_generator.state, class_rng.bit_generator.state, timeline.spawn_draws,
            repr((kernel.goal_x, kernel.goal_y, kernel.goal_vx, kernel.goal_vy)))


def reference_bits(state: WorldState) -> tuple:
    goal = state.goal
    return (state.spawn_rng.bit_generator.state, state.class_rng.bit_generator.state, state.spawn_draws,
            repr((goal.x, goal.y, goal.vx, goal.vy)))


def assert_frames(timeline: Timeline, reference: WorldState, returns: dict) -> None:
    """Every frame the timeline simulated against the reference stepped as far, and the states at each
    return for a buffer and at the end."""
    for t in range(len(timeline)):
        if t:
            reference_world_step(reference)
        if t in returns:
            assert returns.pop(t) == reference_bits(reference), t
        want = reference_render_frame(reference)
        frame = timeline.frame(t)
        assert np.array_equal(frame, want), t
        read = reference_predicted_frame(want)
        record = FRAME.from_buffer_copy(timeline.records, t * ctypes.sizeof(FRAME))
        x, y = record.goal_x, record.goal_y
        predicted = timeline.predicted(t)
        assert record.occ == predicted.occupancy.ctypes.data and np.array_equal(predicted.occupancy, read.occupancy)
        goal = read.goal_estimate
        assert repr((x, y)) == repr(goal) if goal is not None else math.isnan(x) and math.isnan(y)
    assert not returns
    assert timeline_bits(timeline) == reference_bits(reference)


def windowed(first: int, stride: int) -> ForwardModel:
    """A model whose prediction is the timeline's frames t + first + stride * i, so the kernel reads them."""
    return ForwardModel("window", window=(first, stride))


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(cfg=configs(), seed=st.integers(0, 2**31 - 1), chunk=CHUNKS, ahead=st.integers(0, 20),
       window=st.tuples(st.integers(0, 3), st.integers(0, 3)), k=st.integers(1, 10))
def test_frames_the_episode_loop_simulates(cfg, seed, chunk, ahead, window, k):
    """An episode whose window reads up to 3 + 3 * 9 frames ahead, on a timeline ``Timeline.frame`` took
    ``ahead`` frames first; the random agent plays on after it."""
    with pytest.MonkeyPatch.context() as patch:
        timeline, reference, returns = start(cfg, seed, chunk, patch)
        timeline.frame(ahead)
        record = _play(timeline, cfg, MCTSConfig(n_rollouts=4, rollout_length=k), windowed(*window))
        assert record.error is None
        _play(timeline, cfg, MCTSConfig(), "none")
        assert len(timeline) >= max(ahead, record.steps) + 1
        assert_frames(timeline, reference, returns)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(cfg=configs(), seed=st.integers(0, 2**31 - 1), chunk=CHUNKS,
       times=st.lists(st.integers(0, 80), min_size=1, max_size=6))
def test_frames_timeline_frame_simulates(cfg, seed, chunk, times):
    with pytest.MonkeyPatch.context() as patch:
        timeline, reference, returns = start(cfg, seed, chunk, patch)
        for i, t in enumerate(times, 1):
            timeline.frame(t)
            assert len(timeline) == max(times[:i]) + 1
        assert_frames(timeline, reference, returns)
