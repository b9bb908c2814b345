import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import agent_turn, build_state, frames_equal, reference_lanes, state_fingerprint
from lanenav import checks, kernel
from lanenav.seeding import STREAM_CLASS, clone_rng, substream
from lanenav.world import (
    DEFAULT_CLASSES,
    FREE,
    GOAL,
    HEAD,
    LEFT_TO_RIGHT,
    MAX_ARRIVALS,
    MAX_BODY,
    MAX_FRAME_CELLS,
    MAX_GOAL_SPEED,
    MAX_GRID,
    MAX_STEPS,
    MAX_WARMUP_STEPS,
    SPEED,
    ConfigError,
    ObstacleClass,
    WorldConfig,
    action_to_velocity,
    clone_state,
    new_episode,
    reflect_axis,
    render_frame,
    round_px,
    world_step,
)


class TestActionToVelocity:
    def test_east(self):
        assert action_to_velocity(0, 1.0) == (1.0, 0.0)

    def test_south_half_speed(self):
        dx, dy = action_to_velocity(2, 0.5)
        assert dx == 0.0 and dy == 0.5

    def test_diagonal(self):
        dx, dy = action_to_velocity(1, 1.0)
        assert dx == pytest.approx(0.70710678, abs=1e-8)
        assert dy == pytest.approx(0.70710678, abs=1e-8)

    @pytest.mark.parametrize("action", [-1, 8, 100])
    def test_out_of_range(self, action):
        with pytest.raises(ValueError):
            action_to_velocity(action, 1.0)

    def test_unit_speed_magnitude(self):
        for a in range(8):
            dx, dy = action_to_velocity(a, 0.5)
            assert math.hypot(dx, dy) == pytest.approx(0.5, abs=1e-12)


class TestRounding:
    @pytest.mark.parametrize("x,expected", [
        (0.5, 1), (1.5, 2), (2.4, 2), (2.6, 3),
        (-0.5, -1), (-1.5, -2), (-2.4, -2), (0.0, 0), (3.0, 3),
    ])
    def test_round_half_away(self, x, expected):
        assert round_px(x) == expected


class TestNewEpisode:
    def test_deterministic(self):
        a = new_episode(WorldConfig(), 7)
        b = new_episode(WorldConfig(), 7)
        assert state_fingerprint(a) == state_fingerprint(b)
        assert frames_equal(render_frame(a), render_frame(b))

    def test_level_zero_no_warmup_spawns_nothing(self):
        cfg = WorldConfig(level=0.0, warmup_steps=0)
        state = new_episode(cfg, 3)
        assert len(state.obstacles) == 0

    def test_level_zero_with_warmup_still_empty(self):
        cfg = WorldConfig(level=0.0, warmup_steps=48)
        assert len(new_episode(cfg, 3).obstacles) == 0

    def test_goal_angle_uniform(self):
        # chi-square over 8 angle bins; critical value for 7 dof at alpha=0.01.
        cfg = WorldConfig(level=0.0, warmup_steps=0)
        bins = [0] * 8
        n = 1000
        for seed in range(n):
            state = new_episode(cfg, seed)
            angle = math.atan2(state.goal.vy, state.goal.vx) % (2 * math.pi)
            bins[int(angle / (math.pi / 4))] += 1
        expected = n / 8
        chi2 = sum((b - expected) ** 2 / expected for b in bins)
        assert chi2 < 18.475, f"chi2={chi2:.2f}, bins={bins}"

    def test_agent_starts_on_free_pixel(self):
        for seed in range(40):
            state = new_episode(WorldConfig(), seed)
            frame = render_frame(state)
            px, py = map(round_px, state.start)
            assert frame[py, px] == FREE
            assert not _on_obstacle(state, px, py)

    def test_goal_in_bounds_and_off_agent(self):
        for seed in range(40):
            state = new_episode(WorldConfig(), seed)
            cfg = state.config
            assert 0 <= state.goal.x <= cfg.grid_w - cfg.goal_size
            assert 0 <= state.goal.y <= cfg.grid_h - cfg.goal_size
            px, py = map(round_px, state.start)
            gx, gy = round_px(state.goal.x), round_px(state.goal.y)
            inside = gx <= px <= gx + 1 and gy <= py <= gy + 1
            assert not inside

    def test_starts_at_t0_with_populated_field(self):
        state = new_episode(WorldConfig(), 11)
        assert state.t == 0
        assert len(state.obstacles) > 0

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            new_episode(WorldConfig(grid_h=0), 0)

    @given(st.integers(1, len(DEFAULT_CLASSES)), st.lists(st.integers(0, 47), unique=True, max_size=48),
           st.integers(0, 2 ** 63))
    @example(n_classes=1, rows=[], seed=0)
    @example(n_classes=3, rows=[], seed=5)
    def test_lanes_drawn_as_by_the_scalar_loop(self, n_classes, rows, seed):
        """The lanes' classes and directions, and the class stream after them, without a warm-up to draw
        more; no lanes, no draw."""
        cfg = WorldConfig(lane_rows=tuple(rows), obstacle_classes=DEFAULT_CLASSES[:n_classes], warmup_steps=0)
        state = new_episode(cfg, seed)
        lanes, class_rng = reference_lanes(cfg, seed)
        assert state.lanes == lanes
        assert state.class_rng.bit_generator.state == class_rng.bit_generator.state
        if not rows:
            assert class_rng.bit_generator.state == substream(seed, STREAM_CLASS).bit_generator.state


def _on_obstacle(state, px, py):
    for head, _, len1, lane in state.obstacles.tolist():
        if state.lanes[int(lane)].row != py:
            continue
        for i in range(int(len1) + 1):
            if round_px(head - i) == px:
                return True
    return False


class TestConfigValidation:
    def test_duplicate_lane_rows(self):
        with pytest.raises(ConfigError):
            WorldConfig(lane_rows=(2, 2, 4)).validate()

    def test_lane_row_outside_grid(self):
        with pytest.raises(ConfigError):
            WorldConfig(lane_rows=(2, 99)).validate()

    def test_negative_agent_speed(self):
        with pytest.raises(ConfigError):
            WorldConfig(agent_speed=0.0).validate()

    def test_bad_class_speed(self):
        bad = (ObstacleClass(1, mean_speed=0.0, speed_jitter=0.0, mean_length=1, length_jitter=0),)
        with pytest.raises(ConfigError):
            WorldConfig(obstacle_classes=bad).validate()

    @pytest.mark.parametrize("field", ["level", "spawn_base_rate", "goal_speed", "agent_speed"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            WorldConfig(**{field: value}).validate()

    @pytest.mark.parametrize("field", ["mean_speed", "speed_jitter", "mean_length", "length_jitter"])
    def test_non_finite_class_rejected(self, field):
        values = dict(mean_speed=1.0, speed_jitter=0.1, mean_length=2.0, length_jitter=0.5)
        values[field] = float("nan")
        with pytest.raises(ConfigError, match=field):
            WorldConfig(obstacle_classes=(ObstacleClass(1, **values),)).validate()

    @pytest.mark.parametrize("field", ["speed_jitter", "length_jitter"])
    def test_negative_jitter_rejected(self, field):
        values = dict(mean_speed=0.5, speed_jitter=0.1, mean_length=2.0, length_jitter=0.5)
        values[field] = -0.1
        # Rejected when the config is built, so before any spawn is drawn by the random generator.
        with pytest.raises(ConfigError, match=f"class 1: {field} must be non-negative"):
            WorldConfig(obstacle_classes=(ObstacleClass(1, **values),))

    @pytest.mark.parametrize("mean, jitter", [("mean_speed", "speed_jitter"), ("mean_length", "length_jitter")])
    @pytest.mark.parametrize("mean_value, jitter_value", [(1.0, 1e308), (1e308, 1e308)])
    def test_non_finite_jitter_range_rejected(self, mean, jitter, mean_value, jitter_value):
        values = dict(mean_speed=1.0, speed_jitter=0.1, mean_length=2.0, length_jitter=0.5)
        values[mean], values[jitter] = mean_value, jitter_value
        with pytest.raises(ConfigError, match=re.escape(f"class 2: {mean} +- {jitter} must be finite")):
            WorldConfig(obstacle_classes=(ObstacleClass(2, **values),)).validate()

    def test_one_column_grid_rejected(self):
        with pytest.raises(ConfigError, match="grid_w must be >= 2"):
            WorldConfig(grid_w=1, goal_size=1).validate()
        WorldConfig(grid_w=2, goal_size=1).validate()

    def test_speed_presets(self):
        one = WorldConfig().for_speed("1x")
        two = WorldConfig().for_speed("2x")
        assert (one.agent_speed, one.max_steps) == (0.5, 407)
        assert (two.agent_speed, two.max_steps) == (1.0, 203)
        with pytest.raises(ConfigError):
            WorldConfig().for_speed("3x")


def _past(bound):
    """The least value above ``bound``: the next integer, or the next float."""
    return bound + 1 if type(bound) is int else math.nextafter(bound, math.inf)


def _class_with_longest_body(longest: float) -> ObstacleClass:
    return ObstacleClass(1, mean_speed=0.5, speed_jitter=0.1, mean_length=longest - 4.0, length_jitter=4.0)


class TestConfigBounds:
    """Each size that drives work is accepted at its bound and rejected just past it, naming its field."""

    @pytest.mark.parametrize("name, make, bound", [
        ("grid_h", lambda v: WorldConfig(grid_h=v), MAX_GRID),
        ("grid_w", lambda v: WorldConfig(grid_w=v), MAX_GRID),
        ("max_steps", lambda v: WorldConfig(max_steps=v), MAX_STEPS),
        ("warmup_steps", lambda v: WorldConfig(warmup_steps=v), MAX_WARMUP_STEPS),
        ("goal_speed", lambda v: WorldConfig(goal_speed=v), MAX_GOAL_SPEED),
        ("level", lambda v: WorldConfig(lane_rows=(2,), level=v, spawn_base_rate=1.0), MAX_ARRIVALS),
        ("spawn_base_rate", lambda v: WorldConfig(lane_rows=(2, 4), level=0.5, spawn_base_rate=v), MAX_ARRIVALS),
        ("mean_length + length_jitter", lambda v: WorldConfig(obstacle_classes=(_class_with_longest_body(v),)),
         MAX_BODY),
    ])
    def test_bound_at_limit_and_one_past(self, name, make, bound):
        make(bound)
        with pytest.raises(ConfigError, match=re.escape(name)):
            make(_past(bound))

    def test_frame_cells_at_limit_and_one_past(self):
        """A timeline keeps a frame per step, so max_steps * grid_h * grid_w is bounded too; the default grid
        keeps the whole of max_steps' own range."""
        assert WorldConfig(max_steps=MAX_STEPS).max_steps == MAX_STEPS
        steps = MAX_FRAME_CELLS // MAX_GRID**2  # 2**14 steps on the largest grid are the bound exactly
        assert steps * MAX_GRID**2 == MAX_FRAME_CELLS
        WorldConfig(grid_h=MAX_GRID, grid_w=MAX_GRID, max_steps=steps)
        with pytest.raises(ConfigError, match=re.escape(f"max_steps * grid_h * grid_w must be <= 2**28 = "
                                                        f"{MAX_FRAME_CELLS}, got {MAX_FRAME_CELLS + MAX_GRID**2}")):
            WorldConfig(grid_h=MAX_GRID, grid_w=MAX_GRID, max_steps=steps + 1)

    @pytest.mark.parametrize("value", [10 ** 400, -10 ** 400])
    def test_integer_too_large_for_a_float_is_not_finite(self, value):
        with pytest.raises(ConfigError, match="level must be finite"):
            WorldConfig(level=value)
        with pytest.raises(ConfigError, match="class 1: mean_length must be finite"):
            WorldConfig(obstacle_classes=(ObstacleClass(1, 0.5, 0.1, value, 1.0),))


class TestWorldStep:
    def test_constant_velocity_advance(self):
        state = build_state(lanes=[(10, 1, LEFT_TO_RIGHT)], obstacles=[(0, 5.0, 2, 1.0)])
        world_step(state)
        assert state.obstacles[0, HEAD] == 6.0

    def test_constant_speed_over_time(self):
        state = build_state(lanes=[(10, 1, LEFT_TO_RIGHT)], obstacles=[(0, 0.0, 2, 0.5)])
        for steps in range(1, 60):
            world_step(state)
            assert state.obstacles[0, HEAD] == 0.5 * steps  # binary-exact speed

    def test_goal_reflects_at_right_wall(self):
        state = build_state(goal=(46.2, 10.0, 0.5, 0.0))
        world_step(state)
        assert state.goal.x == pytest.approx(45.3)
        assert state.goal.vx == -0.5
        assert state.goal.x <= 46.0

    def test_goal_speed_conserved_through_reflections(self):
        state = build_state(goal=(1.0, 1.0, 0.3, 0.4))
        for _ in range(2000):
            world_step(state)
            assert math.hypot(state.goal.vx, state.goal.vy) == pytest.approx(0.5, abs=1e-9)
            assert 0.0 <= state.goal.x <= 46.0
            assert 0.0 <= state.goal.y <= 46.0

    def test_obstacle_removed_only_after_fully_out(self):
        # head at 46, length 3, moving right: pixels 44..46.
        state = build_state(lanes=[(10, 1, LEFT_TO_RIGHT)], obstacles=[(0, 46.0, 3, 1.0)])
        present_lengths = []
        for _ in range(6):
            world_step(state)
            present_lengths.append(len(state.obstacles))
        # tail pixel leaves the grid when head reaches 50 (tail 48): 4 steps alive
        assert present_lengths == [1, 1, 1, 0, 0, 0]

    def test_faster_body_overtakes_slower(self):
        # Spawns are only checked at their spawn step; afterwards same-lane
        # bodies keep their own speeds and may overlap.
        state = build_state(lanes=[(10, 1, LEFT_TO_RIGHT)], obstacles=[(0, 10.0, 2, 0.5), (0, 7.0, 2, 1.5)])
        for _ in range(3):
            world_step(state)
        assert state.obstacles[:, HEAD].tolist() == [11.5, 11.5]
        for _ in range(3):
            world_step(state)
        assert state.obstacles[:, HEAD].tolist() == [13.0, 16.0]

    def test_spawned_obstacle_slides_in(self):
        cfg = WorldConfig(level=100.0, spawn_base_rate=0.01, lane_rows=(10,), warmup_steps=0)
        state = new_episode(cfg, 5)
        for _ in range(40):
            world_step(state)
        lane = state.lanes[0]
        for speed in state.obstacles[:, SPEED]:
            if lane.direction == LEFT_TO_RIGHT:
                assert speed > 0
            else:
                assert speed < 0

    def test_no_overlapping_spawns_with_uniform_speed(self):
        classes = (ObstacleClass(3, mean_speed=1.0, speed_jitter=0.0, mean_length=4.0, length_jitter=2.0),)
        cfg = WorldConfig(level=60.0, spawn_base_rate=0.01, lane_rows=(8,),
                          obstacle_classes=classes, warmup_steps=0)
        state = new_episode(cfg, 1)
        for _ in range(300):
            world_step(state)
            spans = sorted(
                (round_px(head) - int(len1), round_px(head)) for head, _, len1, _ in state.obstacles.tolist()
            )
            for (lo1, hi1), (lo2, hi2) in zip(spans, spans[1:]):
                assert hi1 < lo2, f"overlap: {spans}"

    def test_spawn_rate_matches_poisson_mean(self):
        # 20 lanes at level 6 and base rate 0.01: 1.2 expected raw spawns/step.
        cfg = WorldConfig(level=6.0, spawn_base_rate=0.01, lane_rows=tuple(range(2, 42, 2)),
                          warmup_steps=0)
        ok, detail = checks.spawn_rate(cfg, 9, 100_000, 0.02)
        assert ok and " vs 1.2000 " in detail, detail


class TestRenderFrame:
    def test_goal_only(self):
        state = build_state(goal=(3.0, 5.0, 0.0, 0.0))
        frame = render_frame(state)
        assert (frame == GOAL).sum() == 4
        assert frame[5, 3] == GOAL and frame[6, 4] == GOAL
        frame[5:7, 3:5] = FREE
        assert (frame == FREE).all()

    def test_obstacle_rasterization_rounding(self):
        state = build_state(lanes=[(7, 2, LEFT_TO_RIGHT)], obstacles=[(0, 5.4, 3, 1.0)],
                            goal=(40.0, 40.0, 0.0, 0.0))
        frame = render_frame(state)
        assert frame[7, 3] == 2 and frame[7, 4] == 2 and frame[7, 5] == 2
        assert (frame[7] == 2).sum() == 3

    def test_half_off_grid_clipped(self):
        state = build_state(lanes=[(7, 1, LEFT_TO_RIGHT)], obstacles=[(0, 1.0, 4, 1.0)],
                            goal=(40.0, 40.0, 0.0, 0.0))
        frame = render_frame(state)
        assert frame[7, 0] == 1 and frame[7, 1] == 1
        assert (frame[7] == 1).sum() == 2

    def test_half_pixel_tie_leaves_column_zero_free(self):
        # Cells at x = 0.5 and -0.5 round away from zero to columns 1 and -1.
        state = build_state(lanes=[(7, 1, LEFT_TO_RIGHT)], obstacles=[(0, 1.0, 3, 0.5)],
                            agent=(0.0, 7.0), goal=(40.0, 40.0, 0.0, 0.0),
                            config=WorldConfig(level=0.0, warmup_steps=0, agent_speed=1.0))
        x, y, outcome = agent_turn(state, *state.start, 4)  # west, clamped at column 0
        frame = render_frame(state)  # the body moved to 1.5
        assert frame[7, :4].tolist() == [FREE, 1, 1, FREE]
        assert (x, y) == (0.0, 7.0)
        assert outcome.kind == "running"

    def test_goal_overwrites_obstacle(self):
        state = build_state(lanes=[(20, 3, LEFT_TO_RIGHT)], obstacles=[(0, 25.0, 6, 1.0)],
                            goal=(21.0, 20.0, 0.0, 0.0))
        frame = render_frame(state)
        assert frame[20, 21] == GOAL and frame[20, 22] == GOAL
        assert frame[20, 23] == 3

    def test_agent_never_rendered(self):
        state = build_state(agent=(12.0, 12.0), goal=(40.0, 40.0, 0.0, 0.0))
        assert render_frame(state)[12, 12] == FREE


class TestAgentStep:
    def test_reach_goal(self):
        state = build_state(goal=(10.0, 10.0, 0.0, 0.0), agent=(10.0, 10.0),
                            config=WorldConfig(level=0.0, warmup_steps=0, agent_speed=1.0))
        _, _, outcome = agent_turn(state, *state.start, 0)
        assert outcome.kind == "goal"
        assert outcome.reward == 20.0

    def test_die_on_obstacle(self):
        state = build_state(
            lanes=[(10, 1, LEFT_TO_RIGHT)],
            obstacles=[(0, 5.0, 1, 1.0)],  # advances to pixel 6 during the step
            agent=(5.0, 10.0),
            goal=(40.0, 40.0, 0.0, 0.0),
            config=WorldConfig(level=0.0, warmup_steps=0, agent_speed=1.0),
        )
        x, y, outcome = agent_turn(state, *state.start, 0)  # move east onto pixel (6, 10)
        assert (x, y) == (6.0, 10.0)
        assert outcome.kind == "died"
        assert outcome.reward == -20.0

    def test_timeout_at_step_limit(self):
        cfg = WorldConfig(level=0.0, warmup_steps=0, agent_speed=1.0, max_steps=203)
        state = build_state(config=cfg, goal=(40.0, 40.0, 0.0, 0.0), agent=(5.0, 5.0))
        state.t = 202
        _, _, outcome = agent_turn(state, *state.start, 6)
        assert outcome.kind == "timeout"
        assert outcome.reward == 0.0
        assert outcome.steps_taken == 203

    def test_goal_beats_obstacle(self):
        # goal and obstacle share pixel space; goal wins.
        state = build_state(
            lanes=[(10, 1, LEFT_TO_RIGHT)],
            obstacles=[(0, 5.0, 1, 1.0)],
            agent=(5.0, 10.0),
            goal=(6.0, 10.0, 0.0, 0.0),
            config=WorldConfig(level=0.0, warmup_steps=0, agent_speed=1.0),
        )
        _, _, outcome = agent_turn(state, *state.start, 0)
        assert outcome.kind == "goal"

    def test_agent_clamped_at_walls(self):
        cfg = WorldConfig(level=0.0, warmup_steps=0, agent_speed=1.0)
        state = build_state(config=cfg, agent=(47.0, 47.0), goal=(5.0, 5.0, 0.0, 0.0))
        x, y, outcome = agent_turn(state, *state.start, 1)  # southeast, into the corner
        assert outcome.kind == "running"
        assert x == 47.0 and y == 47.0


class TestClone:
    def test_lockstep_frames_identical(self):
        state = new_episode(WorldConfig(), 21)
        copy = clone_state(state)
        for _ in range(100):
            world_step(state)
            world_step(copy)
            assert frames_equal(render_frame(state), render_frame(copy))

    def test_stepping_copy_leaves_original(self):
        state = new_episode(WorldConfig(), 22)
        before = state_fingerprint(state)
        copy = clone_state(state)
        for _ in range(10):
            world_step(copy)
        assert state_fingerprint(state) == before

    def test_clone_mid_episode_equal_frame(self):
        state = new_episode(WorldConfig(), 23)
        for _ in range(17):
            world_step(state)
        copy = clone_state(state)
        assert frames_equal(render_frame(state), render_frame(copy))
        assert state_fingerprint(copy) == state_fingerprint(state)

    @pytest.mark.parametrize("kind", [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64])
    def test_a_clone_keeps_its_bit_generator(self, kind):
        """On any numpy bit generator, a clone of a generator continues its stream, and a clone of a state
        that draws through such generators steps as the original does."""
        rng = np.random.Generator(kind(9))
        rng.random(3)
        clone = clone_rng(rng)
        assert type(clone.bit_generator) is kind and clone is not rng
        assert clone.random(5).tolist() == rng.random(5).tolist()
        state = new_episode(WorldConfig(level=20.0), 24)
        state.spawn_rng, state.class_rng = np.random.Generator(kind(1)), np.random.Generator(kind(2))
        copy = clone_state(state)
        for _ in range(20):
            world_step(state)
            world_step(copy)
        assert state.spawn_draws and state_fingerprint(copy) == state_fingerprint(state)
        assert frames_equal(render_frame(state), render_frame(copy))


class TestActionIndependence:
    def test_frames_do_not_depend_on_actions(self):
        cfg = WorldConfig()
        a = new_episode(cfg, 31)
        b = new_episode(cfg, 31)
        rng = np.random.default_rng(0)
        x, y = b.start
        for _ in range(60):
            world_step(a)
            x, y, _ = agent_turn(b, x, y, int(rng.integers(8)))  # on through terminal outcomes
            assert frames_equal(render_frame(a), render_frame(b))


class TestDeterminism:
    def test_same_actions_same_outcome(self):
        cfg = WorldConfig()
        actions = list(np.random.default_rng(5).integers(0, 8, size=50))
        results = []
        for _ in range(2):
            state = new_episode(cfg, 77)
            x, y = state.start
            rewards = []
            for a in actions:
                x, y, outcome = agent_turn(state, x, y, int(a))
                rewards.append((outcome.reward, x, y))
                if outcome.is_terminal:
                    break
            results.append((rewards, state_fingerprint(state)))
        assert results[0] == results[1]


@given(
    pos=st.floats(-30, 80, allow_nan=False),
    vel=st.floats(-3, 3, allow_nan=False),
)
def test_reflect_axis_properties(pos, vel):
    new_pos, new_vel = reflect_axis(pos, vel, 0.0, 46.0)
    assert 0.0 <= new_pos <= 46.0
    assert abs(new_vel) == abs(vel)


# Goals far past a wall, reflected in C by world_step and in Python by reflect_axis: each call prints its
# ValueError. They run in another interpreter under a timeout, so that a reflection that never ends fails the
# test instead of hanging the suite (a ctypes call cannot be interrupted).
FAR_GOALS = (1e300, -1e300, math.inf, -math.inf, 46.0 + 256.5, -256.5)
FAR_GOAL_CALLS = """
import sys
from conftest import build_state
from lanenav.world import reflect_axis, world_step
for position in map(float, sys.argv[2:]):
    try:
        if sys.argv[1] == "world_step":
            world_step(build_state(goal=(position, 5.0, 0.0, 0.0)))
        else:
            reflect_axis(position, 0.0, 0.0, 46.0)
    except ValueError as exc:
        print(exc)
"""


@pytest.mark.parametrize("call", ["world_step", "reflect_axis"])
def test_goal_far_past_a_wall_raises_instead_of_bouncing_forever(call):
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": f"{tests.parent / 'src'}:{tests}"}
    done = subprocess.run([sys.executable, "-c", FAR_GOAL_CALLS, call, *map(repr, FAR_GOALS)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == len(FAR_GOALS) and all(re.match(r"goal position .*more than 256 cells outside", line)
                                                for line in lines), done.stdout


def test_goal_reach_covers_every_valid_goal():
    assert kernel.GOAL_REACH == MAX_GRID + MAX_GOAL_SPEED
    # The farthest a goal may step: on the far wall of the widest grid at the fastest speed, here a 1-cell goal
    # on a MAX_GRID-wide axis, whose walls are 0 and MAX_GRID - 1.
    hi = MAX_GRID - 1.0
    for start, vel in ((0.0, -MAX_GOAL_SPEED), (hi, MAX_GOAL_SPEED)):
        state = build_state(WorldConfig(grid_w=MAX_GRID, goal_size=1, level=0.0, warmup_steps=0),
                            goal=(start, 5.0, vel, 0.0))
        world_step(state)
        assert (state.goal.x, state.goal.vx) == reflect_axis(start + vel, vel, 0.0, hi)
    # Exactly GOAL_REACH past a wall still reflects; a NaN passes through, for the rasterizer to raise on.
    for position in (-kernel.GOAL_REACH, 46.0 + kernel.GOAL_REACH):
        new_pos, new_vel = reflect_axis(position, 1.0, 0.0, 46.0)
        assert 0.0 <= new_pos <= 46.0 and abs(new_vel) == 1.0
    assert math.isnan(reflect_axis(math.nan, 1.0, 0.0, 46.0)[0])
