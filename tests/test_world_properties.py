"""Properties of the simulator on random worlds, checked step by step.

Each example builds a random world (grid, lanes, classes, level) and steps it
with ``world_step``. After every step the obstacle table and the frame are
compared with a per-cell Python reference of the rules in ``lanenav.world``:

* the bodies that stay are exactly those that still have a visible cell after
  moving, in their old order, and every other row is a spawn of this step;
* a spawn enters at its lane's edge and overlaps no body of its lane;
* the frame holds exactly the reference cells of every body, on its lane row,
  as one contiguous run per body, with the goal painted on top;
* the goal stays in bounds and keeps its speed;
* obstacle occupancy never includes goal pixels.

Same-lane bodies may overlap: a faster body overtakes a slower one.
"""
import numpy as np
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from conftest import goal_pixels
from lanenav.world import (
    GOAL,
    LEFT_TO_RIGHT,
    ObstacleClass,
    PlacementError,
    WorldConfig,
    new_episode,
    obstacle_occupancy,
    render_frame,
    round_px,
    world_step,
)

STEPS = 30


@st.composite
def worlds(draw) -> WorldConfig:
    # grid_w >= 2, as WorldConfig.validate requires: on a one-column grid a
    # body straddling x = 0 on a half-pixel tie would keep its rounded head at
    # 1 and tail at -1 with no visible cell.
    grid_w = draw(st.integers(2, 64))
    grid_h = draw(st.integers(3, 48))
    lane_rows = draw(st.lists(st.integers(0, grid_h - 1), min_size=1, max_size=12, unique=True))
    classes = tuple(
        ObstacleClass(
            class_id,
            mean_speed=(speed := draw(st.sampled_from([0.25, 0.5, 1.0, 1.5]) | st.floats(0.05, 2.5))),
            # 0: heads on exact half-pixels (rounding ties); >= 1: bodies that stall or back out.
            speed_jitter=speed * draw(st.sampled_from([0.0, 0.2, 1.0, 2.0])),
            mean_length=draw(st.floats(1.0, 6.0)),
            length_jitter=draw(st.sampled_from([0.0, 1.0, 8.0]) | st.floats(0.0, 4.0)),
        )
        for class_id in draw(st.lists(st.integers(1, 5), min_size=1, max_size=5, unique=True))
    )
    return WorldConfig(
        grid_h=grid_h,
        grid_w=grid_w,
        level=draw(st.floats(0.0, 80.0)),
        lane_rows=tuple(lane_rows),
        obstacle_classes=classes,
        goal_size=draw(st.integers(1, min(3, grid_h, grid_w))),
        goal_speed=draw(st.floats(0.0, 2.0)),
        warmup_steps=draw(st.integers(0, 48)),
    )


def visible_cells(head: float, len1: float, grid_w: int) -> list[int]:
    """Reference rasterization of one body, cell by cell."""
    cols = (round_px(head - i) for i in range(int(len1) + 1))
    return [c for c in cols if 0 <= c < grid_w]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=worlds(), seed=st.integers(0, 2**31 - 1))
def test_world_step_matches_cell_reference(cfg, seed):
    try:
        state = new_episode(cfg, seed)
    except PlacementError:
        assume(False)
    w, h = cfg.grid_w, cfg.grid_h
    goal_speed = (abs(state.goal.vx), abs(state.goal.vy))
    for _ in range(STEPS):
        before = state.obstacles.tolist()
        world_step(state)
        table = state.obstacles.tolist()

        moved = [[head + speed, speed, len1, lane] for head, speed, len1, lane in before]
        kept = [row for row in moved if visible_cells(row[0], row[2], w)]
        assert table[:len(kept)] == kept

        spans = [(int(lane), round_px(head) - int(len1), round_px(head)) for head, _, len1, lane in kept]
        for head, speed, len1, lane in table[len(kept):]:
            direction = state.lanes[int(lane)].direction
            assert len1 == int(len1) >= 0
            assert head == (0.0 if direction == LEFT_TO_RIGHT else w - 1 + len1)
            lo, hi = int(head - len1), int(head)
            assert all(hi < other_lo or other_hi < lo
                       for other_lane, other_lo, other_hi in spans if other_lane == lane)
            spans.append((int(lane), lo, hi))

        frame = render_frame(state)
        want = np.zeros((h, w), dtype=np.uint8)
        for head, _, len1, lane in table:
            cells = visible_cells(head, len1, w)
            assert cells
            assert sorted(cells) == list(range(min(cells), max(cells) + 1))
            want[state.lanes[int(lane)].row, cells] = state.lanes[int(lane)].class_id
        x0, x1, y0, y1 = goal_pixels(state)
        want[y0:y1 + 1, x0:x1 + 1] = GOAL
        assert np.array_equal(frame, want)

        assert 0.0 <= state.goal.x <= w - cfg.goal_size and 0.0 <= state.goal.y <= h - cfg.goal_size
        assert (abs(state.goal.vx), abs(state.goal.vy)) == goal_speed
        assert not obstacle_occupancy(frame)[y0:y1 + 1, x0:x1 + 1].any()
