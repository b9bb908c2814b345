import numpy as np

from conftest import build_state
from lanenav.models import PredictedFrame, prediction_error
from lanenav.ppm import (
    AGENT_COLOR,
    FN_COLOR,
    FP_COLOR,
    FRAME_PALETTE,
    PRED_GOAL_COLOR,
    TRUE_GOAL_COLOR,
    error_map_to_rgb,
    prediction_to_rgb,
    render_error_map,
    render_ppm,
)
from lanenav.world import FREE, GOAL, WorldConfig, goal_block, new_episode, render_frame


def read_ppm(path):
    data = path.read_bytes()
    assert data.startswith(b"P6\n")
    header, rest = data.split(b"\n255\n", 1)
    dims = header.split(b"\n")[1].split()
    w, h = int(dims[0]), int(dims[1])
    return w, h, rest


class TestRenderPpm:
    def test_header_and_size(self, tmp_path):
        frame = np.zeros((48, 48), dtype=np.uint8)
        path = tmp_path / "f.ppm"
        render_ppm(frame, None, path)
        data = path.read_bytes()
        assert data.startswith(b"P6\n48 48\n255\n")
        assert len(data) == len(b"P6\n48 48\n255\n") + 6912

    def test_all_free_is_violet(self, tmp_path):
        frame = np.zeros((48, 48), dtype=np.uint8)
        path = tmp_path / "f.ppm"
        render_ppm(frame, None, path)
        _, _, pixels = read_ppm(path)
        assert pixels == bytes(FRAME_PALETTE[FREE]) * (48 * 48)

    def test_byte_identical_on_repeat(self, tmp_path):
        state = new_episode(WorldConfig(), 3)
        frame = render_frame(state)
        a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
        render_ppm(frame, state.start, a)
        render_ppm(frame, state.start, b)
        assert a.read_bytes() == b.read_bytes()

    def test_agent_overlay_white(self, tmp_path):
        frame = np.zeros((8, 8), dtype=np.uint8)
        path = tmp_path / "f.ppm"
        render_ppm(frame, (3.0, 2.0), path)
        _, _, pixels = read_ppm(path)
        offset = (2 * 8 + 3) * 3
        assert tuple(pixels[offset:offset + 3]) == AGENT_COLOR

    def test_goal_pixels_yellow(self, tmp_path):
        state = build_state(goal=(3.0, 5.0, 0.0, 0.0))
        path = tmp_path / "f.ppm"
        render_ppm(render_frame(state), None, path)
        _, _, pixels = read_ppm(path)
        offset = (5 * 48 + 3) * 3
        assert tuple(pixels[offset:offset + 3]) == FRAME_PALETTE[GOAL]


class TestErrorMap:
    def _error_with(self, fn_cells, fp_cells, pred_goal=None):
        truth = np.zeros((48, 48), dtype=np.uint8)
        predicted = np.zeros((48, 48), dtype=bool)
        for x, y in fn_cells:
            truth[y, x] = 2
        for x, y in fp_cells:
            predicted[y, x] = True
        return prediction_error(
            PredictedFrame(occupancy=predicted, goal_estimate=pred_goal), truth
        ), truth

    def test_zero_error_map_has_no_red_or_blue(self):
        err, truth = self._error_with([], [])
        rgb = error_map_to_rgb(err, truth)
        assert not (rgb == FN_COLOR).all(axis=2).any()
        assert not (rgb == FP_COLOR).all(axis=2).any()

    def test_counts_match(self, tmp_path):
        err, truth = self._error_with([(1, 1), (2, 2), (3, 3)], [(10, 10), (11, 11)])
        rgb = error_map_to_rgb(err, truth)
        assert (rgb == FN_COLOR).all(axis=2).sum() == 3
        assert (rgb == FP_COLOR).all(axis=2).sum() == 2
        path = tmp_path / "e.ppm"
        render_error_map(err, truth, path)
        assert path.read_bytes().count(bytes(FN_COLOR)) >= 3

    def test_perfect_goal_prediction_shows_orange(self):
        truth = np.zeros((48, 48), dtype=np.uint8)
        truth[10:12, 20:22] = GOAL
        predicted = PredictedFrame(occupancy=np.zeros((48, 48), dtype=bool),
                                   goal_estimate=(20.5, 10.5))
        err = prediction_error(predicted, truth)
        assert err.goal_err == 0.0
        rgb = error_map_to_rgb(err, truth)
        assert tuple(rgb[10, 20]) == PRED_GOAL_COLOR
        assert tuple(rgb[11, 21]) == PRED_GOAL_COLOR
        assert not (rgb == TRUE_GOAL_COLOR).all(axis=2).any()

    def test_displaced_goal_shows_both_colors(self):
        truth = np.zeros((48, 48), dtype=np.uint8)
        truth[10:12, 20:22] = GOAL
        predicted = PredictedFrame(occupancy=np.zeros((48, 48), dtype=bool),
                                   goal_estimate=(30.5, 30.5))
        rgb = error_map_to_rgb(prediction_error(predicted, truth), truth)
        assert (rgb == TRUE_GOAL_COLOR).all(axis=2).sum() == 4
        assert (rgb == PRED_GOAL_COLOR).all(axis=2).sum() == 4


class TestPalette:
    def test_distinct_colors(self):
        colors = list(FRAME_PALETTE.values())
        assert len(set(colors)) == len(colors)

    def test_seven_entries(self):
        assert sorted(FRAME_PALETTE) == [0, 1, 2, 3, 4, 5, 6]


def test_an_off_grid_goal_estimate_paints_exactly_its_on_grid_cells():
    """A predicted goal block past any edge of the grid is clipped to it, never counted from the far edge as a
    negative slice stop would count it."""
    occupancy, truth = np.zeros((48, 48), dtype=bool), np.zeros((48, 48), dtype=np.uint8)
    for pos in np.arange(-8.0, 57.0, 0.25):
        for center in ((pos, 20.0), (20.0, pos)):
            x0, x1, y0, y1 = goal_block(center, 2)
            want = np.zeros((48, 48), dtype=bool)
            on_grid = [[i for i in range(lo, hi + 1) if 0 <= i < 48] for lo, hi in ((y0, y1), (x0, x1))]
            want[np.ix_(*on_grid)] = True
            err = prediction_error(PredictedFrame(occupancy, center), truth)
            for rgb, colour in ((prediction_to_rgb(occupancy, center), FRAME_PALETTE[GOAL]),
                                (error_map_to_rgb(err, truth), PRED_GOAL_COLOR)):
                assert np.array_equal((rgb == colour).all(axis=2), want), center
