"""Binary PPM (P6) rendering of frames and prediction-error maps.

The palette is fixed so identical inputs always produce byte-identical
files: free space violet, the five obstacle classes distinct cyans/blues,
the goal yellow, the agent overlay white. Error maps: false negatives red,
false positives blue, true goal yellow, predicted goal orange on top.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from . import world as w
from .fileio import atomic_write_bytes
from .models import ErrorMap
from .world import goal_block, round_px

FRAME_PALETTE = {
    w.FREE: (68, 1, 84),
    1: (62, 74, 137),
    2: (49, 104, 142),
    3: (38, 130, 142),
    4: (31, 158, 137),
    5: (53, 183, 121),
    w.GOAL: (253, 231, 37),
}
AGENT_COLOR = (255, 255, 255)

ERROR_BACKGROUND = (0, 0, 0)
FN_COLOR = (255, 0, 0)
FP_COLOR = (0, 0, 255)
TRUE_GOAL_COLOR = (253, 231, 37)
PRED_GOAL_COLOR = (255, 165, 0)

_LUT = np.zeros((max(FRAME_PALETTE) + 1, 3), dtype=np.uint8)
for value, rgb in FRAME_PALETTE.items():
    _LUT[value] = rgb


def write_ppm(pixels: np.ndarray, path: str | Path) -> None:
    """Write an (H, W, 3) uint8 array as binary PPM."""
    height, width, depth = pixels.shape
    if depth != 3:
        raise ValueError("pixels must be (H, W, 3)")
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + pixels.astype(np.uint8, copy=False).tobytes())


def frame_to_rgb(frame: np.ndarray, agent_pos: tuple[float, float] | None = None) -> np.ndarray:
    rgb = _LUT.take(frame, axis=0)
    if agent_pos is not None:
        px, py = round_px(agent_pos[0]), round_px(agent_pos[1])
        if 0 <= py < frame.shape[0] and 0 <= px < frame.shape[1]:
            rgb[py, px] = AGENT_COLOR
    return rgb


def render_ppm(frame: np.ndarray, agent_pos: tuple[float, float] | None, path: str | Path) -> None:
    write_ppm(frame_to_rgb(frame, agent_pos), path)


def error_map_to_rgb(err: ErrorMap, truth: np.ndarray, goal_size: int = 2) -> np.ndarray:
    height, width = truth.shape
    rgb = np.zeros((height, width, 3), dtype=np.uint8)
    rgb[:, :] = ERROR_BACKGROUND
    rgb[err.fn] = FN_COLOR
    rgb[err.fp] = FP_COLOR
    rgb[truth == w.GOAL] = TRUE_GOAL_COLOR
    if err.pred_goal is not None:
        # Drawn last: a perfect goal prediction shows orange.
        x0, x1, y0, y1 = goal_block(err.pred_goal, goal_size)
        rgb[max(y0, 0):max(y1 + 1, 0), max(x0, 0):max(x1 + 1, 0)] = PRED_GOAL_COLOR
    return rgb


def render_error_map(err: ErrorMap, truth: np.ndarray, path: str | Path, goal_size: int = 2) -> None:
    write_ppm(error_map_to_rgb(err, truth, goal_size=goal_size), path)


def prediction_to_rgb(occupancy: np.ndarray, goal_estimate: tuple[float, float] | None,
                      goal_size: int = 2) -> np.ndarray:
    """Frame-style view of a predicted step: one obstacle color plus the goal."""
    height, width = occupancy.shape
    rgb = np.zeros((height, width, 3), dtype=np.uint8)
    rgb[:, :] = FRAME_PALETTE[w.FREE]
    rgb[occupancy] = FRAME_PALETTE[3]
    if goal_estimate is not None:
        x0, x1, y0, y1 = goal_block(goal_estimate, goal_size)
        rgb[max(y0, 0):max(y1 + 1, 0), max(x0, 0):max(x1 + 1, 0)] = FRAME_PALETTE[w.GOAL]
    return rgb
