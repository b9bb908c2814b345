"""Machine-speed calibration for the end-to-end timings.

On a shared machine the speed a process gets drifts by tens of percent within
a minute, and the benchmark can neither pin CPUs nor fix clock frequency. A
fixed piece of work that looks like lanenav's hot loops (a small PUCT-style
tree walk over Python objects, then small numpy raster operations) is timed
between operations; each operation's wall time is scaled by
``NOMINAL_S / (calibration time around it)``. The scaled time is "seconds at
nominal speed", so a drift that slows both the operation and the calibration
cancels out. The loop uses no lanenav code, so no library change moves it.
"""
from __future__ import annotations

import math
import time

import numpy as np

# Wall time of one calibration_s() call at nominal speed. Its value only sets
# the scale of calibrated figures; on a 2-core x86 VM with CPython 3.11 one
# call takes 8 to 14 ms.
NOMINAL_S = 0.010


class _Node:
    __slots__ = ("x", "n", "kids")

    def __init__(self, x: float) -> None:
        self.x = x
        self.n = [0] * 8
        self.kids: list[_Node | None] = [None] * 8


def calibration_s() -> float:
    """Wall seconds taken by the fixed calibration work, now."""
    start = time.perf_counter()
    root = _Node(0.0)
    for _ in range(400):
        node = root
        for _ in range(6):
            total = sum(node.n)
            scale = math.sqrt(total) if total else 1.0
            best = max(range(8), key=lambda a: scale / (1 + node.n[a]) + math.cos(a + node.x))
            node.n[best] += 1
            if node.kids[best] is None:
                node.kids[best] = _Node(node.x + 0.5)
            node = node.kids[best]
    grid = np.zeros((48, 48), dtype=np.uint8)
    for i in range(60):
        grid[i % 48, np.arange(i % 40, i % 40 + 6)] = 3
        (grid == 3).sum(axis=1)
    return time.perf_counter() - start
