"""Reduced golden grid: the benchmark CSV is pinned byte for byte.

Models {oracle, velocity, noisy:0.10,0.02,1.0,5, frozen, none} x speeds
{2x, 1x} x k {1, 3}, 5 episodes each, master seed 1, default configs, run in
one process. Speed work must leave the CSV unchanged; when behaviour changes
on purpose, regenerate it and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import sys
from pathlib import Path

from lanenav import BenchCell, MCTSConfig, WorldConfig, run_benchmark

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_small.csv"

MODELS = ("oracle", "velocity", "noisy:0.10,0.02,1.0,5", "frozen", "none")
CELLS = [BenchCell(m, s, k) for m in MODELS for s in ("2x", "1x") for k in (1, 3)]
EPISODES = 5
MASTER_SEED = 1


def golden_csv() -> str:
    table = run_benchmark(CELLS, WorldConfig(), MCTSConfig(), EPISODES,
                          master_seed=MASTER_SEED, parallelism=1)
    return table.to_csv()


def test_reduced_golden_grid_csv_is_byte_identical():
    assert golden_csv() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(golden_csv())
    print(f"wrote {GOLDEN}", file=sys.stderr)
