"""The benchmark's workloads: their inputs, one operation each, and its check.

Every workload draws its operations' inputs from a fixed pool of master seeds
(0 .. pool_size-1) in an order the benchmark seed shuffles, so every input has
a reference output recorded from the seed commit under ``reference/``. The
library is driven only through its public entry points, looked up at call
time so the tracer's wrappers apply.

Why these two (see also BENCHMARK.json):

* plan_grid: oracle/frozen at 2x, k in {1,3,10}. The planner does most of the
  work and the models little; a planner change shows, a model change should not.
* trace_replay: random agent at 2x, episode -> trace file -> read back ->
  frame decode -> replay -> PPM frames. World and file layers only; planner
  and models are bypassed.

Two more were tried and left out because their throughput spread too much
between seeds on a shared 2-core machine: velocity/noisy at 1x (11-14%; the
calibration loop did not follow their slowdowns) and the ROADMAP golden grid
on the process pool (24%; its workers run outside the calibrated process).
The golden grid is still checked for its CSV sha256 with ``run.py --golden``.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import lanenav.harness as harness
import lanenav.ppm as ppm
import lanenav.tracefile as tracefile
from lanenav import BenchCell, MCTSConfig, WorldConfig

GOLDEN_MODELS = ("oracle", "velocity", "noisy:0.10,0.02,1.0,5", "frozen", "none")
GOLDEN_CELLS = tuple(BenchCell(m, s, k) for m in GOLDEN_MODELS for s in ("2x", "1x") for k in (1, 3))
# ROADMAP golden grid: GOLDEN_CELLS, 20 episodes, master seed 1, default configs.
GOLDEN_EPISODES = 20
GOLDEN_MASTER_SEED = 1
GOLDEN_SHA256 = "452ce4fe061716541c0d07d5db4e24dccc522a7e7114e56e437ef58280e26640"

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class GridWorkload:
    """One ``run_benchmark`` call of ``episodes`` per cell per master seed."""

    name: str
    cells: tuple[BenchCell, ...]
    episodes: int
    pool_size: int

    @property
    def episodes_per_op(self) -> int:
        return len(self.cells) * self.episodes

    def run(self, master: int, out_dir: Path) -> list[str]:
        """The G/T/D CSV lines of the grid on ``master``."""
        table = harness.run_benchmark(list(self.cells), WorldConfig(), MCTSConfig(), self.episodes,
                                      master_seed=master)
        return table.to_csv().splitlines()

    @staticmethod
    def digest(outputs: list) -> list:
        return outputs


@dataclass(frozen=True)
class TraceReplayWorkload:
    """Random-agent episodes through trace write/read, replay and PPM output."""

    name: str
    episodes: int
    pool_size: int

    @property
    def episodes_per_op(self) -> int:
        return self.episodes

    def run(self, master: int, out_dir: Path) -> list[tuple]:
        """Per episode: trace path, PPM paths, replay verdict, frames-decoded-equal, steps."""
        world_cfg = WorldConfig().for_speed("2x")
        outputs = []
        for i in range(self.episodes):
            record = harness.run_episode(world_cfg, MCTSConfig(), "none", master * self.episodes + i,
                                         keep_frames=True)
            if record.error is not None:
                raise RuntimeError(f"episode {record.episode_seed} failed: {record.error}")
            ep_dir = out_dir / f"ep{i}"
            ep_dir.mkdir(parents=True, exist_ok=True)
            trace_path = ep_dir / "trace.jsonl"
            tracefile.write_trace(trace_path, record)
            trace = tracefile.read_trace(trace_path)
            frames_ok = len(trace.steps) == len(record.frames) - 1 and all(
                np.array_equal(trace.frame_at(j), record.frames[j + 1]) for j in range(len(trace.steps)))
            verdict = harness.verify_replay(record)
            positions = [None] + [(s.agent_x, s.agent_y) for s in record.trace]
            ppm_paths = [ep_dir / f"frame{j:03d}.ppm" for j in range(len(record.frames))]
            for frame, pos, path in zip(record.frames, positions, ppm_paths):
                ppm.render_ppm(frame, pos, path)
            outputs.append((trace_path, ppm_paths, bool(verdict), bool(frames_ok), record.steps))
        return outputs

    @staticmethod
    def digest(outputs: list) -> list:
        """Replace each episode's file paths by digests of the file contents."""
        return [[_digest(trace_path.read_bytes()), _digest(b"".join(p.read_bytes() for p in ppm_paths)),
                 verdict, frames_ok, steps]
                for trace_path, ppm_paths, verdict, frames_ok, steps in outputs]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


WORKLOADS = {
    "plan_grid": GridWorkload(
        "plan_grid",
        tuple(BenchCell(m, "2x", k) for m in ("oracle", "frozen") for k in (1, 3, 10)),
        episodes=1, pool_size=240),
    "trace_replay": TraceReplayWorkload("trace_replay", episodes=4, pool_size=400),
}


def compare(outputs: list, reference: list) -> int:
    """Outputs that differ from the reference: CSV rows, or per-episode files/verdicts."""
    mismatches = abs(len(outputs) - len(reference))
    for got, want in zip(outputs, reference):
        if isinstance(want, list):
            mismatches += sum(1 for g, w in zip(got, want) if g != w) + abs(len(got) - len(want))
        elif got != want:
            mismatches += 1
    return mismatches


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"
