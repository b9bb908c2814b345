#!/usr/bin/env python3
"""Layer timings of lanenav: median and IQR over repeats, written as JSON.

Run from the repository root:

    python3 benchmarks/perf.py --out BENCH_<n>.json      # a few seconds
    python3 benchmarks/perf.py --repeats 3 --out /tmp/bench.json   # smoke run

where ``<n>`` numbers the change the report belongs to (see ROADMAP.md).

lanenav is imported from ``src/`` next to this directory. Every layer is
timed in-process on fixed inputs built before the clock starts (the default
world at 2x, episode seeds of master seed 1). One repeat times a batch of
calls with ``time.perf_counter_ns`` and gives the mean time per call; the
report is the median and the quartiles over repeats, in microseconds per
call. Layers:

* ``world.world_step``: one step of a warmed-up world;
* ``world.new_episode``: lane draw, the 48-step warm-up and placement;
* ``world.render_frame``: the palette frame of a warmed-up world;
* ``tracefile.frame_to_rle`` and ``tracefile.rle_to_frame``: one frame;
* ``ppm.frame_to_rgb``: one frame with the agent drawn;
* ``mcts.run_search.k{1,3,10}``: one search on the timeline's true rollout;
* ``harness.verify_replay``: per replayed step, the replay of random-agent
  episodes, fresh timeline included.

The report also holds ``src_lines``, the line count of the library's Python
sources, to set beside the timings.

The script pins no CPU and controls no clock frequency, and the JSON says so:
on a shared host, compare runs made back to back, by their medians.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from lanenav.harness import run_episode, verify_replay
from lanenav.mcts import MCTSConfig, run_search
from lanenav.models import PredictedRollout
from lanenav.ppm import frame_to_rgb
from lanenav.seeding import episode_seed
from lanenav.tracefile import frame_to_rle, rle_to_frame
from lanenav.world import Timeline, WorldConfig, clone_state, new_episode, render_frame, world_step

SEEDS = [episode_seed(1, i) for i in range(8)]
KS = (1, 3, 10)


def git(*args: str) -> str:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def env_stamp() -> dict:
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "uncommitted_changes": git("status", "--porcelain", "--untracked-files=no") not in ("", "unknown"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        # The script controls none of these; the figures carry the host's noise.
        "cpu_pinning": "unavailable, not applied",
        "frequency_control": "unavailable, not applied",
    }


def timed(run, calls: int, setup=None) -> float:
    """Mean microseconds per call of one batch; ``setup`` runs before the clock starts."""
    arg = setup() if setup is not None else None
    start = time.perf_counter_ns()
    run(arg)
    return (time.perf_counter_ns() - start) / calls / 1000.0


def layer_cases() -> dict:
    """Name -> (batch function, calls per batch, setup or None)."""
    cfg = WorldConfig().for_speed("2x")
    states = [new_episode(cfg, seed) for seed in SEEDS]
    frames = [render_frame(s) for s in states]
    rles = [frame_to_rle(f) for f in frames]
    timelines = [Timeline(cfg, seed) for seed in SEEDS]
    agents = [timeline.start for timeline in timelines]
    rollouts = [PredictedRollout(timeline.rollout(0, max(KS)), "oracle") for timeline in timelines]
    records = [run_episode(cfg, MCTSConfig(), "none", seed) for seed in SEEDS]
    steps = 10

    def replay_batch(_):
        if not all(verify_replay(r) for r in records):
            raise RuntimeError("a random-agent episode failed its replay")

    def step_batch(clones):
        for state in clones:
            for _ in range(steps):
                world_step(state)

    cases = {
        "world.world_step": (step_batch, steps * len(states), lambda: [clone_state(s) for s in states]),
        "world.new_episode": (lambda _: [new_episode(cfg, seed) for seed in SEEDS], len(SEEDS), None),
        "world.render_frame": (lambda _: [render_frame(s) for s in states], len(states), None),
        "tracefile.frame_to_rle": (lambda _: [frame_to_rle(f) for f in frames], len(frames), None),
        "tracefile.rle_to_frame": (lambda _: [rle_to_frame(r, cfg.grid_h, cfg.grid_w) for r in rles],
                                   len(rles), None),
        "ppm.frame_to_rgb": (lambda _: [frame_to_rgb(f, a) for f, a in zip(frames, agents)], len(frames), None),
    }
    for k in KS:
        search = MCTSConfig(rollout_length=k)
        cases[f"mcts.run_search.k{k}"] = (
            lambda _, search=search: [run_search(a, r, search, cfg.agent_speed, goal_size=cfg.goal_size)
                                      for a, r in zip(agents, rollouts)],
            len(rollouts), None)
    cases["harness.verify_replay"] = (replay_batch, sum(len(r.trace) for r in records), None)
    return cases


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--repeats", type=int, default=21, help="timed batches per layer (at least 2)")
    parser.add_argument("--out", type=Path, default=Path("BENCH.json"), help="JSON report path")
    args = parser.parse_args(argv)
    if args.repeats < 2:
        parser.error("--repeats must be at least 2 for quartiles")
    cases = layer_cases()
    layers = {}
    for name, (run, calls, setup) in cases.items():
        timed(run, calls, setup)  # warm caches and lazy set-up outside the samples
        samples = [timed(run, calls, setup) for _ in range(args.repeats)]
        q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
        layers[name] = {"unit": "us", "median": round(median, 2), "q1": round(q1, 2), "q3": round(q3, 2),
                        "iqr": round(q3 - q1, 2), "repeats": args.repeats, "calls_per_repeat": calls}
        print(f"{name:26s} {median:10.1f} us  (IQR {q1:.1f}-{q3:.1f}, {args.repeats} x {calls} calls)")
    print(f"{'src_lines':26s} {src_lines():10d}")
    report = {"env": env_stamp(), "layers": layers, "src_lines": src_lines()}
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
