"""World fixture: the simulator's output on fixed seeds is pinned.

For each (config, seed) the fixture holds:

* ``frames``: sha256 of the ``Timeline`` palette frames for t = 0..250;
* ``rle``: sha256 of ``frame_to_rle`` of every fifth of those frames;
* ``agent`` and ``goal``: the start of the agent (x, y), the timeline's,
  and of the goal (x, y, vx, vy), ``new_episode``'s of the same seed;
* ``spawn_draws``: the raw Poisson total after 250 world steps;
* ``events``: sha256 of every non-running outcome over those 250 steps under
  seeded random actions (the episode is reopened after each end), with the
  number of deaths and goals.

``events`` was recorded from ``agent_step``, the stepped-state agent that the
library has since dropped, and is reproduced by ``conftest.move`` and
``conftest.outcome_at`` on the timeline's frames, the agent rule that the
episode kernel is compared with step by step in ``test_episode_kernel.py``.
That chain of equalities is the proof that the one agent rule behaves as the
old one did, so do not re-record the fixture to make ``events`` pass.

The configs are the default world and edge cases ``validate`` accepts: no
speed jitter (heads on exact half-pixels, so rounding ties), jitter at or
above the mean speed (bodies that stand still or back out), lengths jittered
below 1, one busy lane, a non-square grid and a 3x3 goal.

Regenerate the fixture only when world behaviour changes on purpose:

    PYTHONPATH=src python tests/test_world_fixture.py
"""
from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import move, outcome_at
from lanenav.seeding import make_rng
from lanenav.tracefile import frame_to_rle
from lanenav.world import (
    DEFAULT_CLASSES,
    RUNNING,
    Timeline,
    WorldConfig,
    new_episode,
)

pytestmark = pytest.mark.bitpin

FIXTURE = Path(__file__).resolve().parent / "data" / "world_frames.json"

STEPS = 250
RLE_EVERY = 5

CONFIGS = {
    "default": (WorldConfig(), 100),
    "no_speed_jitter": (WorldConfig(obstacle_classes=tuple(
        replace(c, speed_jitter=0.0) for c in DEFAULT_CLASSES)), 10),
    "jitter_at_or_over_mean": (WorldConfig(obstacle_classes=tuple(
        replace(c, speed_jitter=c.mean_speed * (1 + c.class_id % 2)) for c in DEFAULT_CLASSES)), 10),
    "long_length_jitter": (WorldConfig(obstacle_classes=tuple(
        replace(c, length_jitter=c.mean_length + 8.0) for c in DEFAULT_CLASSES)), 10),
    "one_lane_level60": (WorldConfig(level=60.0, lane_rows=(8,)), 10),
    "wide_grid": (WorldConfig(grid_h=30, grid_w=64, lane_rows=tuple(range(2, 28, 2))), 10),
    "goal_size3": (WorldConfig(goal_size=3), 10),
}


def record_seed(cfg: WorldConfig, seed: int) -> dict:
    timeline = Timeline(cfg, seed)
    goal = new_episode(cfg, seed).goal  # the start goal, which the timeline's start shares (test_world_warmup.py)
    start = {"agent": list(timeline.start), "goal": [goal.x, goal.y, goal.vx, goal.vy]}
    frames = hashlib.sha256()
    rle = hashlib.sha256()
    for t in range(STEPS + 1):
        frame = timeline.frame(t)
        frames.update(frame.tobytes())
        if t % RLE_EVERY == 0:
            rle.update(frame_to_rle(frame).encode() + b"\n")

    actions = make_rng(seed).integers(0, 8, size=STEPS).tolist()
    x, y = timeline.start
    events = []
    for t, action in enumerate(actions, 1):
        x, y = move(x, y, action, cfg.agent_speed, cfg.grid_w - 1.0, cfg.grid_h - 1.0)
        outcome = outcome_at(timeline.frame(t), x, y, t, cfg.max_steps)
        if outcome.kind != RUNNING:
            events.append([outcome.steps_taken, outcome.kind, x, y])
    return {
        "frames": frames.hexdigest(),
        "rle": rle.hexdigest(),
        **start,
        "spawn_draws": timeline.spawn_draws,  # the timeline's steps to t = STEPS above
        "events": hashlib.sha256(json.dumps(events).encode()).hexdigest(),
        "deaths": sum(1 for e in events if e[1] == "died"),
        "goals": sum(1 for e in events if e[1] == "goal"),
    }


def record_all() -> dict:
    return {name: [record_seed(cfg, seed) for seed in range(n_seeds)]
            for name, (cfg, n_seeds) in CONFIGS.items()}


@pytest.mark.parametrize("name", list(CONFIGS))
def test_world_matches_fixture(name):
    want = json.loads(FIXTURE.read_text())[name]
    cfg, n_seeds = CONFIGS[name]
    assert len(want) == n_seeds
    for seed, expected in enumerate(want):
        assert record_seed(cfg, seed) == expected, (name, seed)


def test_fixture_sees_deaths_and_goals():
    data = json.loads(FIXTURE.read_text())
    for name, records in data.items():
        assert sum(r["deaths"] for r in records) > 0, name
    assert sum(r["goals"] for r in data["default"]) > 0


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(record_all(), indent=1) + "\n")
    print(f"wrote {FIXTURE}", file=sys.stderr)
