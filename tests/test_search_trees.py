"""Whole-tree fixture: every node of the planner's search trees is pinned.

``search_corpus.json`` pins the root of about 1000 oracle searches. This
fixture pins whole trees, on searches that corpus does not make:

* rollouts of the frozen model (the latest frame held for all k steps) and
  oracle rollouts with every goal estimate removed, beside plain oracle ones;
* ``n_rollouts`` 1, 7 and 300, ``prior_kappa`` 0 and ``shaping_beta`` > 0.

The searches start from positions reached by random-action play on world
timelines at both agent speeds, at k in {1, 3, 10}. Each tree is walked
depth first, children in action order, and every node's depth, x, y,
terminal value, stop value, visit counts, summed values and prior go into a
sha256 as their ``repr``. The fixture holds per search the node count and
the first 16 hex digits of that digest, and one digest over all of them.

Regenerate the fixture only when search behaviour changes on purpose:

    PYTHONPATH=src python tests/test_search_trees.py
"""
from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import move, outcome_at
from lanenav.mcts import MCTSConfig, SearchNode, run_search
from lanenav.models import Observation, frozen_predict
from lanenav.seeding import episode_seed, make_rng
from lanenav.world import N_ACTIONS, PredictedFrame, Timeline, WorldConfig

pytestmark = pytest.mark.bitpin

FIXTURE = Path(__file__).resolve().parent / "data" / "search_trees.json"

N_POINTS = 120  # decision points; nine searches each (three rollouts x three k)
POINTS_PER_EPISODE = 10
KS = (1, 3, 10)
# Seven variants against nine searches per point: every (rollout, k) slot
# meets every variant.
VARIANTS = (
    MCTSConfig(),
    MCTSConfig(n_rollouts=1),
    MCTSConfig(n_rollouts=7),
    MCTSConfig(n_rollouts=300),
    MCTSConfig(prior_kappa=0.0),
    MCTSConfig(shaping_beta=0.5),
    MCTSConfig(n_rollouts=50, c_puct=0.5, prior_kappa=4.0, shaping_beta=0.1),
)


def tree_digest(root: SearchNode) -> tuple[int, str]:
    """(node count, sha256 hex) over every node, depth first in action order."""
    digest = hashlib.sha256()
    count = 0
    todo = [root]
    while todo:
        node = todo.pop()
        count += 1
        digest.update(repr((node.depth, node.x, node.y, node.terminal_value, node.stop_value,
                            list(node.n), list(node.w), list(node.prior))).encode())
        todo.extend(reversed([c for c in node.children if c is not None]))
    return count, digest.hexdigest()


def rollouts(timeline: Timeline, t: int) -> tuple[tuple[PredictedFrame, ...], ...]:
    """The oracle's, the frozen model's and the goal-free oracle rollout at time t."""
    k = max(KS)
    oracle = timeline.rollout(t, k)
    frozen = frozen_predict(Observation.at(timeline, t).history, k)
    no_goal = tuple(PredictedFrame(s.occupancy, None) for s in oracle)
    return oracle, frozen, no_goal


def corpus_trees() -> tuple[list[list], str]:
    """Per search ``[node count, digest prefix]``, and a digest of all full digests."""
    records: list[list] = []
    overall = hashlib.sha256()
    point = 0
    episode = 0
    while point < N_POINTS:
        cfg = WorldConfig().for_speed("2x" if episode % 2 == 0 else "1x")
        seed = episode_seed(11, episode)
        timeline = Timeline(cfg, seed)
        walk_rng = make_rng(seed + 1)
        x, y = timeline.start
        for t in range(POINTS_PER_EPISODE):
            if point >= N_POINTS:
                break
            # The first k frames of a 10-step rollout are the k-step rollout.
            for rollout in rollouts(timeline, t):
                for k in KS:
                    search = replace(VARIANTS[len(records) % len(VARIANTS)], rollout_length=k)
                    root = run_search((x, y), rollout, search, cfg.agent_speed, goal_size=cfg.goal_size)
                    count, digest = tree_digest(root)
                    records.append([count, digest[:16]])
                    overall.update(digest.encode())
            point += 1
            x, y = move(x, y, int(walk_rng.integers(N_ACTIONS)), cfg.agent_speed,
                        cfg.grid_w - 1.0, cfg.grid_h - 1.0)
            if outcome_at(timeline.frame(t + 1), x, y, t + 1, cfg.max_steps).is_terminal:
                break
        episode += 1
    return records, overall.hexdigest()


def test_search_trees_match_fixture():
    expected = json.loads(FIXTURE.read_text())
    records, overall = corpus_trees()
    assert len(records) == len(expected["trees"])
    for i, (got, want) in enumerate(zip(records, expected["trees"])):
        assert got == want, f"search {i}: got {got}, fixture {want}"
    assert overall == expected["sha256"]


if __name__ == "__main__":
    records, overall = corpus_trees()
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps({"trees": records, "sha256": overall}, separators=(",", ":")) + "\n")
    print(f"wrote {len(records)} search trees to {FIXTURE}", file=sys.stderr)
