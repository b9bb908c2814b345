"""Search equivalence: the planner's output on a fixed corpus is pinned.

About 1000 searches are generated here from seeds: oracle rollouts at
k in {1, 3, 10} from positions reached by random-action play, at both agent
speeds and under four planner configurations. For each search the fixture
holds the root visit counts, the root's total value and the action
``plan_action`` draws, plus a digest of every per-action root value, so any
change in the tree statistics or the final draw shows up.

Regenerate the fixture only when search behaviour changes on purpose:

    PYTHONPATH=src python tests/test_search_equivalence.py
"""
from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import agent_turn, assert_exploration_factors
from lanenav.mcts import MCTSConfig, plan_action, run_search
from lanenav.models import oracle_predict
from lanenav.seeding import episode_seed, make_rng
from lanenav.world import N_ACTIONS, WorldConfig, new_episode

pytestmark = pytest.mark.bitpin

FIXTURE = Path(__file__).resolve().parent / "data" / "search_corpus.json"

N_POINTS = 336  # decision points; three searches each (k = 1, 3, 10)
POINTS_PER_EPISODE = 12
KS = (1, 3, 10)
VARIANTS = (
    MCTSConfig(),
    MCTSConfig(temperature=1.0),
    MCTSConfig(shaping_beta=0.5),
    MCTSConfig(c_puct=0.5, prior_kappa=0.0),
)


def corpus_results(visit=None) -> tuple[list[list], str]:
    """Per search ``[root.n..., root.w summed left to right, pick]`` and a digest of all root.w; ``visit``, if
    given, is called with each search's config and root."""
    records: list[list] = []
    digest = hashlib.sha256()
    point = 0
    episode = 0
    while point < N_POINTS:
        world_cfg = WorldConfig().for_speed("2x" if episode % 2 == 0 else "1x")
        seed = episode_seed(7, episode)
        state = new_episode(world_cfg, seed)
        agent = state.start
        walk_rng = make_rng(seed + 1)
        for _ in range(POINTS_PER_EPISODE):
            if point >= N_POINTS:
                break
            # The oracle is exact, so the first k frames of one 10-step
            # rollout are the k-step rollout.
            rollout = oracle_predict(state, max(KS))
            for k in KS:
                cfg = replace(VARIANTS[len(records) % len(VARIANTS)], rollout_length=k)
                root = run_search(agent, rollout, cfg, world_cfg.agent_speed,
                                  goal_size=world_cfg.goal_size)
                if visit is not None:
                    visit(cfg, root)
                pick = plan_action(agent, rollout, cfg, make_rng(len(records)),
                                   agent_speed=world_cfg.agent_speed,
                                   goal_size=world_cfg.goal_size)
                w_total = 0.0
                for w in root.w:  # a left fold, as sum() of floats was before Python 3.12
                    w_total += w
                records.append([*root.n, w_total, pick])
                digest.update(repr(root.w).encode())
            point += 1
            x, y, outcome = agent_turn(state, *agent, int(walk_rng.integers(N_ACTIONS)))
            agent = (x, y)
            if outcome.is_terminal:
                break
        episode += 1
    return records, digest.hexdigest()


def test_search_corpus_matches_fixture():
    expected = json.loads(FIXTURE.read_text())
    records, w_digest = corpus_results()
    assert len(records) == len(expected["searches"])
    for i, (got, want) in enumerate(zip(records, expected["searches"])):
        assert got == want, f"search {i}: got {got}, fixture {want}"
    assert w_digest == expected["w_sha256"]


def test_corpus_nodes_keep_their_exploration_factors():
    searched = []

    def visit(cfg, root):
        assert_exploration_factors(root, cfg.c_puct)
        searched.append(cfg)

    corpus_results(visit)
    assert len(searched) == 3 * N_POINTS


if __name__ == "__main__":
    records, w_digest = corpus_results()
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps({"searches": records, "w_sha256": w_digest},
                                  separators=(",", ":")) + "\n")
    print(f"wrote {len(records)} searches to {FIXTURE}", file=sys.stderr)
