"""The search kernel's prior table against the Python planner.

The kernel reads each node's goal prior through a direct-mapped table that
its caller owns, keyed by the bits of (dx, dy, kappa): a hit copies the
slot's priors, a miss computes them and overwrites the slot, and a prior
whose ``exp`` overflows is never stored. ``run_search`` makes a table per
search, an episode one per episode. Every case compares with
``conftest.reference_search``, which computes each prior afresh, or with
``conftest.reference_play`` planning through it, so a slot that served the
prior of another key shows as another tree or episode. Tables of 1 and 2
slots are set in the kernel's ``Search`` by hand, or given to the
episode loop, so that keys evict each other.
"""
from __future__ import annotations

import ctypes
import math
import os
import struct
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import conftest
from conftest import reference_play, reference_search, reference_select
from lanenav import harness
from lanenav.harness import PRIOR_SLOTS, _play, run_episode
from lanenav.kernel import PRIOR, check, library
from lanenav.mcts import (MCTSConfig, SearchNode, _pack_frames, _search, _search_tables, _Tree, goal_prior, plan_action,
                          run_search)
from lanenav.models import ForwardModel
from lanenav.seeding import episode_seed, make_rng
from lanenav.world import PredictedFrame, Timeline, WorldConfig
from test_episode_kernel import OVERFLOW_KAPPA, assert_same_episode, model_for
from test_search_kernel import assert_same_tree, outcome

pytestmark = pytest.mark.bitpin


def prior_table(slots: int) -> ctypes.Array:
    return (PRIOR * slots)()


def search_in(table: ctypes.Array, slots: int, agent, frames, cfg: MCTSConfig, speed: float, goal_size: int = 2):
    """``run_search``, reading priors through ``table`` of ``slots`` slots, set in the Search by hand."""
    shape = frames[0].occupancy.shape
    records, _ = _pack_frames(frames, cfg.rollout_length, shape)
    nodes, address, _, _ = _search_tables(cfg, 0)
    search = _search(cfg, address, ctypes.addressof(table), slots, agent, speed, shape, goal_size)
    count = check(library.lanenav_search(ctypes.byref(search), records))
    return SearchNode(_Tree(nodes, count, address), 0)


def assert_same(got, want) -> None:
    """A kernel search's outcome against the reference's: the same exception, or the same tree."""
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        assert_same_tree(got, want)


def reference_plan(agent_pos, frames, cfg, rng, agent_speed, goal_size=2):
    """``plan_action`` as a Python loop: ``reference_search``, then one draw for ``reference_select``."""
    root = reference_search(agent_pos, frames, cfg, agent_speed, goal_size=goal_size)
    return reference_select(root.n, cfg.temperature, rng.random())


def compare_episodes(world_cfg: WorldConfig, mcts_cfg: MCTSConfig, make, seed: int, slots: int = PRIOR_SLOTS):
    """The kernel's episode, its prior table of ``slots`` slots, against ``reference_play`` planning in
    Python; returns the reference record."""
    got_model, want_model = make(), make()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "PRIOR_SLOTS", slots)
        got = _play(Timeline(world_cfg, seed), world_cfg, mcts_cfg, got_model)
        patch.setattr(conftest, "plan_action", reference_plan)
        want = reference_play(Timeline(world_cfg, seed), world_cfg, mcts_cfg, want_model)
    assert_same_episode(got, want)
    if isinstance(want_model, ForwardModel):
        assert got_model.calls == want_model.calls
    return want


def half_steps(hi: float):
    """An axis position on the grid's half-pixel lattice, where the offsets of nearby searches repeat."""
    return st.integers(0, int(2 * hi)).map(lambda i: i / 2)


@st.composite
def shared_table_runs(draw):
    """Searches in turn on one table of 1, 2 or 64 slots, over two frame sets and up to three kappas, one of
    which may overflow some priors."""
    height, width = draw(st.sampled_from([(8, 8), (16, 9), (48, 48)]))
    k = draw(st.sampled_from([1, 2, 3, 10]))
    rng = make_rng(draw(st.integers(0, 2 ** 32 - 1)))
    axis_x = st.sampled_from([0.0, -0.0, 2.5, width - 1.0]) | st.floats(-5.0, width + 5.0)
    axis_y = st.sampled_from([0.0, -0.0, 0.5, height - 1.0]) | st.floats(-5.0, height + 5.0)
    goal = st.none() | st.tuples(axis_x, axis_y)
    frame_sets = [tuple(PredictedFrame(rng.random((height, width)) < 0.1, draw(goal)) for _ in range(k))
                  for _ in range(2)]
    kappas = draw(st.lists(st.sampled_from([0.0, 2.0, OVERFLOW_KAPPA]) | st.floats(0.0, 8.0), min_size=1,
                           max_size=3))
    runs = [((draw(half_steps(width - 1.0)), draw(half_steps(height - 1.0))), draw(st.sampled_from(frame_sets)),
             MCTSConfig(n_rollouts=draw(st.integers(1, 200)), rollout_length=k,
                        prior_kappa=draw(st.sampled_from(kappas))))
            for _ in range(draw(st.integers(2, 5)))]
    return draw(st.sampled_from([1, 2, 64])), runs, draw(st.sampled_from([0.5, 1.0]))


@settings(max_examples=200, deadline=None)
@given(shared_table_runs())
def test_searches_sharing_a_table_match_the_reference(case):
    slots, runs, speed = case
    table = prior_table(slots)
    for agent, frames, cfg in runs:
        assert_same(outcome(search_in, table, slots, agent, frames, cfg, speed),
                    outcome(reference_search, agent, frames, cfg, speed))


def slot_of(table: ctypes.Array, i: int = 0) -> tuple:
    """(dx, dy, kappa, prior) of slot i, the key's bits and the prior."""
    slot = table[i]
    return slot.dx, slot.dy, slot.kappa, list(slot.prior)


def test_a_miss_stores_the_prior_and_a_hit_copies_it():
    """At k = 1 a search computes the root's prior only. The slot then holds its key's bits and the prior;
    a later search of the same key reads the slot, here rewritten to show that it is read."""
    table = prior_table(1)
    agent, cfg = (6.0, 5.0), MCTSConfig(n_rollouts=20, rollout_length=1, prior_kappa=2.5)
    frames = (PredictedFrame(np.zeros((8, 8), bool), (1.5, 0.0)),)
    root = search_in(table, 1, agent, frames, cfg, 1.0)
    bits = [struct.unpack("<Q", struct.pack("<d", v))[0] for v in (1.5 - 6.0, 0.0 - 5.0, 2.5)]
    prior = goal_prior(agent, (1.5, 0.0), 2.5)
    assert slot_of(table) == (*bits, prior) and root.prior == prior
    planted = [i / 36.0 for i in range(1, 9)]
    table[0] = PRIOR(dx=bits[0], dy=bits[1], kappa=bits[2], prior=tuple(planted))
    assert search_in(table, 1, agent, frames, cfg, 1.0).prior == planted
    # Another kappa is another key: computed, and stored over the slot.
    assert search_in(table, 1, agent, frames, MCTSConfig(n_rollouts=20, rollout_length=1, prior_kappa=3.0),
                      1.0).prior == goal_prior(agent, (1.5, 0.0), 3.0)


def test_no_goal_and_a_zero_offset_are_never_looked_up():
    """Both give the uniform prior before any lookup, so an all-zero slot, which a zeroed table holds,
    is never read as the prior of (+0, +0)."""
    table = prior_table(2)
    cfg = MCTSConfig(n_rollouts=30, rollout_length=1)
    for goal in (None, (4.0, 4.0)):
        frames = (PredictedFrame(np.zeros((8, 8), bool), goal),)
        root = search_in(table, 2, (4.0, 4.0), frames, cfg, 1.0)
        assert root.prior == [0.125] * 8
        assert_same_tree(root, reference_search((4.0, 4.0), frames, cfg, 1.0))
    assert bytes(table) == bytes(2 * ctypes.sizeof(PRIOR))


def test_signed_zero_offsets_are_distinct_keys():
    """Searched from row 0, a goal estimate at y = -0.0 gives dy = -0.0 and one at +0.0 gives dy = +0.0;
    atan2 puts the goal at -pi and at pi, and the two priors differ in every action's bits. On one slot,
    each key evicts the other."""
    table, cfg = prior_table(1), MCTSConfig(n_rollouts=50, rollout_length=2)
    priors = set()
    for goal_y in (0.0, -0.0, -0.0, 0.0, -0.0):
        frames = tuple(PredictedFrame(np.zeros((8, 8), bool), (1.0, goal_y)) for _ in range(2))
        root = search_in(table, 1, (6.0, 0.0), frames, cfg, 1.0)
        assert_same_tree(root, reference_search((6.0, 0.0), frames, cfg, 1.0))
        priors.add(tuple(root.prior))
    (plus, minus) = priors
    assert all(p != m for p, m in zip(plus, minus))


def test_signed_zero_estimates_through_an_episode():
    """A model's goal estimate alternates between (1, +0.0) and (1, -0.0) by decision, over an empty
    grid; the agent climbs to row 0, where the searches' offsets are signed zeros in y, so both keys meet
    in one episode's table. The two priors differ only in their last bits, which seldom change a decision:
    the search test above pins the bits, this one the episode."""
    world_cfg = WorldConfig(level=0.0, warmup_steps=0).for_speed("2x")
    mcts_cfg = MCTSConfig(n_rollouts=30, rollout_length=3)
    seen = set()

    def record(agent_pos, goal, kappa):
        if goal is not None and goal[1] - agent_pos[1] == 0.0 and goal[0] != agent_pos[0]:
            seen.add(math.copysign(1.0, goal[1] - agent_pos[1]))
        return goal_prior(agent_pos, goal, kappa)

    def make():
        def predict(timeline, t, k):
            free = np.zeros((world_cfg.grid_h, world_cfg.grid_w), bool)
            return tuple(PredictedFrame(free, (1.0, -0.0 if t % 2 else 0.0)) for _ in range(k))

        return ForwardModel("signed-zero", predict)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(conftest, "goal_prior", record)
        for slots in (1, 2, PRIOR_SLOTS):
            compare_episodes(world_cfg, mcts_cfg, make, episode_seed(43, 0), slots)
    assert seen == {1.0, -1.0}


@settings(max_examples=24, deadline=None)
@given(spec=st.sampled_from(["oracle", "frozen", "velocity"]), k=st.sampled_from([1, 3, 10]),
       slots=st.sampled_from([1, 2, PRIOR_SLOTS]), kappa=st.sampled_from([0.0, 2.0]) | st.floats(0.0, 8.0),
       n_rollouts=st.integers(1, 60), index=st.integers(0, 50))
def test_episodes_match_the_python_planner(spec, k, slots, kappa, n_rollouts, index):
    seed = episode_seed(42, index)
    mcts_cfg = MCTSConfig(n_rollouts=n_rollouts, rollout_length=k, prior_kappa=kappa)
    want = compare_episodes(WorldConfig().for_speed("2x"), mcts_cfg, lambda: model_for(spec, seed), seed, slots)
    assert want.error is None and want.steps > 0


@pytest.mark.parametrize("slots", [1, 2, PRIOR_SLOTS])
def test_zero_kappa_episodes(slots):
    mcts_cfg = MCTSConfig(n_rollouts=40, rollout_length=3, prior_kappa=0.0)
    for i, spec in enumerate(("oracle", "velocity")):
        seed = episode_seed(44, i)
        compare_episodes(WorldConfig().for_speed("2x"), mcts_cfg, lambda: model_for(spec, seed), seed, slots)


def test_an_overflowing_prior_is_never_stored():
    """Every search at a kappa whose exp overflows raises, however often the same offsets come back, and
    a search that raises draws nothing from the planner's generator. At k = 1 the root's prior is the only
    one, so a failed key left in the slot would show as a search that does not raise."""
    table = prior_table(1)
    agent, frames = (10.0, 10.0), tuple(PredictedFrame(np.zeros((48, 48), bool), (5.0, 3.0)) for _ in range(3))
    bad, good = MCTSConfig(prior_kappa=1000.0), MCTSConfig(prior_kappa=2.0)
    root_only = MCTSConfig(prior_kappa=1000.0, rollout_length=1)
    for cfg in (bad, bad, good, bad, root_only, root_only, good, root_only):
        got, want = outcome(search_in, table, 1, agent, frames, cfg, 1.0), outcome(reference_search, agent,
                                                                                   frames, cfg, 1.0)
        assert_same(got, want)
        if cfg.prior_kappa == 1000.0:
            assert got == (OverflowError, "math range error")
    got_rng, want_rng = make_rng(5), make_rng(5)
    for _ in range(3):
        with pytest.raises(OverflowError, match="math range error"):
            plan_action(agent, frames, bad, got_rng, 1.0)
        with pytest.raises(OverflowError, match="math range error"):
            reference_plan(agent, frames, bad, want_rng, 1.0)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert plan_action(agent, frames, good, got_rng, 1.0) == reference_plan(agent, frames, good, want_rng, 1.0)


@pytest.mark.parametrize("slots", [1, 2, PRIOR_SLOTS])
def test_overflow_partway_through_an_episode(slots):
    """At a kappa just past exp's range only the priors of goals within about a degree of an action
    overflow: the episode ends at the first search that meets one, as the Python planner's does."""
    world_cfg = WorldConfig().for_speed("2x")
    mcts_cfg = MCTSConfig(n_rollouts=20, rollout_length=3, prior_kappa=OVERFLOW_KAPPA)
    found = 0
    for i in range(40):
        seed = episode_seed(23, i)
        want = compare_episodes(world_cfg, mcts_cfg, lambda: model_for("oracle", seed), seed, slots)
        if want.error is not None and want.steps > 1:
            assert want.error == "OverflowError: math range error"
            found += 1
            if found == 2:
                break
    assert found == 2


def test_threads_search_and_play_as_one():
    """ctypes lets go of the GIL in a kernel call, so threads search at once, each on its own tables; more
    threads than cores, switching often, give what a serial run gives."""
    frames = tuple(PredictedFrame(make_rng(i).random((48, 48)) < 0.1, (5.0 + i, 3.0)) for i in range(10))
    searches = [((20.0 + i, 40.0), MCTSConfig(n_rollouts=20000, rollout_length=10)) for i in range(6)]

    def search(job):
        agent, cfg = job
        root = run_search(agent, frames, cfg, 1.0)
        return bytes(root._tree.nodes)

    world_cfg, mcts_cfg = WorldConfig().for_speed("2x"), MCTSConfig(n_rollouts=50, rollout_length=10)
    episodes = [(spec, episode_seed(45, i)) for i in range(3) for spec in ("oracle", "frozen", "velocity")]

    def play(job):
        return run_episode(world_cfg, mcts_cfg, *job)

    serial = [search(job) for job in searches], [play(job) for job in episodes]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(min(len(episodes), (os.cpu_count() or 1) + 1)) as pool:
            threaded = (list(pool.map(search, searches, timeout=120)),
                        list(pool.map(play, episodes, timeout=120)))
    finally:
        sys.setswitchinterval(interval)
    assert threaded[0] == serial[0]
    for got, want in zip(threaded[1], serial[1]):
        assert_same_episode(got, want)
