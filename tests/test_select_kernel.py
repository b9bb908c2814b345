"""The kernel's temperature pick against the Python loop it replaced.

``conftest.reference_select`` is the planner's former ``select_by_temperature``
with its draw given. For every draw the kernel (``lanenav_select``, behind
``select_by_temperature`` and ``plan_action``) must pick the same index,
also at each exact value of the normalized cumulative distribution, where one
bit of difference, or ``<`` for ``<=``, moves the pick. Where the loop raised,
the kernel raises the same. ``plan_action`` must leave the generator where
the reference leaves it: one draw after the search, none if the search raises.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_cdf, reference_select
from lanenav.mcts import MAX_ROLLOUTS, MCTSConfig, plan_action, run_search, select_by_temperature
from lanenav.seeding import episode_seed, make_rng
from lanenav.world import PredictedFrame, Timeline, WorldConfig


class Draw:
    """Stands in for the generator: ``random()`` returns the given value."""

    def __init__(self, u: float) -> None:
        self.u = u

    def random(self) -> float:
        return self.u


def outcome(select, *args):
    """The pick, or the (type, message) of the exception ``select`` raised."""
    try:
        return select(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def draws(cdf: list[float]) -> list[float]:
    """0.0, just below 1.0, and each cdf entry with its two neighbours."""
    below_one = math.nextafter(1.0, 0.0)
    near = [v for c in cdf for v in (math.nextafter(c, 0.0), c, math.nextafter(c, 1.0))]
    return [0.0, below_one, *near]


# Zeros, small counts that tie, and counts up to the search's bound.
COUNTS = st.just(0) | st.integers(1, 3) | st.integers(0, MAX_ROLLOUTS) | st.just(MAX_ROLLOUTS)
TEMPERATURES = st.sampled_from([0.01, 1e-3, 1e3, 1.0]) | st.floats(1e-3, 1e3)


@settings(max_examples=400, deadline=None)
@given(visits=st.lists(COUNTS, min_size=8, max_size=8).filter(any), temperature=TEMPERATURES)
def test_pick_matches_reference_at_every_cdf_value(visits, temperature):
    for u in draws(reference_cdf(visits, temperature)):
        assert select_by_temperature(visits, temperature, Draw(u)) == reference_select(visits, temperature, u)


@settings(max_examples=100, deadline=None)
@given(visits=st.lists(COUNTS, min_size=1, max_size=40).filter(any), temperature=TEMPERATURES,
       seed=st.integers(0, 2 ** 32 - 1))
def test_any_length_same_pick_and_one_draw(visits, temperature, seed):
    rng, reference_rng = make_rng(seed), make_rng(seed)
    assert select_by_temperature(visits, temperature, rng) == reference_select(visits, temperature,
                                                                               reference_rng.random())
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@pytest.mark.parametrize("visits, temperature", [
    ([5, 5, 0, 5, 0, 0, 0, 0], 0.01),  # a three-way tie
    ([1] * 8, 1e-3),
    ([MAX_ROLLOUTS] + [0] * 7, 0.01),
    ([0, 0, 0, 0, 0, 0, 0, MAX_ROLLOUTS - 1], 1e3),
    ([3, 7, 0, 1, 0, 2, 0, 0], math.inf),
    ([3, 7, 0, 1, 0, 2, 0, 0], math.nan),
    ([3, 7, 0, 1, 0, 2, 0, 0], -5.0),
    ([0] * 8, 0.01),  # no visits: ZeroDivisionError
    ([0, 1, 0, 0, 0, 0, 0, 0], 0.0),  # ZeroDivisionError
    ([1, 1000, 0, 0, 0, 0, 0, 0], -1e-3),  # exp overflows: OverflowError
])
def test_edges_same_pick_or_error(visits, temperature):
    cdf = outcome(reference_cdf, visits, temperature)
    for u in draws(cdf) if isinstance(cdf, list) else [0.5]:
        assert outcome(select_by_temperature, visits, temperature, Draw(u)) == outcome(
            reference_select, visits, temperature, u)


def test_no_counts_raises_value_error():
    # max()'s own message names the empty argument in words that differ between Python versions.
    with pytest.raises(ValueError):
        reference_select([], 0.01, 0.5)
    with pytest.raises(ValueError, match="empty"):
        select_by_temperature([], 0.01, Draw(0.5))


def test_nan_draw_picks_past_the_end():
    assert select_by_temperature([1, 2, 3], 1.0, Draw(math.nan)) == reference_select([1, 2, 3], 1.0, math.nan) == 3


def reference_plan(agent, frames, cfg, rng, speed):
    root = run_search(agent, frames, cfg, speed)
    return reference_select(root.n, cfg.temperature, rng.random())


@settings(max_examples=60, deadline=None)
@given(index=st.integers(0, 5), t=st.integers(0, 60), k=st.sampled_from([1, 3, 10]),
       n_rollouts=st.sampled_from([1, 7, 100, 400]), temperature=TEMPERATURES, seed=st.integers(0, 2 ** 32 - 1))
def test_plan_action_leaves_the_reference_generator_state(index, t, k, n_rollouts, temperature, seed):
    timeline = Timeline(WorldConfig(), episode_seed(3, index))
    frames = timeline.rollout(t, k)
    cfg = MCTSConfig(n_rollouts=n_rollouts, rollout_length=k, temperature=temperature)
    rng, reference_rng = make_rng(seed), make_rng(seed)
    for _ in range(3):
        assert plan_action(timeline.start, frames, cfg, rng, 1.0) == reference_plan(
            timeline.start, frames, cfg, reference_rng, 1.0)
        assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_search_that_raises_draws_nothing():
    frames = (PredictedFrame(np.zeros((48, 48), bool), (40.0, 7.0)),) * 3
    rng = make_rng(5)
    before = rng.bit_generator.state
    with pytest.raises(OverflowError, match="math range error"):
        plan_action((3.0, 30.0), frames, MCTSConfig(prior_kappa=1000.0), rng, 1.0)
    assert rng.bit_generator.state == before
