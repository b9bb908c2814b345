import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lanenav.mcts import (
    MAX_ROLLOUT_LENGTH,
    MAX_ROLLOUTS,
    MCTSConfig,
    goal_prior,
    plan_action,
    run_search,
    select_by_temperature,
)
from lanenav.models import PredictedFrame, oracle_predict
from lanenav.seeding import make_rng
from lanenav.world import ConfigError, WorldConfig, action_to_velocity, move, new_episode, round_px


def rollout_from_masks(masks, goals=None) -> tuple[PredictedFrame, ...]:
    steps = []
    for i, mask in enumerate(masks):
        goal = goals[i] if goals is not None else None
        occ = np.asarray(mask, dtype=bool)
        occ.flags.writeable = False
        steps.append(PredictedFrame(occupancy=occ, goal_estimate=goal))
    return tuple(steps)


def empty_rollout(k, goal=None, h=48, w=48):
    return rollout_from_masks([np.zeros((h, w), bool)] * k, [goal] * k if goal else None)


def reference_goal_prior(agent, goal, kappa):
    """goal_prior as a plain loop: the weights in action order, then their left-fold total."""
    if goal is None or (goal[0] - agent[0] == 0.0 and goal[1] - agent[1] == 0.0):
        return [0.125] * 8
    theta = math.atan2(goal[1] - agent[1], goal[0] - agent[0])
    weights = [math.exp(kappa * math.cos(a * math.pi / 4.0 - theta)) for a in range(8)]
    total = 0.0
    for weight in weights:
        total += weight
    return [weight / total for weight in weights]


def reference_temperature_cdf(visits, temperature):
    """select_by_temperature's normalized cumulative distribution, as a plain loop."""
    logs = [math.log(v) if v > 0 else -math.inf for v in visits]
    top = max(logs)
    weights = [math.exp((l - top) / temperature) if l > -math.inf else 0.0 for l in logs]
    total = 0.0
    for weight in weights:
        total += weight
    cdf = []
    running = 0.0
    for weight in weights:
        running += weight / total
        cdf.append(running)
    return [c / cdf[-1] for c in cdf]


class FixedDraw:
    """Stands in for the generator: ``random()`` returns the given value."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestGoalPrior:
    def test_zero_kappa_uniform(self):
        prior = goal_prior((10.0, 10.0), (20.0, 10.0), 0.0)
        assert prior == pytest.approx([0.125] * 8)

    def test_absent_goal_uniform(self):
        assert goal_prior((10.0, 10.0), None, 2.0) == pytest.approx([0.125] * 8)

    def test_coincident_goal_uniform(self):
        assert goal_prior((10.0, 10.0), (10.0, 10.0), 2.0) == pytest.approx([0.125] * 8)

    def test_due_east_ordering(self):
        p = goal_prior((10.0, 10.0), (30.0, 10.0), 2.0)
        assert max(range(8), key=lambda a: p[a]) == 0
        assert p[1] == pytest.approx(p[7])
        assert p[2] == pytest.approx(p[6])
        assert p[3] == pytest.approx(p[5])
        assert p[0] > p[1] > p[2] > p[3] > p[4]

    def test_northeast_symmetry(self):
        # grid northeast (+x, -y) is action 7's direction
        p = goal_prior((10.0, 10.0), (15.0, 5.0), 2.0)
        assert max(range(8), key=lambda a: p[a]) == 7
        assert p[0] == pytest.approx(p[6])

    def test_normalized(self):
        assert sum(goal_prior((3.0, 4.0), (40.0, 31.0), 3.7)) == pytest.approx(1.0)

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            goal_prior((0.0, 0.0), (1.0, 1.0), -0.1)

    @given(
        agent=st.tuples(st.floats(0.0, 47.0), st.floats(0.0, 47.0)),
        goal=st.none() | st.tuples(st.floats(-5.0, 52.0), st.floats(-5.0, 52.0)),
        kappa=st.floats(0.0, 8.0),
    )
    def test_bits_match_loop_reference(self, agent, goal, kappa):
        # Exact equality: the same bits on every Python version.
        assert goal_prior(agent, goal, kappa) == reference_goal_prior(agent, goal, kappa)

    @given(
        scale=st.floats(0.01, 100.0),
        ax=st.floats(-20.0, 20.0),
        ay=st.floats(-20.0, 20.0),
        gx=st.floats(-20.0, 20.0),
        gy=st.floats(-20.0, 20.0),
    )
    def test_scale_invariance(self, scale, ax, ay, gx, gy):
        if (ax, ay) == (gx, gy):
            return
        base = goal_prior((ax, ay), (gx, gy), 2.0)
        scaled = goal_prior((ax * scale, ay * scale), (gx * scale, gy * scale), 2.0)
        assert base == pytest.approx(scaled, abs=1e-9)


def landing_pixels(agent, speed, size=48):
    """Pixel each action lands on from ``agent``, clamped like the world."""
    pixels = []
    for a in range(8):
        dx, dy = action_to_velocity(a, speed)
        px = round_px(min(max(agent[0] + dx, 0.0), size - 1.0))
        py = round_px(min(max(agent[1] + dy, 0.0), size - 1.0))
        pixels.append((px, py))
    return pixels


def reference_bandit(arm_values, prior, c_puct, n_rollouts):
    """Plain PUCT over one level: argmax Q + c * P * sqrt(N) / (1 + N(a)).

    With no visits the exploration scale is 1; ties go to the lowest index.
    """
    n = [0] * 8
    w = [0.0] * 8
    for _ in range(n_rollouts):
        total = sum(n)
        scale = math.sqrt(total) if total > 0 else 1.0
        best_action, best_value = 0, -math.inf
        for a in range(8):
            q = w[a] / n[a] if n[a] else 0.0
            value = q + c_puct * prior[a] * scale / (1 + n[a])
            if value > best_value:
                best_action, best_value = a, value
        n[best_action] += 1
        w[best_action] += arm_values[best_action]
    return n, w


def walk(root):
    todo = [root]
    while todo:
        node = todo.pop()
        yield node
        todo.extend(c for c in node.children if c is not None)


class TestPuctSelect:
    """The PUCT rule as seen through run_search: at k = 1 the root is a bandit."""

    def test_all_unvisited_returns_prior_argmax(self):
        agent, goal = (20.0, 20.0), (22.0, 35.0)
        prior = goal_prior(agent, goal, 2.0)
        root = run_search(agent, empty_rollout(1, goal=goal), MCTSConfig(n_rollouts=1, rollout_length=1),
                          agent_speed=1.0)
        assert prior.index(max(prior)) == 2
        assert root.n == [0, 0, 1, 0, 0, 0, 0, 0]

    def test_avoids_visited_loser(self):
        agent = (20.0, 20.0)
        occ = np.zeros((48, 48), dtype=bool)
        px, py = landing_pixels(agent, 1.0)[0]
        occ[py, px] = True
        root = run_search(agent, rollout_from_masks([occ]), MCTSConfig(n_rollouts=2, rollout_length=1),
                          agent_speed=1.0)
        assert root.n == [1, 1, 0, 0, 0, 0, 0, 0]  # the death at 0, then the first unvisited

    def test_hand_computed_example(self):
        # Uniform prior, c * P = 0.175, action 0 lethal. Rollouts 1-8 take the
        # unvisited actions in order (0.175 * scale beats any visited edge).
        # Rollout 9, scale sqrt(8): action 0 scores -20 + 0.175 * 2.83 / 2,
        # actions 1..7 score 0 + 0.175 * 2.83 / 2, and the tie goes to 1.
        agent = (20.0, 20.0)
        occ = np.zeros((48, 48), dtype=bool)
        px, py = landing_pixels(agent, 1.0)[0]
        occ[py, px] = True
        root = run_search(agent, rollout_from_masks([occ]), MCTSConfig(n_rollouts=9, rollout_length=1),
                          agent_speed=1.0)
        assert root.n == [1, 2, 1, 1, 1, 1, 1, 1]
        assert root.w == [-20.0] + [0.0] * 7

    def test_tie_goes_to_lowest_index(self):
        root = run_search((20.0, 20.0), empty_rollout(1), MCTSConfig(n_rollouts=1, rollout_length=1),
                          agent_speed=1.0)
        assert root.n == [1, 0, 0, 0, 0, 0, 0, 0]

    def test_equal_values_visit_every_action_in_order(self):
        root = run_search((20.0, 20.0), empty_rollout(1), MCTSConfig(n_rollouts=8, rollout_length=1),
                          agent_speed=1.0)
        assert root.n == [1] * 8

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_reference_bandit(self, seed):
        rng = make_rng(seed)
        agent = (float(rng.integers(5, 43)), float(rng.integers(5, 43)))
        goal = (float(rng.integers(48)), float(rng.integers(48)))
        occ = rng.random((48, 48)) < 0.4
        cfg = MCTSConfig(n_rollouts=int(rng.integers(1, 150)), rollout_length=1,
                         c_puct=float(rng.uniform(0.1, 3.0)))
        rollout = rollout_from_masks([occ], goals=[goal])
        x0, y0 = round_px(goal[0] - 0.5), round_px(goal[1] - 0.5)
        values = []
        for px, py in landing_pixels(agent, 1.0):
            if x0 <= px <= x0 + 1 and y0 <= py <= y0 + 1:
                values.append(20.0)
            else:
                values.append(-20.0 if occ[py, px] else 0.0)
        n, w = reference_bandit(values, goal_prior(agent, goal, 2.0), cfg.c_puct, cfg.n_rollouts)
        root = run_search(agent, rollout, cfg, agent_speed=1.0)
        assert root.n == n
        assert root.w == w


class TestBackup:
    """Every edge on a rollout's path gets one visit and the rollout value."""

    def test_single_edge_death(self):
        occ = np.ones((48, 48), dtype=bool)
        root = run_search((10.0, 10.0), rollout_from_masks([occ]),
                          MCTSConfig(n_rollouts=1, rollout_length=1), agent_speed=1.0)
        assert root.n == [1, 0, 0, 0, 0, 0, 0, 0]
        assert root.w[0] == -20.0
        assert root.q(0) == -20.0

    def test_two_opposite_values_cancel(self):
        # Only east (E) survives depth 1; from E, east is the goal and
        # southeast is lethal at depth 2. With a uniform prior and c = 400
        # (c * P = 50) rollouts 1-8 try every root action, rollout 9 goes
        # E -> east (+20) and rollout 10 goes E -> southeast (-20): the first
        # unvisited action scores 50 at E against 20 + 50 / 2 for east.
        agent = (10.0, 10.0)
        depth1 = np.ones((48, 48), dtype=bool)
        depth1[10, 11] = False
        depth2 = np.zeros((48, 48), dtype=bool)
        depth2[11, 12] = True
        rollout = rollout_from_masks([depth1, depth2], goals=[None, (12.5, 9.5)])
        cfg = MCTSConfig(n_rollouts=10, rollout_length=2, c_puct=400.0, prior_kappa=0.0)
        root = run_search(agent, rollout, cfg, agent_speed=1.0)
        east = root.children[0]
        assert east.n[:2] == [1, 1] and east.w[:2] == [20.0, -20.0]
        assert root.n[0] == 3  # the expansion (leaf value 0), +20 and -20
        assert root.w[0] == 0.0
        assert root.q(0) == 0.0

    def test_repeated_value_keeps_q(self):
        occ = np.ones((48, 48), dtype=bool)
        root = run_search((10.0, 10.0), rollout_from_masks([occ]),
                          MCTSConfig(n_rollouts=9, rollout_length=1), agent_speed=1.0)
        assert root.n == [2, 1, 1, 1, 1, 1, 1, 1]
        for a in range(8):
            assert root.w[a] == -20.0 * root.n[a]
            assert root.q(a) == -20.0

    def test_path_updates_every_edge(self):
        rng = make_rng(3)
        masks = [rng.random((48, 48)) < 0.3 for _ in range(4)]
        rollout = rollout_from_masks(masks, goals=[(30.0, 12.0)] * 4)
        root = run_search((20.0, 20.0), rollout, MCTSConfig(rollout_length=4), agent_speed=1.0)
        for node in walk(root):
            for a, child in enumerate(node.children):
                if child is None:
                    assert node.n[a] == 0
                elif child.terminal_value is None and child.depth < 4:
                    # the rollout that expanded the child ended there, with leaf value 0
                    assert sum(child.n) == node.n[a] - 1
                    assert node.w[a] == sum(child.w)
                else:
                    assert node.w[a] == (child.terminal_value or 0.0) * node.n[a]

    def test_goal_value_reaches_root(self):
        # the goal block sits two steps east: east-then-east backs up +20
        rollout = empty_rollout(2, goal=(12.0, 10.0))
        root = run_search((10.0, 10.0), rollout, MCTSConfig(rollout_length=2), agent_speed=1.0)
        east = root.children[0]
        assert east.children[0].terminal_value == 20.0
        assert east.w[0] == 20.0 * east.n[0] > 0
        assert root.w[0] == sum(east.w)


@st.composite
def search_inputs(draw):
    size = draw(st.sampled_from((8, 16, 48)))
    k = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    density = draw(st.floats(0.0, 0.7))
    rng = make_rng(seed)
    masks = [rng.random((size, size)) < density for _ in range(k)]
    coord = st.floats(0.0, size - 1.0)
    goals = [draw(st.one_of(st.none(), st.tuples(coord, coord))) for _ in range(k)]
    agent = (draw(coord), draw(coord))
    cfg = MCTSConfig(
        n_rollouts=draw(st.integers(1, 80)),
        rollout_length=k,
        c_puct=draw(st.floats(0.0, 4.0)),
        prior_kappa=draw(st.floats(0.0, 4.0)),
        death_value=draw(st.floats(-30.0, -1.0)),
        goal_value=draw(st.floats(1.0, 30.0)),
        shaping_beta=draw(st.floats(0.0, 1.0)),
    )
    speed = draw(st.sampled_from((0.5, 1.0)))
    return agent, rollout_from_masks(masks, goals=goals), cfg, speed


class TestSearchProperties:
    @given(search_inputs())
    def test_visit_conservation(self, inputs):
        agent, rollout, cfg, speed = inputs
        root = run_search(agent, rollout, cfg, agent_speed=speed)
        assert sum(root.n) == cfg.n_rollouts

    @given(search_inputs())
    def test_q_within_death_and_goal_values(self, inputs):
        agent, rollout, cfg, speed = inputs
        root = run_search(agent, rollout, cfg, agent_speed=speed)
        # The mean of n equal values can round one ulp past that value.
        lo = cfg.death_value * (1 + 1e-12)
        hi = cfg.goal_value * (1 + 1e-12)
        for node in walk(root):
            for a in range(8):
                if node.n[a]:
                    assert lo <= node.q(a) <= hi

    @given(search_inputs())
    def test_terminal_children_never_descended_into(self, inputs):
        agent, rollout, cfg, speed = inputs
        root = run_search(agent, rollout, cfg, agent_speed=speed)
        for node in walk(root):
            if node.terminal_value is not None or node.depth >= cfg.rollout_length:
                assert sum(node.n) == 0
                assert all(c is None for c in node.children)
            if node.terminal_value is not None:
                assert node.terminal_value in (cfg.death_value, cfg.goal_value)


def edge_coords(hi: float):
    """Coordinates on, next to and past both edges of the axis [0, hi]."""
    return st.sampled_from([-1.0, -0.5, -1e-9, 0.0, 1e-9, 0.5, 0.7, hi - 0.7, hi - 1e-9, hi,
                            hi + 1e-9, hi + 0.5, hi + 2.0]) | st.floats(-2.0, hi + 2.0)


@given(x=edge_coords(47.0), y=edge_coords(29.0), speed=st.sampled_from([0.5, 1.0]))
def test_search_children_move_like_the_world(x, y, speed):
    # With a uniform prior and k = 1, eight rollouts expand each root action
    # once. The grid is 48 wide and 30 high, so a swapped axis shows.
    root = run_search((x, y), empty_rollout(1, h=30), MCTSConfig(n_rollouts=8, rollout_length=1),
                      agent_speed=speed)
    for a in range(8):
        child = root.children[a]
        assert (child.x, child.y) == move(x, y, a, speed, 47.0, 29.0)


class TestPlanAction:
    def test_single_safe_action_chosen(self):
        # all 8 landing pixels lethal except one; brute-force the safe one
        agent = (10.0, 10.0)
        speed = 1.0
        occ = np.ones((48, 48), dtype=bool)
        destinations = []
        for a in range(8):
            dx, dy = action_to_velocity(a, speed)
            destinations.append((round_px(agent[0] + dx), round_px(agent[1] + dy)))
        safe_action = 5
        occ[destinations[safe_action][1], destinations[safe_action][0]] = False
        rollout = rollout_from_masks([occ])
        cfg = MCTSConfig(rollout_length=1)
        action = plan_action(agent, rollout, cfg, make_rng(0), agent_speed=speed)
        assert action == safe_action

    def test_goal_due_east_no_obstacles(self):
        # exhaustive depth-2 check: only east-then-east reaches the goal block
        agent = (10.0, 10.0)
        goal = (12.0, 10.0)
        cfg = MCTSConfig(rollout_length=2)
        rollout = empty_rollout(2, goal=goal)
        best = set()
        best_value = -math.inf
        for seq in itertools.product(range(8), repeat=2):
            x, y = agent
            value = 0.0
            for d, a in enumerate(seq):
                dx, dy = action_to_velocity(a, 1.0)
                x, y = x + dx, y + dy
                px, py = round_px(x), round_px(y)
                gx, gy = rollout[d].goal_estimate
                x0, y0 = round_px(gx - 0.5), round_px(gy - 0.5)
                if x0 <= px <= x0 + 1 and y0 <= py <= y0 + 1:
                    value = 20.0
                    break
            if value > best_value:
                best_value = value
                best = {seq[0]}
            elif value == best_value:
                best.add(seq[0])
        assert best_value == 20.0

        root = run_search(agent, rollout, cfg, agent_speed=1.0)
        chosen = int(np.argmax(root.n))
        assert chosen in best
        assert chosen == 0

    def test_all_lethal_still_returns_action(self):
        occ = np.ones((48, 48), dtype=bool)
        rollout = rollout_from_masks([occ])
        cfg = MCTSConfig(rollout_length=1)
        action = plan_action((10.0, 10.0), rollout, cfg, make_rng(0), agent_speed=1.0)
        assert 0 <= action < 8

    def test_visit_conservation(self):
        rng = make_rng(5)
        for n_rollouts in (1, 13, 100):
            occ = rng.random((48, 48)) < 0.2
            rollout = rollout_from_masks([occ] * 3, goals=[(30.0, 30.0)] * 3)
            cfg = MCTSConfig(n_rollouts=n_rollouts, rollout_length=3)
            root = run_search((10.0, 10.0), rollout, cfg, agent_speed=1.0)
            assert sum(root.n) == n_rollouts

    def test_q_bounds(self):
        rng = make_rng(6)
        for _ in range(20):
            masks = [rng.random((48, 48)) < 0.3 for _ in range(3)]
            rollout = rollout_from_masks(masks, goals=[(24.0, 24.0)] * 3)
            cfg = MCTSConfig(rollout_length=3)
            root = run_search((20.0, 20.0), rollout, cfg, agent_speed=1.0)
            for a in range(8):
                assert -20.0 <= root.q(a) <= 20.0

    def test_depth1_safety_with_oracle(self):
        # when any depth-1 pixel is safe, the chosen action's pixel is safe
        world_cfg = WorldConfig()
        cfg = MCTSConfig(rollout_length=1)
        for seed in range(50):
            state = new_episode(world_cfg, seed)
            rollout = oracle_predict(state, 1)
            occ = rollout[0].occupancy
            agent = state.start
            safe = []
            for a in range(8):
                dx, dy = action_to_velocity(a, world_cfg.agent_speed)
                px = round_px(min(max(agent[0] + dx, 0.0), 47.0))
                py = round_px(min(max(agent[1] + dy, 0.0), 47.0))
                if not occ[py, px]:
                    safe.append(a)
            if not safe:
                continue
            action = plan_action(agent, rollout, cfg, make_rng(seed),
                                 agent_speed=world_cfg.agent_speed)
            assert action in safe

    def test_deterministic_given_seed(self):
        rng_master = make_rng(8)
        for trial in range(10):
            masks = [rng_master.random((48, 48)) < 0.25 for _ in range(3)]
            goals = [(float(rng_master.integers(48)), float(rng_master.integers(48)))] * 3
            rollout = rollout_from_masks(masks, goals=goals)
            cfg = MCTSConfig(rollout_length=3, temperature=1.0)
            first = plan_action((20.0, 20.0), rollout, cfg, make_rng(trial), agent_speed=1.0)
            second = plan_action((20.0, 20.0), rollout, cfg, make_rng(trial), agent_speed=1.0)
            assert first == second

    def test_rollout_too_short(self):
        cfg = MCTSConfig(rollout_length=3)
        with pytest.raises(ValueError):
            plan_action((10.0, 10.0), empty_rollout(2), cfg, make_rng(0), agent_speed=1.0)

    def test_empty_rollout(self):
        cfg = MCTSConfig(rollout_length=1)
        with pytest.raises(ValueError):
            plan_action((10.0, 10.0), (), cfg, make_rng(0), agent_speed=1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MCTSConfig(temperature=0.0).validate()
        with pytest.raises(ValueError):
            MCTSConfig(n_rollouts=0).validate()


class TestConfigValidation:
    REAL_FIELDS = ("temperature", "c_puct", "prior_kappa", "death_value", "goal_value", "shaping_beta")

    @pytest.mark.parametrize("field", REAL_FIELDS)
    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_non_finite_rejected(self, field, bad):
        with pytest.raises(ValueError, match=field):
            MCTSConfig(**{field: bad}).validate()

    def test_negative_c_puct_rejected(self):
        with pytest.raises(ValueError, match="c_puct"):
            MCTSConfig(c_puct=-1.0).validate()

    def test_zero_c_puct_accepted(self):
        MCTSConfig(c_puct=0.0).validate()

    @pytest.mark.parametrize("field, bound", [("n_rollouts", MAX_ROLLOUTS), ("rollout_length", MAX_ROLLOUT_LENGTH)])
    def test_size_bound_at_limit_and_one_past(self, field, bound):
        assert getattr(MCTSConfig(**{field: bound}), field) == bound
        with pytest.raises(ConfigError, match=f"^{field} must be <= {bound}, got {bound + 1}$"):
            MCTSConfig(**{field: bound + 1})

    def test_search_rejects_bad_config(self):
        with pytest.raises(ValueError):
            run_search((10.0, 10.0), empty_rollout(1), MCTSConfig(rollout_length=1, death_value=math.inf),
                       agent_speed=1.0)


class TestTemperature:
    def test_low_temperature_is_argmax(self):
        visits = [10, 55, 0, 5, 0, 0, 30, 0]
        for seed in range(20):
            assert select_by_temperature(visits, 0.01, make_rng(seed)) == 1

    def test_high_temperature_spreads(self):
        visits = [50, 50, 0, 0, 0, 0, 0, 0]
        picks = {select_by_temperature(visits, 10.0, make_rng(s)) for s in range(40)}
        assert picks <= {0, 1}
        assert len(picks) == 2

    @given(
        visits=st.lists(st.integers(0, 300), min_size=8, max_size=8).filter(any),
        temperature=st.floats(0.005, 20.0),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_same_draw_as_numpy_choice(self, visits, temperature, seed):
        logs = [math.log(v) if v > 0 else -math.inf for v in visits]
        top = max(logs)
        weights = [math.exp((l - top) / temperature) if l > -math.inf else 0.0 for l in logs]
        probs = np.array([w / sum(weights) for w in weights])
        numpy_rng, rng = make_rng(seed), make_rng(seed)
        assert select_by_temperature(visits, temperature, rng) == int(numpy_rng.choice(8, p=probs))
        assert rng.random() == numpy_rng.random()  # one draw consumed by both

    @given(
        visits=st.lists(st.integers(0, 300), min_size=8, max_size=8).filter(any),
        temperature=st.floats(0.005, 20.0),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_pick_matches_loop_reference(self, visits, temperature, seed):
        # Draws on the reference's own cdf values pick differently if one bit
        # of the distribution differs.
        cdf = reference_temperature_cdf(visits, temperature)
        for u in [make_rng(seed).random(), *(c for c in cdf if c < 1.0)]:
            expected = sum(1 for c in cdf if c <= u)
            assert select_by_temperature(visits, temperature, FixedDraw(u)) == expected

    def test_zero_visit_actions_never_picked(self):
        visits = [0, 3, 0, 0, 0, 0, 0, 0]
        for seed in range(10):
            assert select_by_temperature(visits, 5.0, make_rng(seed)) == 1
