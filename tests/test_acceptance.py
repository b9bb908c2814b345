"""Acceptance suite: the benchmark-level exit criteria.

Each test prints one PASS/FAIL line with the measured values. Benchmark
cells run on the default configuration (100 episodes on the default master
seed) and are cached for the whole session, so criteria that share a cell
measure the same run. Everything here is deterministic.
"""
import math
import time

import numpy as np

from lanenav.harness import BenchCell, run_benchmark, run_episode, verify_replay
from lanenav.mcts import MCTSConfig, run_search
from lanenav.models import (
    OracleModel,
    PredictedFrame,
    noisy_sample_predict,
    oracle_predict,
    prediction_error,
    velocity_predict,
    History,
)
from lanenav.seeding import episode_seed, make_rng
from lanenav.world import WorldConfig, clone_state, new_episode, render_frame, world_step

N_EPISODES = 100
WORLD = WorldConfig()
MCTS = MCTSConfig()
NOISY5 = "noisy:0.10,0.02,1.0,5"
NOISY1 = "noisy:0.10,0.02,1.0,1"

_cell_cache: dict[tuple, tuple] = {}


def bench_cell(model: str, speed: str, k: int, parallelism: int = 2):
    """One benchmark cell (cached): returns (BenchRow, wall seconds)."""
    key = (model, speed, k)
    if key not in _cell_cache:
        start = time.perf_counter()
        table = run_benchmark([BenchCell(model, speed, k)], WORLD, MCTS,
                              n_episodes=N_EPISODES, parallelism=parallelism)
        _cell_cache[key] = (table.rows[0], time.perf_counter() - start)
    return _cell_cache[key]


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_oracle_upper_bound():
    rows = {}
    for k in (1, 3):
        row, elapsed = bench_cell("oracle", "2x", k, parallelism=1)
        rows[k] = (row, elapsed)
    ok = all(r.g >= 95 and r.d <= 1 and dt < 60.0 for r, dt in rows.values())
    detail = "; ".join(
        f"k={k}: G={r.g} D={r.d} ({dt:.1f}s)" for k, (r, dt) in rows.items()
    ) + " (need G>=95, D<=1, <60s)"
    report(1, "oracle upper bound, 2x", ok, detail)


def test_criterion_02_random_baseline():
    g2 = bench_cell("none", "2x", 3)[0].g
    g1 = bench_cell("none", "1x", 3)[0].g
    report(2, "random baseline", g2 <= 5 and g1 <= 2,
           f"G(2x)={g2} (<=5), G(1x)={g1} (<=2)")


def test_criterion_03_model_quality_ordering():
    g = {
        "oracle": bench_cell("oracle", "2x", 3)[0].g,
        "velocity": bench_cell("velocity", "2x", 3)[0].g,
        "noisy5": bench_cell(NOISY5, "2x", 3)[0].g,
        "frozen": bench_cell("frozen", "2x", 3)[0].g,
        "random": bench_cell("none", "2x", 3)[0].g,
    }
    ordered = g["oracle"] >= g["velocity"] >= g["noisy5"] >= g["frozen"] >= g["random"]
    gap = g["oracle"] - g["random"]
    report(3, "model-quality ordering, 2x k=3", ordered and gap >= 50,
           f"G: {g} (need monotone, oracle-random>={50}, gap={gap})")


def test_criterion_04_sample_aggregation():
    # FN survival through the 5-sample union at p_fn=0.10
    rng = make_rng(1234)
    fn = occupied = 0
    seed_base = 50_000
    i = 0
    while occupied < 100_000:
        state = new_episode(WORLD, episode_seed(WORLD.master_seed, seed_base + i))
        truth = oracle_predict(state, 3)
        noisy = noisy_sample_predict(state, 3, n_samples=5, p_fn=0.10, p_fp=0.02,
                                     goal_sigma=1.0, rng=rng)
        for got, want in zip(noisy, truth):
            fn += int((want.occupancy & ~got.occupancy).sum())
            occupied += int(want.occupancy.sum())
        i += 1
    rate = fn / occupied
    expected = 0.10 ** 5
    rate_ok = abs(rate - expected) <= 0.005

    d5 = bench_cell(NOISY5, "2x", 3)[0].d
    d1 = bench_cell(NOISY1, "2x", 3)[0].d
    report(4, "pixel-wise max aggregation", rate_ok and d5 <= d1,
           f"FN rate={rate:.6f} vs {expected:.6f} +-0.005 over {occupied} cells; "
           f"D(n=5)={d5} <= D(n=1)={d1}")


def test_criterion_05_speed_effect():
    pairs = {}
    for k in (1, 3, 5, 10):
        g2 = bench_cell("oracle", "2x", k)[0].g
        g1 = bench_cell("oracle", "1x", k)[0].g
        pairs[k] = (g2, g1)
    ok = all(g2 > g1 for g2, g1 in pairs.values())
    report(5, "2x beats 1x at every horizon", ok,
           "; ".join(f"k={k}: {g2}>{g1}" for k, (g2, g1) in pairs.items()))


def test_criterion_06_oracle_exactness():
    worst_fn = worst_fp = 0
    worst_goal = 0.0
    pairs = 0
    rng = make_rng(99)
    state_index = 0
    while pairs < 1000:
        state = new_episode(WORLD, episode_seed(WORLD.master_seed, 10_000 + state_index))
        for _ in range(int(rng.integers(0, 30))):
            world_step(state)
        for _ in range(5):
            k = int(rng.integers(1, 11))
            rollout = oracle_predict(state, k)
            truth = clone_state(state)
            for j in range(k):
                world_step(truth)
                err = prediction_error(rollout[j], render_frame(truth))
                worst_fn = max(worst_fn, err.fn_count)
                worst_fp = max(worst_fp, err.fp_count)
                worst_goal = max(worst_goal, err.goal_err)
            pairs += 1
        state_index += 1
    report(6, "oracle exactness over 1000 state/k pairs",
           worst_fn == 0 and worst_fp == 0 and worst_goal == 0.0,
           f"max FN={worst_fn}, max FP={worst_fp}, max goal err={worst_goal}")


def test_criterion_07_horizon_degradation():
    fn_by_step = np.zeros(10)
    for i in range(100):
        state = new_episode(WORLD, episode_seed(WORLD.master_seed, 20_000 + i))
        frames = [render_frame(state)]
        for _ in range(3):
            world_step(state)
            frames.append(render_frame(state))
        history = History(tuple(frames))
        predicted = velocity_predict(history, 10)
        truth = oracle_predict(state, 10)
        for j in range(10):
            fn_by_step[j] += int((truth[j].occupancy
                                  & ~predicted[j].occupancy).sum())
    fn_by_step /= 100
    report(7, "velocity-model error grows with horizon",
           fn_by_step[9] > fn_by_step[0],
           f"mean FN: step1={fn_by_step[0]:.2f} ... step10={fn_by_step[9]:.2f}")


def test_criterion_08_determinism_and_replay():
    records = [
        run_episode(WORLD, MCTS, spec, episode_seed(WORLD.master_seed, i))
        for i, spec in enumerate(["oracle", "velocity", NOISY5, "frozen", "none"])
    ]
    replays_ok = all(verify_replay(r) for r in records)

    cells = [BenchCell("oracle", "2x", 1), BenchCell("velocity", "2x", 3)]
    serial = run_benchmark(cells, WORLD, MCTS, n_episodes=10, parallelism=1)
    parallel = run_benchmark(cells, WORLD, MCTS, n_episodes=10, parallelism=8)
    csv_ok = serial.to_csv() == parallel.to_csv()
    report(8, "replay fidelity and parallel determinism", replays_ok and csv_ok,
           f"replays={replays_ok}, csv parallelism 1 vs 8 identical={csv_ok}")


def test_criterion_09_statistical_properties():
    state = new_episode(WORLD, episode_seed(WORLD.master_seed, 30_000))
    state.spawn_draws = 0
    steps = 100_000
    for _ in range(steps):
        world_step(state)
    expected = len(WORLD.lane_rows) * WORLD.level * WORLD.spawn_base_rate
    rate = state.spawn_draws / steps
    rate_ok = abs(rate - expected) <= 0.02 * expected

    state = new_episode(WORLD, episode_seed(WORLD.master_seed, 30_001))
    drift = 0.0
    for _ in range(10_000):
        world_step(state)
        drift = max(drift, abs(math.hypot(state.goal.vx, state.goal.vy) - WORLD.goal_speed))
    goal_ok = drift <= 1e-9

    rng = make_rng(5)
    conserved = True
    for _ in range(1000):
        occ = rng.random((48, 48)) < 0.25
        occ.flags.writeable = False
        goal = (float(rng.integers(48)), float(rng.integers(48)))
        frames = tuple(PredictedFrame(occupancy=occ, goal_estimate=goal) for _ in range(2))
        root = run_search((24.0, 24.0), frames, MCTSConfig(rollout_length=2), agent_speed=1.0)
        conserved &= sum(root.n) == MCTSConfig().n_rollouts
    report(9, "statistical properties",
           rate_ok and goal_ok and conserved,
           f"spawn rate {rate:.4f} vs {expected:.4f} (+-2%); goal speed drift {drift:.2e}; "
           f"visit conservation over 1000 searches={conserved}")


def test_criterion_10_model_call_economy():
    world = WorldConfig(max_steps=60)
    ratios = {}
    for n_rollouts in (1, 100, 1000):
        model = OracleModel()
        cfg = MCTSConfig(n_rollouts=n_rollouts, rollout_length=3)
        record = run_episode(world, cfg, model, episode_seed(world.master_seed, 7))
        assert record.error is None
        ratios[n_rollouts] = model.calls / record.steps
    report(10, "one rollout generation per decision", set(ratios.values()) == {1.0},
           f"calls per decision by n_rollouts: {ratios}")


def test_reported_oracle_step_count_range():
    # reference table puts the fast oracle agent at 34 +- 17 steps for k=1;
    # the reimplemented world should land in the same regime
    row, _ = bench_cell("oracle", "2x", 1)
    assert row.s_mean is not None
    assert 20.0 <= row.s_mean <= 60.0, f"S mean {row.s_mean:.1f} outside [20, 60]"
