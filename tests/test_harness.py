import concurrent.futures
import multiprocessing
import traceback
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import frames_equal, move, outcome_at
from lanenav import harness, seeding
from lanenav.harness import (
    MAX_EPISODES,
    MAX_PARALLELISM,
    BenchCell,
    BenchRow,
    BenchTable,
    StepRecord,
    _bench_row,
    run_benchmark,
    run_episode,
    verify_replay,
)
from lanenav.mcts import MCTSConfig
from lanenav.models import ForwardModel, build_model, model_label
from lanenav.seeding import episode_seed
from lanenav.world import ConfigError, Outcome, Timeline, WorldConfig

FAST_WORLD = WorldConfig(max_steps=60)
SMALL_MCTS = MCTSConfig(n_rollouts=20, rollout_length=1)


class TestRunEpisode:
    def test_terminates_with_outcome(self):
        record = run_episode(FAST_WORLD, SMALL_MCTS, "oracle", episode_seed(1, 0))
        assert record.outcome.kind in ("goal", "died", "timeout")
        assert record.error is None
        assert record.steps == len(record.trace)
        assert record.steps <= FAST_WORLD.max_steps

    @pytest.mark.parametrize("spec", ["oracle", "frozen", "none"])
    def test_same_seed_same_record(self, spec):
        a = run_episode(FAST_WORLD, SMALL_MCTS, spec, episode_seed(2, 1))
        b = run_episode(FAST_WORLD, SMALL_MCTS, spec, episode_seed(2, 1))
        assert a.trace == b.trace
        assert a.outcome == b.outcome

    def test_keep_frames(self):
        record = run_episode(FAST_WORLD, SMALL_MCTS, "oracle", episode_seed(3, 0),
                             keep_frames=True)
        assert record.frames is not None
        assert len(record.frames) == record.steps + 1

    def test_random_agent_needs_no_model(self):
        record = run_episode(FAST_WORLD, SMALL_MCTS, "none", episode_seed(3, 1))
        assert record.model_name == "random"

    def test_action_independence_across_models(self):
        a = run_episode(FAST_WORLD, SMALL_MCTS, "oracle", episode_seed(4, 2), keep_frames=True)
        b = run_episode(FAST_WORLD, SMALL_MCTS, "frozen", episode_seed(4, 2), keep_frames=True)
        for fa, fb in zip(a.frames, b.frames):
            assert frames_equal(fa, fb)

    def test_model_instance_accepted(self):
        model = build_model("oracle", episode_seed(5, 0))
        record = run_episode(FAST_WORLD, SMALL_MCTS, model, episode_seed(5, 0))
        assert record.model_name == "oracle"
        assert model.calls == record.steps

    def test_model_calls_independent_of_rollout_count(self):
        # the shared-rollout economy: one generation per decision
        counts = {}
        for n_rollouts in (1, 100, 1000):
            model = build_model("oracle", episode_seed(6, 0))
            cfg = MCTSConfig(n_rollouts=n_rollouts, rollout_length=3)
            record = run_episode(FAST_WORLD, cfg, model, episode_seed(6, 0))
            assert model.calls == record.steps
            counts[n_rollouts] = model.calls / record.steps
        assert set(counts.values()) == {1.0}

    def test_model_error_becomes_diagnostic_record(self):
        def explode(timeline, t, k):
            raise RuntimeError("synthetic failure")

        record = run_episode(FAST_WORLD, SMALL_MCTS, ForwardModel("boom", explode), episode_seed(7, 0))
        assert record.error is not None
        assert "synthetic failure" in record.error
        assert record.outcome.kind == "running"


class TestReplay:
    @pytest.mark.parametrize("spec", ["oracle", "velocity", "none"])
    def test_replay_matches(self, spec):
        record = run_episode(FAST_WORLD, SMALL_MCTS, spec, episode_seed(8, 0))
        assert verify_replay(record)

    def test_replay_detects_tampering(self):
        record = run_episode(FAST_WORLD, SMALL_MCTS, "oracle", episode_seed(8, 1))
        step = record.trace[-1]
        record.trace[-1] = StepRecord(step.t, step.agent_x, step.agent_y,
                                      step.action, step.reward + 1.0, step.outcome)
        assert not verify_replay(record)

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_replay_detects_tampered_position(self, axis):
        record = run_episode(FAST_WORLD, SMALL_MCTS, "oracle", episode_seed(8, 1))
        i = len(record.trace) // 2
        step = record.trace[i]
        dx, dy = (1e-9, 0.0) if axis == "x" else (0.0, 1e-9)
        record.trace[i] = StepRecord(step.t, step.agent_x + dx, step.agent_y + dy,
                                     step.action, step.reward, step.outcome)
        assert not verify_replay(record)

    def test_replay_rejects_a_step_after_the_end(self):
        record = next(r for r in (run_episode(FAST_WORLD, SMALL_MCTS, "none", episode_seed(0, i))
                                  for i in range(50)) if r.outcome.kind == "died")
        assert verify_replay(record)
        # One more step, exactly as the world would play it on, and the record
        # claims its outcome: only the terminal step before it is wrong.
        last, t = record.trace[-1], record.trace[-1].t + 1
        x, y = move(last.agent_x, last.agent_y, 0, FAST_WORLD.agent_speed, 47.0, 47.0)
        outcome = outcome_at(Timeline(FAST_WORLD, record.episode_seed).frame(t), x, y, t, FAST_WORLD.max_steps)
        record.trace.append(StepRecord(t, x, y, 0, outcome.reward, outcome.kind))
        record.outcome = outcome
        assert not verify_replay(record)

    def test_replay_rejects_a_gap_in_t(self):
        record = run_episode(FAST_WORLD, SMALL_MCTS, "none", episode_seed(8, 2))
        i = len(record.trace) // 2
        record.trace[i:] = [replace(step, t=step.t + 1) for step in record.trace[i:]]
        assert not verify_replay(record)

    def test_replay_of_an_errored_episode_stops_where_the_actions_run_out(self):
        def fails_after_five(timeline, t, k):
            if model.calls == 6:
                raise RuntimeError("synthetic failure")
            return timeline.rollout(t, k)

        model = ForwardModel("oracle", fails_after_five)
        record = run_episode(FAST_WORLD, SMALL_MCTS, model, episode_seed(8, 0))
        assert record.error == "RuntimeError: synthetic failure"
        assert record.outcome == Outcome("running", 0.0, 5) and len(record.trace) == 5
        assert verify_replay(record)
        # The opposite action lands elsewhere: the replay sees the changed step.
        step = record.trace[2]
        record.trace[2] = replace(step, action=(step.action + 4) % 8)
        assert not verify_replay(record)


def cell_row(outcomes):
    """The table row of one oracle 2x k=1 cell with these (kind, steps) outcomes."""
    return _bench_row(("oracle", 1), "2x", 1, outcomes)


class TestSummarize:
    def test_mixed_outcomes(self):
        row = cell_row([("goal", 30), ("died", 12), ("timeout", 203)])
        assert (row.g, row.t, row.d) == (1, 1, 1)
        assert row.s_mean == pytest.approx(116.5)
        assert row.s_std == pytest.approx(86.5)
        assert row.episodes == 3

    def test_all_died_has_no_steps(self):
        row = cell_row([("died", 5), ("died", 9)])
        assert row.s_mean is None and row.s_std is None
        assert row.d == 2

    def test_single_goal(self):
        row = cell_row([("goal", 40)])
        assert row.s_mean == pytest.approx(40.0)
        assert row.s_std == pytest.approx(0.0)

    def test_model_label(self):
        assert model_label("noisy:0.1,0.02,1.0,5") == ("noisy", 5)
        assert model_label("none") == ("random", 1)


class TestGenerators:
    """Only what draws gets a generator: per episode the planner's or the random agent's, and noisy its model's."""

    MADE = {"oracle": 1, "frozen": 1, "velocity": 1, "noisy:0.1,0.02,1.0,2": 2, "none": 1}

    @pytest.fixture
    def made(self, monkeypatch):
        made = []
        make_rng = seeding.make_rng
        monkeypatch.setattr(seeding, "make_rng", lambda seed: made.append(seed) or make_rng(seed))
        return made

    @pytest.mark.parametrize("spec", list(MADE))
    def test_per_episode(self, spec, made):
        timeline = Timeline(FAST_WORLD, episode_seed(6, 0))
        del made[:]
        model_label(spec)
        assert made == []
        harness._play(timeline, FAST_WORLD, SMALL_MCTS, spec)
        assert len(made) == self.MADE[spec]

    def test_per_bench_seed(self, made):
        # One timeline per seed, three generators in new_episode, then one draw per kind of agent, the planner
        # cells sharing theirs and the random agent its own, and noisy's model generator.
        run_benchmark([BenchCell(spec, "2x", 1) for spec in self.MADE], WorldConfig(), SMALL_MCTS, n_episodes=2)
        assert len(made) == 2 * (3 + 2 + 1)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 600), more=st.integers(0, 600))
    def test_fewer_draws_are_a_prefix_of_more(self, seed, n, more):
        """On PCG64 ``random(n)`` and ``integers(8, size=n)`` are the first n of any longer run, so a bench
        batch draws once per seed, for its longest cell, and every cell reads the episode it read alone."""
        for random_agent in (False, True):
            short, long = (harness._draws(seed, random_agent, size) for size in (n, n + more))
            assert short.dtype == long.dtype and short.tobytes() == long[:n].tobytes()
        generator = seeding.make_rng(seed)
        assert type(generator.bit_generator) is np.random.PCG64
        draws = (generator.random, lambda size: generator.integers(8, size=size))
        for draw in draws:
            state = generator.bit_generator.state
            short = draw(n)
            generator.bit_generator.state = state
            assert short.tobytes() == draw(n + more)[:n].tobytes()

    def test_a_batch_draws_once_per_seed_and_kind(self, monkeypatch):
        asked = []
        draws = harness._draws
        monkeypatch.setattr(harness, "_draws", lambda *args: asked.append(args) or draws(*args))
        cells = [(WorldConfig().for_speed(speed), SMALL_MCTS, spec) for spec in ("oracle", "none", "frozen")
                 for speed in ("2x", "1x")]
        seeds = [episode_seed(8, i) for i in range(2)]
        harness._bench_batch(WorldConfig(), cells, [(ci, ei, seed) for ei, seed in enumerate(seeds)
                                                     for ci in range(len(cells))])
        assert asked == [(seed, random_agent, 407) for seed in seeds for random_agent in (False, True)]


class TestBenchmark:
    def test_count_conservation(self):
        cells = [BenchCell("oracle", "2x", 1), BenchCell("frozen", "2x", 1)]
        table = run_benchmark(cells, WorldConfig(), SMALL_MCTS, n_episodes=8)
        for row in table.rows:
            assert row.g + row.t + row.d == 8

    def test_shared_seeds_share_worlds(self):
        # same episode index in two cells sees the same initial frame
        seed = episode_seed(WorldConfig().master_seed, 0)
        a = run_episode(WorldConfig().for_speed("2x"), SMALL_MCTS, "oracle", seed, keep_frames=True)
        b = run_episode(WorldConfig().for_speed("1x"), SMALL_MCTS, "oracle", seed, keep_frames=True)
        assert frames_equal(a.frames[0], b.frames[0])

    def test_parallel_equals_serial(self):
        cells = [BenchCell("oracle", "2x", 1), BenchCell("frozen", "2x", 3)]
        serial = run_benchmark(cells, WorldConfig(), SMALL_MCTS, n_episodes=6, parallelism=1)
        parallel = run_benchmark(cells, WorldConfig(), SMALL_MCTS, n_episodes=6, parallelism=4)
        assert serial.to_csv() == parallel.to_csv()

    def test_csv_shape(self):
        table = run_benchmark([BenchCell("oracle", "2x", 1)], WorldConfig(), SMALL_MCTS,
                              n_episodes=3)
        lines = table.to_csv().strip().split("\n")
        assert lines[0] == "model,n_samples,speed,k,G,T,D,S_mean,S_std,episodes"
        assert len(lines) == 2
        assert lines[1].startswith("oracle,1,2x,1,")

    def test_csv_empty_steps_when_all_died(self):
        row = BenchRow(model="random", n_samples=1, speed="2x", k=1,
                       g=0, t=0, d=2, s_mean=None, s_std=None, episodes=2)
        csv_line = BenchTable(rows=[row]).to_csv().strip().split("\n")[1]
        assert csv_line == "random,1,2x,1,0,0,2,,,2"

    def test_text_table_contains_rows(self):
        table = run_benchmark([BenchCell("oracle", "2x", 1)], WorldConfig(), SMALL_MCTS,
                              n_episodes=2)
        text = table.format_text()
        assert "oracle" in text
        assert "2x" in text

    def test_bad_model_spec_fails_before_any_episode(self, monkeypatch):
        def no_episode(*args):
            raise AssertionError("an episode was simulated")

        monkeypatch.setattr(harness, "Timeline", no_episode)
        for bad, match in ((BenchCell("noisy:0.1,0.02,inf,5", "2x", 1), "noisy:0.1,0.02,inf,5"),
                           (BenchCell("oracle", "2x", 0), "rollout_length")):
            with pytest.raises(ValueError, match=match):
                run_benchmark([BenchCell("oracle", "2x", 1), bad], WorldConfig(), SMALL_MCTS, n_episodes=2)

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_episode_failure_keeps_the_raising_frame(self, monkeypatch, parallelism):
        if parallelism > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("pool workers see the patched model only when forked")

        def exploding_predict(timeline, t, k):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(harness, "build_model", lambda spec, episode_seed: ForwardModel(spec, exploding_predict))
        with pytest.raises(RuntimeError, match="failed: RuntimeError: synthetic failure") as info:
            run_benchmark([BenchCell("oracle", "2x", 1)], WorldConfig(), SMALL_MCTS, n_episodes=2,
                          parallelism=parallelism)
        # In process the cause is the model's exception itself; from a pool
        # worker it is the worker's traceback text, cause chain included.
        assert info.value.__cause__ is not None
        assert ", in exploding_predict\n" in "".join(traceback.format_exception(info.value))

    @pytest.mark.parametrize("field, value", [("agent_speed", 0.5), ("max_steps", 60)])
    def test_cell_set_world_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"world_cfg.{field} must keep its default"):
            run_benchmark([BenchCell("oracle", "2x", 1)], replace(WorldConfig(), **{field: value}), SMALL_MCTS,
                          n_episodes=1)

    def test_invalid_episode_count(self):
        with pytest.raises(ValueError):
            run_benchmark([BenchCell("oracle", "2x", 1)], WorldConfig(), SMALL_MCTS, n_episodes=0)

    @pytest.mark.parametrize("name, value", [("n_episodes", 0), ("n_episodes", MAX_EPISODES + 1),
                                             ("n_episodes", 10 ** 15), ("parallelism", 0), ("parallelism", -2),
                                             ("parallelism", MAX_PARALLELISM + 1), ("parallelism", 100_000)])
    def test_sizes_past_their_bounds_rejected_before_any_work(self, monkeypatch, name, value):
        """Before the seed and task lists are built, and before any pool starts."""
        def nothing(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(harness, "episode_seed", nothing)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", nothing)
        sizes = {"n_episodes": 1, "parallelism": 1, name: value}
        with pytest.raises(ConfigError, match=f"^{name} must be in 1\\.\\."):
            run_benchmark([BenchCell("oracle", "2x", 1)], WorldConfig(), SMALL_MCTS, **sizes)

    @pytest.mark.parametrize("parallelism, n_cells, n_episodes, workers", [
        (MAX_PARALLELISM, 1, 2, 2),  # two tasks, two batches: two workers, not 64
        (3, 2, 2, 3),
        (MAX_PARALLELISM, 2, 40, MAX_PARALLELISM),
    ])
    def test_pool_has_no_more_workers_than_batches(self, monkeypatch, parallelism, n_cells, n_episodes, workers):
        """A pool forks all its workers at its first task, however few the batches: the pool asked for
        here starts nothing and runs each batch in this process."""
        asked = []

        class InProcessPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        cells = [BenchCell("none", "2x", 1), BenchCell("none", "1x", 1)][:n_cells]
        table = run_benchmark(cells, WorldConfig(), SMALL_MCTS, n_episodes=n_episodes, parallelism=parallelism)
        assert asked == [workers]
        assert table.to_csv() == run_benchmark(cells, WorldConfig(), SMALL_MCTS, n_episodes=n_episodes).to_csv()

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_an_empty_grid_gives_the_empty_table_without_a_pool(self, monkeypatch, parallelism):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started for no tasks")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        table = run_benchmark([], WorldConfig(), SMALL_MCTS, 3, parallelism=parallelism)
        assert table.rows == [] and table.to_csv() == BenchTable.CSV_HEADER + "\n"
