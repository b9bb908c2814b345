"""Timeline: one simulated world per episode, checked against the stepped simulator.

The differential tests compare every reader of the timeline (frames, the
oracle and noisy models, the history, the episode's goal/death lookup) with
the per-step path it replaces: ``new_episode`` + ``world_step`` +
``render_frame`` and ``oracle_predict``. The episode's outcomes are replayed
on such a stepped world, with the same ``move`` and ``outcome_at``.
"""
import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from conftest import agent_turn, noisy_sample_predict, stand_in_timeline
from lanenav import harness
from lanenav.harness import BenchCell, run_benchmark, run_episode, verify_replay
from lanenav.mcts import MCTSConfig
from lanenav.models import build_model, oracle_predict, velocity_predict
from lanenav.seeding import STREAM_MODEL, episode_seed, make_rng, substream
from lanenav.world import Timeline, WorldConfig, new_episode, render_frame, world_step

DIFF_SEEDS = 200
DIFF_STEPS = 250


def _same_rollout(got, want) -> bool:
    return len(got) == len(want) and all(
        np.array_equal(g.occupancy, w.occupancy) and g.goal_estimate == w.goal_estimate
        for g, w in zip(got, want))


def test_frames_equal_stepped_world_at_both_speeds():
    presets = [WorldConfig().for_speed(speed) for speed in ("2x", "1x")]
    for i in range(DIFF_SEEDS):
        seed = episode_seed(7, i)
        state = new_episode(presets[0], seed)
        timelines = [Timeline(cfg, seed) for cfg in presets]
        for timeline in timelines:
            assert timeline.start == state.start
        for t in range(DIFF_STEPS + 1):
            if t:
                world_step(state)
            want = render_frame(state)
            for timeline in timelines:
                assert np.array_equal(timeline.frame(t), want), (seed, t)


def test_frames_and_predictions_read_only():
    timeline = Timeline(WorldConfig(), 3)
    with pytest.raises(ValueError):
        timeline.frame(5)[0, 0] = 1
    with pytest.raises(ValueError):
        timeline.predicted(5).occupancy[0, 0] = True
    assert timeline.predicted(5) is timeline.predicted(5)


def test_rollout_rejects_empty_horizon():
    with pytest.raises(ValueError):
        Timeline(WorldConfig(), 3).rollout(0, 0)


@pytest.mark.parametrize("read, t", [
    (lambda timeline: timeline.frame(-1), -1),
    (lambda timeline: timeline.predicted(-1), -1),
    (lambda timeline: timeline.history(-2), -2),
    (lambda timeline: timeline.rollout(-3, 2), -3),
    (lambda timeline: timeline.rollout(-1, 3), -1),
], ids=["frame", "predicted", "history", "rollout", "rollout from -1"])
def test_negative_times_rejected(read, t):
    """A negative time names itself, before and after the frames it would wrap around to exist."""
    timeline = Timeline(WorldConfig(), 3)
    for _ in range(2):
        with pytest.raises(ValueError, match=f"^a timeline's time t must be >= 0, got {t}$"):
            read(timeline)
        timeline.frame(6)
    assert timeline.history(0).frames == (timeline.frame(0),) * 4


def test_oracle_model_equals_oracle_predict():
    rng = make_rng(17)
    model = build_model("oracle", 0)
    cfg = WorldConfig()
    for i in range(20):
        seed = episode_seed(8, i)
        state = new_episode(cfg, seed)
        timeline = Timeline(cfg, seed)
        for t in range(60):
            if t:
                world_step(state)
            k = int(rng.integers(1, 11))
            assert _same_rollout(model.predict(timeline, t, k), oracle_predict(state, k))


def test_noisy_model_equals_noisy_sample_predict():
    cfg = WorldConfig()
    seed = episode_seed(8, 100)
    state = new_episode(cfg, seed)
    timeline = Timeline(cfg, seed)
    model = build_model("noisy:0.2,0.05,1.5,3", seed)
    rng = substream(seed, STREAM_MODEL)
    for t in range(30):
        if t:
            world_step(state)
        got = model.predict(timeline, t, 4)
        want = noisy_sample_predict(state, 4, n_samples=3, p_fn=0.2, p_fp=0.05, goal_sigma=1.5, rng=rng)
        assert _same_rollout(got, want)


def test_history_is_the_last_four_frames():
    cfg = WorldConfig()
    state = new_episode(cfg, 11)
    timeline = Timeline(cfg, 11)
    frames = [render_frame(state)]
    for t in range(12):
        if t:
            world_step(state)
            frames.append(render_frame(state))
        want = ([frames[0]] * 3 + frames)[-4:]
        got = timeline.history(t).frames
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("spec, reads, predict", [
    ("frozen", ("predicted",), lambda timeline, t, k: (timeline.predicted(t),) * k),
    ("velocity", ("history",), lambda timeline, t, k: velocity_predict(timeline.history(t), k)),
], ids=["frozen", "velocity"])
def test_unprivileged_models_read_only_the_past(spec, reads, predict):
    # frozen is served only predicted(s) for s <= t, velocity only history(t); any other read raises.
    model = build_model(spec, 0)
    for i in range(10):
        timeline = Timeline(WorldConfig(), episode_seed(9, i))
        for t in (0, 1, 2, 3, 7, 30):
            blind = stand_in_timeline(timeline, t, reads)
            for k in (1, 3, 10):
                want = predict(timeline, t, k)
                assert _same_rollout(model.predict(blind, t, k), want)
                assert _same_rollout(model.predict(timeline, t, k), want)


def _replays_on_stepped_world(record) -> bool:
    """The record's actions on ``new_episode`` + ``world_step``: same t,
    position, reward and outcome at every step."""
    state = new_episode(record.world_config, record.episode_seed)
    x, y = state.start
    for step in record.trace:
        x, y, outcome = agent_turn(state, x, y, step.action)
        if (state.t, x, y, outcome.reward, outcome.kind) != (
                step.t, step.agent_x, step.agent_y, step.reward, step.outcome):
            return False
    return True


@pytest.mark.parametrize("speed", ["2x", "1x"])
def test_episode_outcomes_match_stepped_world(speed):
    # verify_replay re-runs the actions on a fresh timeline, and the stepped
    # world re-renders every frame; both must give the timeline episode's
    # t, reward, outcome and position at every step
    cfg = WorldConfig().for_speed(speed)
    kinds = []
    for i in range(40):
        record = run_episode(cfg, MCTSConfig(), "none", episode_seed(10, i))
        assert verify_replay(record) and _replays_on_stepped_world(record)
        kinds.append(record.outcome.kind)
    for i in range(6):
        record = run_episode(cfg, MCTSConfig(n_rollouts=20, rollout_length=1), "oracle", episode_seed(11, i))
        assert verify_replay(record) and _replays_on_stepped_world(record)
        kinds.append(record.outcome.kind)
    short = WorldConfig(agent_speed=cfg.agent_speed, max_steps=6)
    for i in range(10):
        record = run_episode(short, MCTSConfig(), "none", episode_seed(12, i))
        assert verify_replay(record) and _replays_on_stepped_world(record)
        kinds.append(record.outcome.kind)
    assert {"goal", "died", "timeout"} <= set(kinds)


def test_benchmark_builds_one_timeline_per_seed(monkeypatch):
    built = []

    class CountingTimeline(Timeline):
        def __init__(self, config, episode_seed):
            built.append(episode_seed)
            super().__init__(config, episode_seed)

    monkeypatch.setattr(harness, "Timeline", CountingTimeline)
    cells = [BenchCell(m, s, k) for m in ("oracle", "frozen", "none") for s in ("2x", "1x") for k in (1, 3)]
    run_benchmark(cells, WorldConfig(), MCTSConfig(n_rollouts=10), n_episodes=3, master_seed=4)
    assert built == [episode_seed(4, i) for i in range(3)]


def test_timeline_freed_without_cyclic_gc_when_the_batch_moves_on(monkeypatch):
    # Nothing a timeline caches refers back to it, so reference counting alone frees it.
    refs = []

    class TrackedTimeline(Timeline):
        def __init__(self, config, episode_seed):
            super().__init__(config, episode_seed)
            refs.append(weakref.ref(self))

    alive = []
    episode = harness._episode

    def tracked_episode(timeline, *args, **kwargs):
        alive.append([ref() is not None for ref in refs])
        return episode(timeline, *args, **kwargs)

    monkeypatch.setattr(harness, "Timeline", TrackedTimeline)
    monkeypatch.setattr(harness, "_episode", tracked_episode)
    world_cfg = WorldConfig()
    cell_world = replace(world_cfg.for_speed("2x"), max_steps=40)
    cells = [(cell_world, MCTSConfig(n_rollouts=10, rollout_length=k), spec)
             for spec in ("oracle", "frozen", "velocity", "noisy", "none") for k in (1, 3)]
    tasks = [(ci, ei, episode_seed(6, ei)) for ei in range(3) for ci in range(len(cells))]
    gc.disable()
    try:
        harness._bench_batch(world_cfg, cells, tasks)
    finally:
        gc.enable()
    assert len(refs) == 3 and len(alive) == len(tasks)
    # At every episode only the timeline of its own seed is alive.
    for (_, ei, _), flags in zip(tasks, alive):
        assert flags == [i == ei for i in range(ei + 1)]


def test_caches_hold_one_entry_per_time_asked():
    asked = {"history": [], "predicted": []}

    class RecordingTimeline(Timeline):
        def history(self, t):
            asked["history"].append(t)
            return super().history(t)

        def predicted(self, t):
            asked["predicted"].append(t)
            return super().predicted(t)

    world_cfg = WorldConfig().for_speed("1x")
    timeline = RecordingTimeline(world_cfg, episode_seed(8, 0))
    for spec in ("oracle", "frozen", "velocity", "noisy"):
        record = harness._play(timeline, world_cfg, MCTSConfig(n_rollouts=20), spec)
        assert record.exception is None
    # Every decision time of a whole 1x episode, read by each model at three horizons.
    models = [build_model(spec, 0) for spec in ("oracle", "frozen", "velocity", "noisy")]
    for t in range(world_cfg.max_steps):
        for model in models:
            for k in (1, 3, 10):
                model.predict(timeline, t, k)
    for name, cache in (("history", timeline._histories), ("predicted", timeline._predicted)):
        assert list(cache) == list(dict.fromkeys(asked[name]))
    assert len(timeline._histories) == world_cfg.max_steps
    assert len(timeline._predicted) == len(timeline) == world_cfg.max_steps + 10
    # Each history is kept once.
    for t, history in timeline._histories.items():
        assert timeline.history(t) is history
