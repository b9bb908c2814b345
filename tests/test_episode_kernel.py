"""The episode kernel against the Python episode loop it replaced.

``harness._play`` plays every episode through ``lanenav_play`` in C;
``conftest.reference_play`` is the former Python loop, which draws as it
goes and calls ``move``, ``outcome_at``, the model's ``predict`` and
``plan_action`` once per step. The kernel must give the same episode bit for
bit: the same steps (positions compared by ``repr``, so -0.0 and 0.0 differ),
outcome, error text and model calls, and it must simulate exactly the frames
the Python loop simulated.

Each episode is played on a fresh timeline, where the kernel gets one frame
at a time, and again on a timeline the reference already simulated, where a
model with a window plays the whole episode in one kernel call.
"""
from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest

import lanenav.world as world
from conftest import reference_play, reference_replay
from lanenav import harness
from lanenav.harness import StepRecord, _episode, _outcome, _play, _trace, verify_replay
from lanenav.kernel import OUTCOMES, STEP
from lanenav.mcts import MCTSConfig
from lanenav.models import ForwardModel, build_model
from lanenav.seeding import episode_seed
from lanenav.world import Timeline, WorldConfig, new_episode, world_step

pytestmark = pytest.mark.bitpin

PLANNER_SPECS = ("oracle", "frozen", "velocity", "noisy:0.1,0.02,1.0,3")
WINDOWED = ("oracle", "frozen")
# prior_kappa just past exp's range: a prior overflows where the goal lies within about a degree of an action.
OVERFLOW_KAPPA = 709.9


def steps_of(trace: list[StepRecord]) -> list[tuple]:
    return [(s.t, repr(s.agent_x), repr(s.agent_y), s.action, s.reward, s.outcome) for s in trace]


def assert_same_episode(got, want) -> None:
    assert steps_of(got.trace) == steps_of(want.trace)
    assert got.outcome == want.outcome
    assert got.steps == want.steps == len(got.trace)
    assert got.error == want.error
    assert type(got.exception) is type(want.exception)


def model_for(spec: str, seed: int) -> ForwardModel | str:
    """A fresh model of ``spec`` with the generator the harness gives it, so both loops count its calls."""
    model = build_model(spec, seed)
    return spec if model is None else model


class CountingKernel:
    """Wraps ``harness._kernel`` to count its calls."""

    def __init__(self, monkeypatch) -> None:
        self.calls = 0
        self._kernel = harness._kernel
        monkeypatch.setattr(harness, "_kernel", self)

    def __call__(self, play):
        self.calls += 1
        return self._kernel(play)


def compare(world_cfg: WorldConfig, mcts_cfg: MCTSConfig, spec: str | ForwardModel, seed: int,
            kernel: CountingKernel | None = None, make=None, timeline=Timeline):
    """The kernel's episode and the reference's, on fresh timelines, then the kernel's again on the
    reference's timeline; returns the reference record and the kernel calls of the last run."""
    make = make or (lambda: model_for(spec, seed))
    fresh, simulated = timeline(world_cfg, seed), timeline(world_cfg, seed)
    got_model, want_model = make(), make()
    got = _play(fresh, world_cfg, mcts_cfg, got_model)
    want = reference_play(simulated, world_cfg, mcts_cfg, want_model)
    assert_same_episode(got, want)
    assert len(fresh) == len(simulated)
    if isinstance(want_model, ForwardModel):
        assert got_model.calls == want_model.calls
    again_model = make()
    before = kernel.calls if kernel is not None else 0
    assert_same_episode(_play(simulated, world_cfg, mcts_cfg, again_model), want)
    if isinstance(want_model, ForwardModel):
        assert again_model.calls == want_model.calls
    return want, (kernel.calls - before if kernel is not None else None)


@pytest.mark.parametrize("n_rollouts", [1, 100])
@pytest.mark.parametrize("k", [1, 3, 10])
@pytest.mark.parametrize("speed", ["2x", "1x"])
@pytest.mark.parametrize("spec", PLANNER_SPECS)
def test_planner_episodes_match_the_python_loop(spec, speed, k, n_rollouts, monkeypatch):
    kernel = CountingKernel(monkeypatch)
    world_cfg = WorldConfig().for_speed(speed)
    mcts_cfg = MCTSConfig(n_rollouts=n_rollouts, rollout_length=k)
    seeds = (episode_seed(29, i) for i in range(3 if spec in WINDOWED else 2))
    for seed in seeds:
        want, calls = compare(world_cfg, mcts_cfg, spec, seed, kernel)
        assert want.error is None and want.steps > 0
        if spec in WINDOWED:
            # The reference simulated and read every frame the episode needs: one call plays it all.
            assert calls == 1


@pytest.mark.parametrize("speed", ["2x", "1x"])
def test_random_agent_episodes_match_the_python_loop(speed):
    world_cfg = WorldConfig().for_speed(speed)
    for i in range(6):
        want, _ = compare(world_cfg, MCTSConfig(), "none", episode_seed(30, i))
        assert want.steps > 0


def test_model_that_raises_at_decision_j():
    world_cfg = WorldConfig().for_speed("2x")
    for j in (1, 2, 7):
        def make(j=j):
            def predict(timeline, t, k):
                if model.calls == j:
                    raise RuntimeError(f"synthetic failure at decision {j}")
                return timeline.rollout(t, k)

            model = ForwardModel("failing", predict)
            return model

        want, _ = compare(world_cfg, MCTSConfig(n_rollouts=30), None, episode_seed(22, 0), make=make)
        assert want.error == f"RuntimeError: synthetic failure at decision {j}"
        assert want.steps == j - 1


@pytest.mark.parametrize("spec", WINDOWED)
def test_window_that_raises_at_decision_j(spec, monkeypatch):
    """A model with a window reads the timeline itself, and each frame is read as it is simulated; a frame
    that fails to simulate in a decision's window ends the episode where the model's ``predict`` would
    have raised, and counts as its call. Frozen's window is frame t, which the step into t simulated, so
    there the failure comes from that step, out of both loops. The failure is the new buffer of frames
    that frame 6 asks for: with buffers of 3 frames the kernel asks for it in the middle of its run."""
    monkeypatch.setattr(world, "_CHUNK", 3)

    class RaisingTimeline(Timeline):
        def _grow(self):
            if len(self) == 6:
                raise RuntimeError("synthetic failure at time 6")
            super()._grow()

    world_cfg, mcts_cfg, seed = WorldConfig().for_speed("2x"), MCTSConfig(n_rollouts=30), episode_seed(29, 0)
    if spec == "frozen":
        for play in (_play, reference_play):
            with pytest.raises(RuntimeError, match="synthetic failure at time 6"):
                play(RaisingTimeline(world_cfg, seed), world_cfg, mcts_cfg, model_for(spec, seed))
        return
    want, _ = compare(world_cfg, mcts_cfg, spec, seed, timeline=RaisingTimeline)
    assert want.error == "RuntimeError: synthetic failure at time 6"
    assert 0 < want.steps <= 6


def test_model_frames_of_another_grid_raise_as_the_search_did():
    world_cfg = WorldConfig().for_speed("2x")

    def make():
        return ForwardModel("small", lambda timeline, t, k: tuple(replace(f, occupancy=f.occupancy[:20])
                                                                  for f in timeline.rollout(t, k)))

    record = _play(Timeline(world_cfg, 3), world_cfg, MCTSConfig(), make())
    assert record.steps == 0 and record.error.startswith("ValueError: predicted frames must share one")


@pytest.mark.parametrize("spec", WINDOWED + ("velocity",))
def test_prior_overflow_partway_through_a_run(spec, monkeypatch):
    kernel = CountingKernel(monkeypatch)
    world_cfg = WorldConfig().for_speed("2x")
    mcts_cfg = MCTSConfig(n_rollouts=20, rollout_length=3, prior_kappa=OVERFLOW_KAPPA)
    found = 0
    for i in range(40):
        want, calls = compare(world_cfg, mcts_cfg, spec, episode_seed(23, i), kernel)
        if want.error is not None and want.steps > 1:
            assert want.error == "OverflowError: math range error"
            if spec in WINDOWED:
                assert calls == 1  # raised inside a call that had played decisions before
            found += 1
            if found == 3:
                break
    assert found == 3


def test_replays_match_the_python_replay():
    world_cfg = WorldConfig().for_speed("2x")
    mcts_cfg = MCTSConfig(n_rollouts=20)
    records = [_play(Timeline(world_cfg, episode_seed(24, i)), world_cfg, mcts_cfg, spec)
               for i, spec in enumerate(("oracle", "none", "frozen", "none", "velocity"))]
    for record in records:
        variants = [record.trace, record.trace[:len(record.trace) // 2], []]
        middle = len(record.trace) // 2
        for action in (9, -1, 2.0, True, np.int64(5), (record.trace[middle].action + 4) % 8):
            variants.append(record.trace[:middle] + [replace(record.trace[middle], action=action)]
                            + record.trace[middle + 1:])
        for trace in variants:
            tampered = replace(record, trace=trace)
            try:
                want_outcome, want_trace = reference_replay(tampered)
            except (ValueError, TypeError) as exc:  # the Python loop met an action it cannot move by
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    verify_replay(tampered)
                continue
            actions = [int(step.action) for step in trace[:len(want_trace)]]
            steps, error = _episode(Timeline(world_cfg, record.episode_seed), world_cfg, mcts_cfg, None,
                                    np.array(actions, dtype=np.int64))
            assert error is None
            assert steps_of(_trace(steps)) == steps_of(want_trace) and _outcome(steps) == want_outcome
            assert verify_replay(tampered) == (want_trace == trace and want_outcome == tampered.outcome)
        assert verify_replay(record)


def test_no_frame_simulated_that_the_python_loop_would_not(monkeypatch):
    """A bench batch through the kernel simulates exactly the frames the Python loop simulates: per seed as
    many frames, with the same draws, and the timeline as long after each task, so a cell that simulates a
    frame past its episode cannot hide behind a longer cell of its seed. The batch plays each episode
    through ``_episode``, which the reference replaces: the Python loop's records, as the step table
    the kernel writes."""
    world_cfg = WorldConfig()
    cells = [(world_cfg.for_speed(speed), MCTSConfig(n_rollouts=20, rollout_length=k), spec)
             for spec in ("oracle", "frozen", "velocity", "noisy", "none") for speed in ("2x", "1x")
             for k in (1, 3, 10)]
    tasks = [(ci, ei, episode_seed(25, ei)) for ei in range(3) for ci in range(len(cells))]

    def run(episode) -> tuple:
        lengths, timelines = [], []

        class TrackedTimeline(Timeline):
            def __init__(self, *args):
                super().__init__(*args)
                timelines.append(self)

        def tracked_episode(timeline, *args):
            played = episode(timeline, *args)
            lengths.append((timeline.episode_seed, len(timeline)))
            return played

        with monkeypatch.context() as patch:
            patch.setattr(harness, "Timeline", TrackedTimeline)
            patch.setattr(harness, "_episode", tracked_episode)
            results = harness._bench_batch(world_cfg, cells, tasks)
        # Per seed: the frames simulated, and the draws their steps made.
        simulated = {timeline.episode_seed: (len(timeline), timeline.spawn_draws,
                                             timeline._rngs[0].bit_generator.state,
                                             timeline._rngs[1].bit_generator.state)
                     for timeline in timelines}
        assert len(simulated) == len(timelines) == 3
        return results, simulated, lengths

    kinds = list(OUTCOMES.values())

    def reference(timeline, cell_world, cell_mcts, model, draws):
        record = reference_play(timeline, cell_world, cell_mcts, "none" if model is None else model)
        table = np.zeros(len(record.trace), np.dtype(STEP))
        for name, values in (("x", [s.agent_x for s in record.trace]), ("y", [s.agent_y for s in record.trace]),
                             ("action", [s.action for s in record.trace]),
                             ("kind", [kinds.index(s.outcome) for s in record.trace])):
            table[name] = values
        return table, record.exception

    got, want = run(_episode), run(reference)
    assert got == want
    for seed, (frames, draws, spawn, classes) in want[1].items():  # as far as new_episode of the seed stepped
        state = new_episode(world_cfg, seed)
        for _ in range(frames - 1):
            world_step(state)
        assert (state.spawn_draws, state.spawn_rng.bit_generator.state,
                state.class_rng.bit_generator.state) == (draws, spawn, classes)
    assert min(frames for frames, *_ in want[1].values()) > 10
