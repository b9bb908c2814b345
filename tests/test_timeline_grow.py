"""Kernel calls that advance a timeline run to completion.

Where ``lanenav_start`` or ``lanenav_advance`` (inside ``lanenav_play`` too)
finds no room for a frame or a step, it calls the grow function held in the
kernel ``Timeline``, which runs ``Timeline._grow``. So a start, a
``frame(t)`` and a window-model or random-agent episode are each one kernel
call, whatever the buffer size (``_CHUNK``). What ``_grow`` raises comes out
of the kernel call with its own type, and the grow holds its timeline by a
weak reference, so reference counting alone frees a dropped timeline.
"""
from __future__ import annotations

import gc
import weakref

import pytest

from lanenav import world
from lanenav.harness import _play
from lanenav.mcts import MCTSConfig
from lanenav.models import build_model
from lanenav.seeding import episode_seed
from lanenav.world import Timeline, WorldConfig
from test_world_warmup import BUSY

WORLD = WorldConfig().for_speed("2x")
MCTS = MCTSConfig(n_rollouts=10, rollout_length=3)
# Seeds whose oracle, frozen and random episodes each last more than 16 steps on WORLD with MCTS.
LONG_SEEDS = (episode_seed(40, 1), episode_seed(40, 5))


@pytest.fixture
def calls(monkeypatch) -> list[str]:
    """The kernel functions ``Timeline._call`` calls, by name, in order."""
    made = []
    call = Timeline._call

    def counting(self, function, *args):
        made.append(function.__name__)
        return call(self, function, *args)

    monkeypatch.setattr(Timeline, "_call", counting)
    return made


def raising_at(frames: int, error: type[BaseException] = MemoryError) -> type[Timeline]:
    """A timeline whose ``_grow`` raises ``error("no frames")`` once it holds ``frames`` frames."""
    class RaisingTimeline(Timeline):
        def _grow(self):
            if len(self) == frames:
                raise error("no frames")
            super()._grow()

    return RaisingTimeline


@pytest.mark.parametrize("chunk", [1, 3, 16])
class TestOneCall:
    def test_an_episode_is_one_play_call(self, chunk, calls, monkeypatch):
        monkeypatch.setattr(world, "_CHUNK", chunk)
        for spec in ("oracle", "frozen", "none"):
            for seed in LONG_SEEDS:
                timeline = Timeline(WORLD, seed)
                del calls[:]
                record = _play(timeline, WORLD, MCTS, spec)
                assert record.error is None and len(timeline) > record.steps > 16  # grown while it played
                assert calls == ["lanenav_play"], spec

    def test_a_start_is_one_start_call(self, chunk, calls, monkeypatch):
        """The busy warm-up fills the first table, so the start grows in its middle."""
        monkeypatch.setattr(world, "_CHUNK", chunk)
        grown = []
        grow = Timeline._grow

        def counting_grow(self):
            grown.append(len(self))
            grow(self)

        monkeypatch.setattr(Timeline, "_grow", counting_grow)
        Timeline(BUSY, 9)
        assert calls == ["lanenav_start"]
        assert len(grown) > 1 and grown[1] == 0

    def test_a_frame_is_one_advance_call(self, chunk, calls, monkeypatch):
        monkeypatch.setattr(world, "_CHUNK", chunk)
        timeline = Timeline(WORLD, 5)
        for t, simulates in ((1, True), (40, True), (41, True), (39, False), (100, True)):
            del calls[:]
            timeline.frame(t)
            assert calls == (["lanenav_advance"] if simulates else []), t
        assert len(timeline) == 101


class TestGrowRaises:
    def test_from_frame(self):
        """The error comes out of ``frame``; the frame count stays where the last frame was simulated, and
        the timeline goes on from there as one that never failed."""
        failing = raising_at(16)(WORLD, 3)
        with pytest.raises(MemoryError, match="^no frames$"):
            failing.frame(30)
        assert len(failing) == 16
        with pytest.raises(MemoryError, match="^no frames$"):
            failing.frame(16)
        assert len(failing) == 16
        assert failing.frame(15).tobytes() == Timeline(WORLD, 3).frame(15).tobytes()

    def test_from_a_landing_frame_it_is_raised(self):
        """The random agent's only frames are those it lands in: the error is raised out of the episode."""
        with pytest.raises(MemoryError, match="^no frames$"):
            _play(raising_at(16)(WORLD, LONG_SEEDS[0]), WORLD, MCTS, "none")

    def test_from_a_window_frame_it_is_the_records_error(self):
        """The oracle's window asks for frames ahead of its landing: the error ends the episode as a model
        error, counted as its call."""
        model = build_model("oracle", LONG_SEEDS[0])
        record = _play(raising_at(16)(WORLD, LONG_SEEDS[0]), WORLD, MCTS, model)
        assert record.error == "MemoryError: no frames" and type(record.exception) is MemoryError
        # The decision at t reads frames t + 1..t + k: frame 16 is first read at t = 16 - k.
        assert record.steps == 16 - MCTS.rollout_length and model.calls == record.steps + 1

    def test_a_grow_that_makes_no_room(self, monkeypatch):
        timeline = Timeline(WORLD, 3)
        monkeypatch.setattr(Timeline, "_grow", lambda self: None)
        with pytest.raises(MemoryError, match="^a timeline's grow made no room$"):
            timeline.frame(16)
        assert len(timeline) == 16

    def test_an_interrupt_comes_out_too(self):
        with pytest.raises(KeyboardInterrupt):
            raising_at(16, KeyboardInterrupt)(WORLD, 3).frame(20)


def test_a_dropped_timeline_is_freed_without_the_cycle_collector():
    """After a start, frames, an episode and a grow that raised, the last reference frees it."""
    gc.disable()
    try:
        timeline = raising_at(48)(WORLD, 3)
        _play(timeline, WORLD, MCTS, "oracle")
        with pytest.raises(MemoryError):
            timeline.frame(60)
        reference = weakref.ref(timeline)
        del timeline
        assert reference() is None
    finally:
        gc.enable()
