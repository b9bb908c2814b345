"""The C search kernel against the Python loop it replaced, and the loader of the kernels' object.

``conftest.reference_search`` is the planner's former rollout loop. Every
node of a kernel tree must carry the bits of the reference node at the same
place: depth, position, terminal and stop values, visit counts, summed
values and prior. Where the reference raises, the kernel raises the same.
"""
from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_search
from lanenav import kernel
from lanenav.mcts import MAX_ROLLOUT_LENGTH, MAX_ROLLOUTS, MCTSConfig, goal_prior, run_search
from lanenav.seeding import make_rng
from lanenav.world import PredictedFrame


def node_record(node) -> str:
    return repr((node.depth, node.x, node.y, node.terminal_value, node.stop_value, list(node.n), list(node.w),
                 list(node.prior), node.total, [c is None for c in node.children],
                 [node.q(a) for a in range(8)]))


def assert_same_tree(root, reference) -> int:
    """Walk both trees in step; every node's record matches. Returns the node count."""
    count = 0
    todo = [(root, reference)]
    while todo:
        node, ref = todo.pop()
        count += 1
        assert node_record(node) == node_record(ref), f"node {count}"
        todo.extend((c, r) for c, r in zip(node.children, ref.children) if c is not None)
    return count


def outcome(search, *args, **kwargs):
    """The root, or the (type, message) of the exception ``search`` raised."""
    try:
        return search(*args, **kwargs)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def assert_same_search(agent, frames, cfg, speed, goal_size=2) -> None:
    got = outcome(run_search, agent, frames, cfg, speed, goal_size=goal_size)
    want = outcome(reference_search, agent, frames, cfg, speed, goal_size=goal_size)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        assert_same_tree(got, want)


def walk(root):
    todo = [root]
    while todo:
        node = todo.pop()
        yield node
        todo.extend(c for c in node.children if c is not None)


def coords(hi: float):
    """An axis position: on and past the walls, on half-pixel ties, or anywhere near the grid."""
    ties = [i + 0.5 for i in range(-1, int(hi) + 1)]
    return st.sampled_from([0.0, hi, -0.5, 1e-9, hi - 1e-9, hi + 0.5, *ties]) | st.floats(-3.0, hi + 3.0)


@st.composite
def searches(draw):
    height, width = draw(st.sampled_from([(1, 1), (2, 5), (8, 8), (16, 9), (48, 48)]))
    k = draw(st.integers(1, 10))
    rng = make_rng(draw(st.integers(0, 2 ** 32 - 1)))
    density = draw(st.sampled_from([0.0, 0.1, 0.4, 0.9]))
    agent = (draw(coords(width - 1.0)), draw(coords(height - 1.0)))
    # A goal that is absent, sits on the agent, or lies on or off the grid.
    goal = st.none() | st.just(agent) | st.tuples(coords(width - 1.0), coords(height - 1.0)) | st.tuples(
        st.floats(-40.0, 90.0), st.floats(-40.0, 90.0))
    frames = tuple(PredictedFrame(rng.random((height, width)) < density, draw(goal))
                   for _ in range(k + draw(st.integers(0, 2))))
    cfg = MCTSConfig(
        n_rollouts=draw(st.integers(1, 300)),
        rollout_length=k,
        c_puct=draw(st.sampled_from([0.0, 1.4]) | st.floats(0.0, 5.0)),
        prior_kappa=draw(st.sampled_from([0.0, 2.0]) | st.floats(0.0, 8.0)),
        death_value=draw(st.floats(-30.0, -1.0)),
        goal_value=draw(st.floats(1.0, 30.0)),
        shaping_beta=draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 2.0)),
    )
    speed = draw(st.sampled_from([0.5, 1.0, 0.73]))
    goal_size = draw(st.sampled_from([1, 2, 3]))
    return agent, frames, cfg, speed, goal_size


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(searches())
    def test_every_node_matches(self, search):
        assert_same_search(*search)

    @settings(max_examples=60, deadline=None)
    @given(searches())
    def test_opened_node_prior_is_goal_prior(self, search):
        agent, frames, cfg, speed, goal_size = search
        root = outcome(run_search, agent, frames, cfg, speed, goal_size=goal_size)
        if isinstance(root, tuple):
            return
        for node in walk(root):
            if node.total:
                assert node.prior == goal_prior((node.x, node.y), frames[node.depth].goal_estimate,
                                                cfg.prior_kappa)
            else:
                assert node.prior == [0.125] * 8

    def test_both_bounds(self):
        frames = tuple(PredictedFrame(np.zeros((48, 48), bool), (40.0, 7.0)) for _ in range(MAX_ROLLOUT_LENGTH))
        assert_same_search((3.0, 30.0), frames, MCTSConfig(n_rollouts=300, rollout_length=MAX_ROLLOUT_LENGTH), 1.0)
        root = run_search((3.0, 30.0), frames, MCTSConfig(n_rollouts=MAX_ROLLOUTS,
                                                          rollout_length=MAX_ROLLOUT_LENGTH), 1.0)
        assert sum(root.n) == MAX_ROLLOUTS

    @pytest.mark.parametrize("agent, speed, cfg, size, error", [
        ((10.0, 10.0), 1.0, MCTSConfig(prior_kappa=1000.0), 48, OverflowError),
        ((math.nan, 10.0), 1.0, MCTSConfig(), 48, ValueError),
        ((10.0, 10.0), math.inf, MCTSConfig(), 48, ValueError),  # 0 * inf on the axis-aligned moves
        ((0.0, 0.0), 1.0, MCTSConfig(shaping_beta=0.5), 1, ZeroDivisionError),
    ])
    def test_same_error_as_reference(self, agent, speed, cfg, size, error):
        frames = tuple(PredictedFrame(np.zeros((size, size), bool), (5.0, 3.0)) for _ in range(cfg.rollout_length))
        got = outcome(run_search, agent, frames, cfg, speed)
        assert got[0] is error
        assert got == outcome(reference_search, agent, frames, cfg, speed)

    def test_frames_of_two_shapes_rejected(self):
        frames = (PredictedFrame(np.zeros((8, 8), bool), None), PredictedFrame(np.zeros((8, 9), bool), None))
        with pytest.raises(ValueError, match="one non-empty grid"):
            run_search((1.0, 1.0), frames, MCTSConfig(rollout_length=2), 1.0)


class TestLoader:
    def test_failed_compile_names_the_command(self, tmp_path, monkeypatch):
        command = kernel._command
        monkeypatch.setattr(kernel, "_command", lambda target: [*command(target), "-fno-such-option"])
        with pytest.raises(ImportError, match="-fno-such-option") as caught:
            kernel._load_kernel(tmp_path)
        message = str(caught.value)
        assert message.startswith("cannot build the C kernels: cc ") and "exited with" in message
        assert "_search.c" in message and "_world.c" in message
        assert "error" in message.split("\n", 1)[1]  # the compiler's own stderr
        assert list(tmp_path.iterdir()) == []

    def test_second_load_reuses_the_object(self, tmp_path, monkeypatch):
        library = kernel._load_kernel(tmp_path)
        [built] = tmp_path.iterdir()
        mtime = built.stat().st_mtime_ns

        def no_compiler(command):
            raise AssertionError(f"compiled again: {command}")

        monkeypatch.setattr(kernel, "_compile", no_compiler)
        assert kernel._load_kernel(tmp_path) is not None
        assert list(tmp_path.iterdir()) == [built] and built.stat().st_mtime_ns == mtime
        # One object holds both kernels.
        for name in ("lanenav_search", "lanenav_world_step", "lanenav_rasterize", "lanenav_read_frame"):
            assert hasattr(library, name)

    def test_concurrent_first_loads_both_succeed(self, tmp_path):
        code = ("import sys; from pathlib import Path; from lanenav import kernel; "
                "kernel._load_kernel(Path(sys.argv[1]))")
        src = str(Path(kernel.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        processes = [subprocess.Popen([sys.executable, "-c", code, str(tmp_path)], env=env,
                                      stderr=subprocess.PIPE, text=True) for _ in range(2)]
        for process in processes:
            _, err = process.communicate(timeout=120)
            assert process.returncode == 0, err
        [built] = tmp_path.iterdir()
        assert built.name.startswith("_kernel.") and built.suffix == ".so"
