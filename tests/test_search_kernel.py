"""The C search kernel against the Python loop it replaced, and the loader of the kernels' object.

``conftest.reference_search`` is the planner's former rollout loop. Every
node of a kernel tree must carry the bits of the reference node at the same
place: depth, position, terminal and stop values, visit counts, summed
values and prior. Where the reference raises, the kernel raises the same.
"""
from __future__ import annotations

import copy
import math
import os
import pickle
import re
import shutil
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

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_full_tree_fills_its_table(self, k):
        # Open ground: every node short of the horizon is expanded in all 8 actions.
        frames = tuple(PredictedFrame(np.zeros((48, 48), bool), None) for _ in range(k))
        cfg = MCTSConfig(n_rollouts=30 * 8 ** k, rollout_length=k, c_puct=50.0)
        root = run_search((24.0, 24.0), frames, cfg, 1.0)
        assert len(root._tree.table) == (8 ** (k + 1) - 1) // 7
        assert_same_search((24.0, 24.0), frames, cfg, 1.0)

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


def frame_of(occupancy, goal=(30.0, 12.0), writeable=False) -> PredictedFrame:
    occupancy = np.array(occupancy)
    occupancy.flags.writeable = writeable
    return PredictedFrame(occupancy, goal)


class TestPacking:
    """A frame is packed for the kernel by address: once if its occupancy is read-only, else per call."""

    CFG = MCTSConfig(n_rollouts=200, rollout_length=3)

    @staticmethod
    def grid(seed: int, density: float = 0.3) -> np.ndarray:
        return make_rng(seed).random((16, 20)) < density

    def test_read_only_frame_packed_once(self):
        frames = tuple(frame_of(self.grid(i)) for i in range(3))
        first = run_search((4.0, 5.0), frames, self.CFG, 1.0)
        packed = [frame._packed for frame in frames]
        assert all(p is not None for p in packed)
        again = run_search((4.0, 5.0), frames, self.CFG, 1.0)
        assert [frame._packed for frame in frames] == packed
        assert_same_tree(again, first)
        assert_same_search((4.0, 5.0), frames, self.CFG, 1.0)

    def test_goal_size_repacks(self):
        frames = tuple(frame_of(self.grid(i), goal=(8.5, 7.5)) for i in range(3))
        for goal_size in (1, 3, 2, 1):
            assert_same_search((6.0, 7.0), frames, self.CFG, 1.0, goal_size=goal_size)

    def test_writeable_frame_read_at_every_call(self):
        occupancy = self.grid(4)
        frames = (frame_of(occupancy, writeable=True),) * 3
        assert_same_search((4.0, 5.0), frames, self.CFG, 1.0)
        assert frames[0]._packed is None
        frames[0].occupancy[:] = self.grid(5, 0.6)  # edited in place: the next search sees the edit
        assert_same_search((4.0, 5.0), frames, self.CFG, 1.0)
        edited = run_search((4.0, 5.0), (frame_of(frames[0].occupancy),) * 3, self.CFG, 1.0)
        assert_same_tree(run_search((4.0, 5.0), frames, self.CFG, 1.0), edited)

    @pytest.mark.parametrize("layout", ["int", "fortran", "strided", "list"])
    def test_any_layout_reads_as_its_bool_copy(self, layout):
        occupancy = self.grid(6)
        other = {"int": occupancy.astype(np.int16) * 7, "fortran": np.asfortranarray(occupancy),
                 "strided": np.repeat(occupancy, 2, axis=1)[:, ::2], "list": occupancy.tolist()}[layout]
        frames = (frame_of(occupancy),) + (PredictedFrame(other, (30.0, 12.0)),) * 2
        assert_same_tree(run_search((4.0, 5.0), frames, self.CFG, 1.0),
                         run_search((4.0, 5.0), (frame_of(occupancy),) * 3, self.CFG, 1.0))

    def test_copy_and_pickle_drop_the_address(self):
        frames = tuple(frame_of(self.grid(i)) for i in range(3))
        root = run_search((4.0, 5.0), frames, self.CFG, 1.0)
        for copy_frame in (copy.copy, copy.deepcopy, lambda frame: pickle.loads(pickle.dumps(frame))):
            copied = tuple(map(copy_frame, frames))
            assert all(frame._packed is None for frame in copied)
            assert_same_tree(run_search((4.0, 5.0), copied, self.CFG, 1.0), root)

    def test_packed_frame_of_another_shape_rejected(self):
        small, large = frame_of(np.zeros((8, 8), bool)), frame_of(np.zeros((8, 9), bool))
        run_search((1.0, 1.0), (large,) * 2, MCTSConfig(rollout_length=2), 1.0)
        with pytest.raises(ValueError, match="one non-empty grid"):
            run_search((1.0, 1.0), (small, large), MCTSConfig(rollout_length=2), 1.0)


class TestLoader:
    def test_failed_compile_names_the_command(self, tmp_path, monkeypatch):
        command = kernel._command
        monkeypatch.setattr(kernel, "_command", lambda *args: [*command(*args), "-fno-such-option"])
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

    @staticmethod
    def edited_sources(directory: Path, source: str, old: str, new: str) -> tuple[Path, ...]:
        """Copies of the kernels' sources in ``directory``, ``old`` replaced by ``new`` in ``source``."""
        copies = []
        for original in kernel._SOURCES:
            text = original.read_text()
            if original.name == source:
                assert text.count(old) == 1
                text = text.replace(old, new)
            copies.append(directory / original.name)
            copies[-1].write_text(text)
        return tuple(copies)

    def test_shipped_sources_pass_the_layout_check(self, tmp_path):
        kernel._check_layout(kernel._load_kernel(tmp_path))

    # A field added to C's Play before ``first``, and what the check says of it.
    EXTRA_PLAY_FIELD = ("_search.c", "    int64_t first, stride;", "    int64_t extra;\n    int64_t first, stride;")
    EXTRA_PLAY_FIELD_FOUND = "Play.first offset is 320 in C, 312 in Python"

    @pytest.mark.parametrize("source, old, new, message", [
        (*EXTRA_PLAY_FIELD, EXTRA_PLAY_FIELD_FOUND),
        ("_search.c", "double goal[6];", "double goal[5];", "Frame.goal size is 40 in C, 48 in Python"),
        ("_world.c", "VALUE, N_LANE_COLUMNS }", "VALUE, SPARE, N_LANE_COLUMNS }",
         "N_LANE_COLUMNS is 8 in C, 7 in Python"),
        ("_world.c", "(int64_t)MAX_LEN1,", "(int64_t)MAX_LEN1, 0,",
         "lanenav_world_layout has 25 entries in C, 24 in Python"),
    ])
    def test_a_mismatch_fails_the_layout_check(self, tmp_path, source, old, new, message):
        library = kernel._load_kernel(tmp_path, self.edited_sources(tmp_path, source, old, new))
        with pytest.raises(ImportError, match=re.escape(message)):
            kernel._check_layout(library)

    def test_a_mismatch_fails_the_import(self, tmp_path):
        package = tmp_path / "lanenav"
        shutil.copytree(Path(kernel.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__"))
        self.edited_sources(package, *self.EXTRA_PLAY_FIELD)
        done = subprocess.run([sys.executable, "-c", "import lanenav"], env={**os.environ, "PYTHONPATH": str(tmp_path)},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode != 0
        assert "ImportError: " in done.stderr and self.EXTRA_PLAY_FIELD_FOUND in done.stderr


# What each ERR_* of the sources raised before their codes were made distinct.
PARENT_ERRORS = {
    ("_search.c", "ERR_OVERFLOW"): (OverflowError, "math range error"),
    ("_search.c", "ERR_ZERO_DIV"): (ZeroDivisionError, "float division by zero"),
    ("_search.c", "ERR_NAN_POS"): (ValueError, "cannot convert float NaN to integer"),
    ("_search.c", "ERR_DEPTH"): (ValueError, "rollout_length must be in 1..64"),
    ("_search.c", "ERR_EMPTY"): (ValueError, "max() arg is an empty sequence"),
    ("_search.c", "ERR_MEMORY"): (MemoryError, "select"),
    ("_search.c", "ERR_ACTION"): (ValueError, "action must be in 0..7"),
    ("_world.c", "ERR_LANE"): (ValueError,
                               "obstacle table: a lane index outside the lane table, or not a whole number"),
    ("_world.c", "ERR_LENGTH"): (ValueError, "obstacle table: a LEN1 that is NaN or outside 0..2147483647"),
    ("_world.c", "ERR_ROW"): (ValueError, "a lane row outside the grid"),
    ("_world.c", "ERR_DRAWS"): (ValueError, "spawn counts past the uniforms or rows given"),
    ("_world.c", "ERR_MEMORY"): (MemoryError, "world step"),
}


def test_error_table_matches_the_sources():
    defines = {}
    for source in kernel._SOURCES:
        text = source.read_text()
        found = re.findall(r"^#define (ERR_\w+) \((-\d+)\)", text, re.MULTILINE)
        assert len(found) == text.count("#define ERR_")
        defines.update({(source.name, name): int(code) for name, code in found})
    assert set(defines) == set(PARENT_ERRORS)
    codes = sorted(defines.values())
    assert len(set(codes)) == len(codes) and codes == sorted(kernel.ERRORS)
    for define, code in defines.items():
        error, message = PARENT_ERRORS[define]
        assert kernel.ERRORS[code] == (error, message)
        with pytest.raises(error) as caught:
            kernel.check(code)
        assert type(caught.value) is error and str(caught.value) == message
