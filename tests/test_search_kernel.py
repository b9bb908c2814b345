"""The C search kernel against the Python loop it replaced, and the loader of the kernels' object.

``conftest.reference_search`` is the planner's former rollout loop. Every
node of a kernel tree must carry the bits of the reference node at the same
place: depth, position, terminal and stop values, visit counts, summed
values and prior. Where the reference raises, the kernel raises the same.
Every node also keeps the two factors of its exploration term that the
descent reads: ``c_puct * prior[a]`` in ``cp[a]`` and ``sqrt(total)`` in
``scale``, to the bit.
"""
from __future__ import annotations

import copy
import ctypes
import math
import os
import pickle
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_exploration_factors, build_state, reference_search, timeline_of
from lanenav import kernel
from lanenav.harness import run_episode
from lanenav.mcts import MAX_ROLLOUT_LENGTH, MAX_ROLLOUTS, MCTSConfig, goal_prior, run_search
from lanenav.models import ForwardModel
from lanenav.seeding import make_rng
from lanenav.world import LEFT_TO_RIGHT, RIGHT_TO_LEFT, PlacementError, PredictedFrame, Timeline, WorldConfig

pytestmark = pytest.mark.bitpin


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
        assert_exploration_factors(got, cfg.c_puct)


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

    @staticmethod
    def edge_frames(k: int) -> tuple[PredictedFrame, ...]:
        rng = make_rng(5)
        return tuple(PredictedFrame(rng.random((48, 48)) < 0.15, (40.0, 7.0)) for _ in range(k))

    @pytest.mark.parametrize("cfg", [
        MCTSConfig(c_puct=0.0),  # every exploration term 0: the pick is the first best mean
        MCTSConfig(c_puct=1e308, n_rollouts=300),  # cp * scale is inf where sqrt(total) * P(a) > 1.8
        MCTSConfig(c_puct=1e308, n_rollouts=300, prior_kappa=0.0),  # P(a) = 1/8: ties at inf once total >= 208
        MCTSConfig(prior_kappa=700.0),  # priors of exactly 0 away from the goal
        MCTSConfig(n_rollouts=1),
        MCTSConfig(n_rollouts=400, rollout_length=MAX_ROLLOUT_LENGTH),
    ], ids=["c0", "c_inf", "c_inf_uniform", "kappa_zero_priors", "one_rollout", "max_depth"])
    def test_exploration_edge_cases(self, cfg):
        frames = self.edge_frames(cfg.rollout_length)
        assert_same_search((5.0, 30.0), frames, cfg, 1.0)
        table = run_search((5.0, 30.0), frames, cfg, 1.0)._tree.table
        if cfg.prior_kappa == 700.0:
            assert (table["prior"][table["total"] > 0] == 0.0).any()
        if cfg.c_puct == 1e308:
            with np.errstate(over="ignore"):
                assert np.isinf(table["cp"] * table["scale"][:, None]).any()

    def test_prior_overflow_still_raises(self):
        frames = self.edge_frames(3)
        cfg = MCTSConfig(prior_kappa=1000.0)
        got = outcome(run_search, (5.0, 30.0), frames, cfg, 1.0)
        assert got == (OverflowError, "math range error")
        assert got == outcome(reference_search, (5.0, 30.0), frames, cfg, 1.0)

    def test_frames_of_two_shapes_rejected(self):
        frames = (PredictedFrame(np.zeros((8, 8), bool), None), PredictedFrame(np.zeros((8, 9), bool), None))
        with pytest.raises(ValueError, match="one non-empty grid"):
            run_search((1.0, 1.0), frames, MCTSConfig(rollout_length=2), 1.0)


def frame_of(occupancy, goal=(30.0, 12.0), writeable=False) -> PredictedFrame:
    occupancy = np.array(occupancy)
    occupancy.flags.writeable = writeable
    return PredictedFrame(occupancy, goal)


class TestPacking:
    """A frame reaches the kernel as its record: a ``Timeline`` frame's own, any other frame's packed per search."""

    CFG = MCTSConfig(n_rollouts=200, rollout_length=3)

    @staticmethod
    def grid(seed: int, density: float = 0.3) -> np.ndarray:
        return make_rng(seed).random((16, 20)) < density

    def test_goal_size_repacks(self):
        frames = tuple(frame_of(self.grid(i), goal=(8.5, 7.5)) for i in range(3))
        for goal_size in (1, 3, 2, 1):
            assert_same_search((6.0, 7.0), frames, self.CFG, 1.0, goal_size=goal_size)

    def test_writeable_frame_read_at_every_call(self):
        occupancy = self.grid(4)
        frames = (frame_of(occupancy, writeable=True),) * 3
        assert_same_search((4.0, 5.0), frames, self.CFG, 1.0)
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

    def test_packed_frame_of_another_shape_rejected(self):
        small, large = frame_of(np.zeros((8, 8), bool)), frame_of(np.zeros((8, 9), bool))
        run_search((1.0, 1.0), (large,) * 2, MCTSConfig(rollout_length=2), 1.0)
        with pytest.raises(ValueError, match="one non-empty grid"):
            run_search((1.0, 1.0), (small, large), MCTSConfig(rollout_length=2), 1.0)
        timeline = Timeline(WorldConfig(grid_h=8, grid_w=9, level=0.0, lane_rows=(2,)), 3)
        with pytest.raises(ValueError, match="one non-empty grid"):
            run_search((1.0, 1.0), (small, timeline.predicted(1)), MCTSConfig(rollout_length=2), 1.0)

    # Goal positions (x, y, vx, vy) of a 12 x 10 world whose estimates lie on half pixels, on whole pixels
    # where the grid's edges clip the goal block, and at its corners.
    GOALS = [(3.0, 4.0, 0.5, -0.5), (0.5, 2.5, 0.25, 0.0), (-1.0, -1.0, 0.0, 0.5), (9.0, 7.0, 0.5, 0.5),
             (8.6, 0.0, -0.5, 0.0), (-0.5, 8.5, 0.5, -0.25)]

    @pytest.mark.parametrize("goal", GOALS)
    @pytest.mark.parametrize("world_goal_size", [1, 2, 3])
    def test_timeline_records_serve_every_goal_size(self, goal, world_goal_size):
        config = WorldConfig(grid_h=10, grid_w=12, level=0.0, lane_rows=(2, 5), goal_size=world_goal_size,
                             warmup_steps=0)
        state = build_state(config=config, lanes=[(2, 1, LEFT_TO_RIGHT), (5, 3, RIGHT_TO_LEFT)],
                            obstacles=[(0, 4.0, 3, 1.0), (1, 9.0, 2, -0.5)], goal=goal)
        timeline = timeline_of(state)
        cfg = MCTSConfig(n_rollouts=300, rollout_length=4, shaping_beta=0.5)
        frames = timeline.rollout(0, 4)
        assert all(frame._record is not None for frame in frames)
        agent = (goal[0] + 1.0, goal[1] + 1.0)
        for goal_size in range(5):
            assert_same_search(agent, frames, cfg, 1.0, goal_size=goal_size)
            assert_same_search((0.0, 9.0), frames, cfg, 0.5, goal_size=goal_size)

    def test_copy_and_pickle_drop_the_address(self):
        """A copy, a pickle or a ``dataclasses.replace`` of a timeline frame drops the timeline's record and the
        address in it: a copy searches as its original does, a replaced goal or occupancy is what the search
        reads."""
        frames = Timeline(WorldConfig(), 3).rollout(10, 3)
        agent = (20.0, 20.0)
        changes = {"goal": lambda frame: replace(frame, goal_estimate=(21.0, 20.0)),
                   "no goal": lambda frame: replace(frame, goal_estimate=None),
                   "occupancy": lambda frame: replace(frame, occupancy=np.ones_like(frame.occupancy)),
                   "copy": copy.copy, "deepcopy": copy.deepcopy,
                   "pickle": lambda frame: pickle.loads(pickle.dumps(frame))}
        original = node_record(run_search(agent, frames, self.CFG, 1.0))
        for name, change in changes.items():
            changed = tuple(map(change, frames))
            assert all(frame._record is None for frame in changed), name
            assert_same_search(agent, changed, self.CFG, 1.0)
            root = node_record(run_search(agent, changed, self.CFG, 1.0))
            assert (root == original) == (name in ("copy", "deepcopy", "pickle")), name

    @pytest.mark.parametrize("goal, error, message", [
        ((math.nan, 3.0), ValueError, "cannot convert float NaN to integer"),
        ((3.0, math.nan), ValueError, "cannot convert float NaN to integer"),
        ((math.inf, 3.0), OverflowError, "cannot convert float infinity to integer"),
        ((3.0, -math.inf), OverflowError, "cannot convert float infinity to integer"),
    ])
    def test_an_estimate_that_is_not_finite_raises(self, goal, error, message):
        timeline = Timeline(WorldConfig(), 3)
        frames = (*timeline.rollout(0, 2), PredictedFrame(timeline.predicted(3).occupancy, goal))
        with pytest.raises(error, match=message):
            run_search((4.0, 5.0), frames, self.CFG, 1.0)
        assert outcome(reference_search, (4.0, 5.0), frames, self.CFG, 1.0) == (error, message)
        model = ForwardModel("custom", lambda timeline, t, k: (*timeline.rollout(t, k - 1),
                                                               PredictedFrame(frames[-1].occupancy, goal)))
        record = run_episode(WorldConfig(), self.CFG, model, 3)
        assert type(record.exception) is error and str(record.exception) == message
        assert record.steps == 0


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

    def test_a_build_removes_the_objects_of_earlier_builds(self, tmp_path):
        """Two edited copies of the sources built into one cache leave one object of this interpreter and
        numpy: the last one built. An object named without the numpy version goes too; another
        interpreter's object and another numpy's stay."""
        cache = tmp_path / "cache"
        cache.mkdir()
        tag = sys.implementation.cache_tag
        kept = [cache / "_kernel.other-interpreter-0123456789abcdef.so",
                cache / f"_kernel.{tag}-np0.0-0123456789abcdef.so"]
        unversioned = cache / f"_kernel.{tag}-0123456789abcdef.so"
        for path in (*kept, unversioned):
            path.write_bytes(b"")
        for edit in ("a", "b"):
            (tmp_path / edit).mkdir()
            sources = self.edited_sources(tmp_path / edit, "_world.c", "#include <math.h>\n",
                                          f"#include <math.h>\n/* build {edit} */\n")
            library = kernel._load_kernel(cache, sources)
        built = sorted(path.name for path in cache.iterdir())
        assert built == sorted([*(path.name for path in kept), Path(library._name).name])
        assert Path(library._name).name.startswith(f"_kernel.{tag}-np{np.__version__}-")

    def test_an_object_removed_before_its_load_is_built_again(self, tmp_path, monkeypatch):
        """A concurrent build of other sources may remove the object between this build and its load:
        the load then builds it once more."""
        compiles, load = [], ctypes.CDLL
        compile_ = kernel._compile
        monkeypatch.setattr(kernel, "_compile", lambda command: (compiles.append(command), compile_(command)))

        def load_after_a_removal(name):
            if len(compiles) == 1:
                os.unlink(name)
            return load(name)

        monkeypatch.setattr(kernel.ctypes, "CDLL", load_after_a_removal)
        library = kernel._load_kernel(tmp_path)
        assert len(compiles) == 2
        assert [path.name for path in tmp_path.iterdir()] == [Path(library._name).name]
        assert hasattr(library, "lanenav_rasterize")

    def test_a_missing_numpy_archive_fails_the_load_naming_it(self, tmp_path, monkeypatch):
        missing = tmp_path / "numpy" / "random" / "lib" / "libnpyrandom.a"
        monkeypatch.setattr(kernel, "_ARCHIVE", missing)
        assert str(missing) in kernel._command("target")
        with pytest.raises(ImportError, match=re.escape(str(missing))) as caught:
            kernel._load_kernel(tmp_path / "cache")
        assert str(caught.value).startswith("cannot build the C kernels: ")
        assert not (tmp_path / "cache").exists()

    def test_every_field_has_its_assertion_in_the_header(self):
        layouts = [value for value in vars(kernel).values() if isinstance(value, kernel.Layout)]
        assert {layout.__name__ for layout in layouts} == {"Node", "Prior", "Search", "Frame", "Step", "Play", "World",
                                                           "Timeline", "Start", "FrameRead"}
        for layout in layouts:
            name = layout.__name__
            assert issubclass(layout, ctypes.Structure) and f"}} {name};\n" in kernel.HEADER
            for field, _ in layout._fields_:
                offset = getattr(layout, field).offset
                assert f'_Static_assert(offsetof({name}, {field}) == {offset}, "{name}.{field}");' in kernel.HEADER
            assert f'_Static_assert(sizeof({name}) == {ctypes.sizeof(layout)}, "sizeof {name}");' in kernel.HEADER

    def test_a_layout_c_lays_out_differently_fails_the_import(self, tmp_path):
        """A copy of the package whose ``Layout`` declares the node's int32 children as int64_t in C, while ctypes
        keeps them int32: C then lays out Node's depth past where ctypes puts it, and the build, so the import,
        fails naming the field."""
        package = tmp_path / "lanenav"
        shutil.copytree(Path(kernel.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__"))
        declarations = package / "kernel.py"
        text = declarations.read_text()
        assert text.count('"i": ("int32_t", ctypes.c_int32)') == 1
        declarations.write_text(text.replace('"i": ("int32_t", ctypes.c_int32)', '"i": ("int64_t", ctypes.c_int32)'))
        done = subprocess.run([sys.executable, "-c", "import lanenav"], env={**os.environ, "PYTHONPATH": str(tmp_path)},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode != 0
        assert "ImportError: cannot build the C kernels" in done.stderr and '"Node.depth"' in done.stderr

    def test_a_source_reading_an_undeclared_field_fails_the_build(self, tmp_path):
        sources = self.edited_sources(tmp_path, "_search.c", "const int64_t k = search->k,",
                                      "const int64_t k = search->k + search->spare,")
        with pytest.raises(ImportError) as caught:
            kernel._load_kernel(tmp_path / "cache", sources)
        assert re.search(r"no member named \W*spare", str(caught.value))

    def test_no_source_declares_what_the_header_defines(self):
        """The structs, constants, error codes, table columns and function prototypes are declared once, in
        the generated header: neither source restates one of them."""
        defined = set(re.findall(r"^#define (\w+)", kernel.HEADER, re.MULTILINE))
        assert defined >= {"N_ACTIONS", "MAX_DEPTH", "GOAL", "N_COLUMNS", "N_LANE_COLUMNS", "MAX_LEN1", "PLAY_ENDED",
                           "PLAY_STOPPED", "NEED_ROOM", *kernel.ERRORS}
        enumerated = {name.strip() for body in re.findall(r"\benum\s*\{([^}]*)\}", kernel.HEADER)
                      for name in body.split(",")}
        assert enumerated == {*kernel.OUTCOMES, *kernel.OBSTACLE_COLUMNS, *kernel.LANE_COLUMNS}
        prototypes = set(re.findall(r"^int64_t (lanenav_\w+)\([^)]*\);$", kernel.HEADER, re.MULTILINE))
        definitions = set()
        for source in kernel._SOURCES:
            text = source.read_text()
            assert "typedef struct" not in text, source.name
            assert not defined & set(re.findall(r"^\s*#\s*define\s+(\w+)", text, re.MULTILINE)), source.name
            assert not re.search(r"#\s*define\s+ERR_", text), source.name
            assert not re.search(r"\benum\s*\{", text), source.name
            # A prototype at file scope ends its parameter list with ';', where a definition opens its body.
            assert not re.search(r"^\w[^;{}()]*\blanenav_\w+\s*\([^;{}]*\)\s*;", text, re.MULTILINE), source.name
            definitions |= set(re.findall(r"^int64_t (lanenav_\w+)\(", text, re.MULTILINE))
        assert prototypes == definitions == set(kernel.FUNCTIONS)
        assert not hasattr(kernel, "_SIGNATURES")

    def test_argument_types_come_from_the_declarations(self):
        kinds = {"const char *": ctypes.c_char_p, "int64_t": ctypes.c_int64, "double": ctypes.c_double}
        for name, parameters in kernel.FUNCTIONS.items():
            function = getattr(kernel.library, name)
            assert function.restype is ctypes.c_int64, name
            assert list(function.argtypes) == [kinds.get(parameter, ctypes.c_void_p) for parameter in parameters]
            assert all(parameter in kinds or parameter.endswith(" *") for parameter in parameters), name

    def test_a_definition_that_differs_from_its_declaration_fails_the_import(self, tmp_path):
        """A copy of the package whose frame loop takes an int32_t time where kernel.py declares int64_t: the
        build, and so the import, fails naming the function."""
        package = tmp_path / "lanenav"
        shutil.copytree(Path(kernel.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__"))
        source = package / "_world.c"
        text = source.read_text()
        old = "int64_t lanenav_advance(Timeline *timeline, int64_t t)"
        assert text.count(old) == 1
        source.write_text(text.replace(old, "int64_t lanenav_advance(Timeline *timeline, int32_t t)"))
        done = subprocess.run([sys.executable, "-c", "import lanenav"], env={**os.environ, "PYTHONPATH": str(tmp_path)},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode != 0
        assert "ImportError: cannot build the C kernels" in done.stderr
        assert re.search(r"conflicting types for \W*lanenav_advance", done.stderr)

    def test_a_changed_header_builds_a_new_object(self, tmp_path, monkeypatch):
        """No load-time check compares the object with the declarations, so the header keys the object: a
        stale one never loads."""
        compiles, compile_ = [], kernel._compile
        monkeypatch.setattr(kernel, "_compile", lambda command: (compiles.append(command), compile_(command)))
        first = Path(kernel._load_kernel(tmp_path)._name)
        monkeypatch.setattr(kernel, "HEADER", kernel.HEADER + "/* changed */\n")
        second = Path(kernel._load_kernel(tmp_path)._name)
        assert len(compiles) == 2 and second != first
        assert list(tmp_path.iterdir()) == [second]


# What each kernel error code raised, by its C name, since the codes were made distinct. The two that both
# sources named ERR_MEMORY have a name each now.
PARENT_ERRORS = {
    "ERR_OVERFLOW": (-1, OverflowError, "math range error"),
    "ERR_ZERO_DIV": (-2, ZeroDivisionError, "float division by zero"),
    "ERR_NAN_POS": (-3, ValueError, "cannot convert float NaN to integer"),
    "ERR_DEPTH": (-4, ValueError, "rollout_length must be in 1..64"),
    "ERR_EMPTY": (-5, ValueError, "max() arg is an empty sequence"),
    "ERR_SELECT_MEMORY": (-6, MemoryError, "select"),  # _search.c's ERR_MEMORY
    "ERR_ACTION": (-7, ValueError, "action must be in 0..7"),
    "ERR_LANE": (-8, ValueError, "obstacle table: a lane index outside the lane table, or not a whole number"),
    "ERR_LENGTH": (-9, ValueError, "obstacle table: a LEN1 that is NaN or outside 0..2147483647"),
    "ERR_ROW": (-10, ValueError, "a lane row outside the grid"),
    "ERR_DRAWS": (-11, ValueError, "spawn counts past the uniforms or rows given"),
    "ERR_STEP_MEMORY": (-12, MemoryError, "world step"),  # _world.c's ERR_MEMORY
    # Where render_frame's round_px of the goal position raised.
    "ERR_GOAL_NAN": (-13, ValueError, "cannot convert float NaN to integer"),
    "ERR_GOAL_INF": (-14, OverflowError, "cannot convert float infinity to integer"),
    # Where world_step raised, as Generator.poisson does, before the check moved into the step kernel.
    "ERR_LAM": (-15, ValueError, "lam value too large"),
    # Where the goal's reflection bounced without end instead.
    "ERR_GOAL_FAR": (-16, ValueError, "goal position more than 256 cells outside its walls"),
    # Where new_episode's placement in Python raised, with these messages.
    "ERR_NO_FREE_CELL": (-17, PlacementError, "no obstacle-free pixel for the agent"),
    "ERR_AGENT_PLACEMENT": (-18, PlacementError, "agent placement failed"),
    "ERR_GOAL_PLACEMENT": (-19, PlacementError, "goal placement failed"),
}


def test_error_table_matches_the_sources():
    """The sources read each code from the header's #define, which ERRORS generates: every code keeps its
    value, exception and message, and no two codes share a value."""
    defines = re.findall(r"^#define (ERR_\w+) \((-\d+)\)$", kernel.HEADER, re.MULTILINE)
    assert len(defines) == kernel.HEADER.count("#define ERR_")
    assert {name: int(code) for name, code in defines} == {name: code for name, (code, *_) in PARENT_ERRORS.items()}
    assert kernel.ERRORS == PARENT_ERRORS
    codes = [code for code, *_ in kernel.ERRORS.values()]
    assert len(set(codes)) == len(codes)
    for code, error, message in PARENT_ERRORS.values():
        with pytest.raises(error) as caught:
            kernel.check(code)
        assert type(caught.value) is error and str(caught.value) == message
