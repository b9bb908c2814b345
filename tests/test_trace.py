"""Trace files, and the kernel's RLE frame codec against the numpy codec of conftest.py: text, frame, and each
decision with its message."""
import json
import re
import time
from itertools import groupby

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import FUZZ_VALUES, agent_turn, frames_equal, reference_frame_to_rle, reference_rle_to_frame
from lanenav import tracefile
from lanenav.cli import main
from lanenav.harness import run_episode
from lanenav.mcts import MCTSConfig
from lanenav.models import MAX_NOISY_SAMPLES
from lanenav.seeding import episode_seed
from lanenav.tracefile import frame_to_rle, read_trace, rle_to_frame, write_trace
from lanenav.world import (
    GOAL,
    MAX_ARRIVALS,
    MAX_BODY,
    MAX_GOAL_SPEED,
    MAX_GRID,
    MAX_WARMUP_STEPS,
    WorldConfig,
    new_episode,
    render_frame,
)

pytestmark = pytest.mark.bitpin


class TestRLE:
    def test_empty_frame(self):
        frame = np.zeros((48, 48), dtype=np.uint8)
        assert frame_to_rle(frame) == "0:2304"

    def test_simple_runs(self):
        frame = np.array([[0, 0, 3, 3, 3, 6]], dtype=np.uint8)
        assert frame_to_rle(frame) == "0:2,3:3,6:1"

    def test_round_trip_real_frame(self):
        state = new_episode(WorldConfig(), 4)
        frame = render_frame(state)
        assert frames_equal(rle_to_frame(frame_to_rle(frame), 48, 48), frame)

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=96))
    def test_round_trip_random(self, values):
        frame = np.array(values, dtype=np.uint8).reshape(1, -1)
        decoded = rle_to_frame(frame_to_rle(frame), 1, frame.shape[1])
        assert frames_equal(decoded, frame)
        # The text is a run-by-run loop encoder's.
        assert frame_to_rle(frame) == ",".join(f"{v}:{len(list(run))}" for v, run in groupby(values))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rle_to_frame("0:5", 2, 2)

    def test_size_checked_before_decoding(self, monkeypatch):
        """A line of many full-grid runs is rejected from its counts: its cost follows its length, not the
        cells its counts add up to, and no frame is made for it."""
        def no_frame(*args, **kwargs):
            raise AssertionError("decoded before the size check")

        monkeypatch.setattr(tracefile, "zeroed", no_frame)
        with pytest.raises(ValueError, match="^RLE decodes to 2304000 cells, expected 2304$"):
            rle_to_frame(",".join(["0:2304"] * 1000), 48, 48)

    @pytest.mark.parametrize("rle, token", [
        ("7:2304", "7:2304"),
        ("300:2304", "300:2304"),
        ("0:2304,99999999999999999999999:0", "99999999999999999999999:0"),
        ("0:99999999999999999999999", "0:99999999999999999999999"),
        # Too long for int64; 2**64 + 2304 would wrap to a valid count.
        ("0:99999999999999999999", "0:99999999999999999999"),
        ("0:18446744073709553920", "0:18446744073709553920"),
    ])
    def test_out_of_range_token_named(self, rle, token):
        with pytest.raises(ValueError, match=f"bad RLE token '{token}'"):
            rle_to_frame(rle, 48, 48)

    @pytest.mark.parametrize("rle, token", [
        ("", ""),
        ("0:2304,", ""),
        ("x:2304", "x:2304"),
        ("0:2000,6", "6"),
        ("0-2304", "0-2304"),
        ("0:1.5", "0:1.5"),
        ("0:2300,-1:4", "-1:4"),
        ("0:2300,3:-6,0:10", "3:-6"),
        ("0:1:2,0:2302", "0:1:2"),
        ("0:2304, ", " "),
    ])
    def test_malformed_token_named(self, rle, token):
        with pytest.raises(ValueError, match=f"malformed RLE token '{token}'"):
            rle_to_frame(rle, 48, 48)

    @given(st.text(alphabet="0123456789:,-x ", max_size=40))
    def test_fuzzed_input_raises_only_value_error(self, rle):
        try:
            frame = rle_to_frame(rle, 2, 3)
        except ValueError:
            return
        assert frame.shape == (2, 3) and frame.max() <= 6


def _decoded(decode, rle: str, grid_h: int, grid_w: int) -> tuple:
    """What a decoder makes of a line: its frame's shape, dtype and bytes, or its ValueError's message."""
    try:
        frame = decode(rle, grid_h, grid_w)
    except ValueError as exc:
        return "rejected", str(exc)
    return "decoded", frame.shape, frame.dtype.str, frame.tobytes()


# Short numbers, and numbers about as long as int64's maximum or longer.
_DIGITS = st.text(alphabet="0123456789", min_size=1, max_size=4) | st.text(alphabet="0123456789", min_size=18,
                                                                             max_size=30)
# Tokens of the grammar with any numbers, near misses of it, and characters outside it: non-ASCII digits and
# letters, NUL, a lone surrogate, spaces and signs.
_TOKENS = (st.tuples(_DIGITS, _DIGITS).map(":".join)
           | st.sampled_from(["", ":", "0:", ":5", "0:1:2", "-1:4", "3:-6", "0:1.5", " 0:4", "0:4\x00", "\x00"])
           | st.text(alphabet="0123456789:,-+ x\x00é٣\ud800", max_size=8))
# Tokens joined by ',' mostly, else by a character the grammar does not take between tokens.
_RLE_LINES = (st.lists(st.tuples(_TOKENS, st.sampled_from(",,,,,:; x\x00é")), max_size=8).map(
    lambda pairs: "".join(token + joiner for token, joiner in pairs)[:-1]) | st.text(max_size=20))


class TestCodecAgainstReference:
    """The kernel's codec against the numpy codec of ``conftest``: the same text, the same frame, and the same
    decision with the same message on any line."""

    @given(st.integers(0, 6), st.integers(1, 64), st.data())
    def test_encoder_text(self, height, width, data):
        values = st.integers(0, 255) if data.draw(st.booleans()) else st.integers(0, 2)
        frame = np.array(data.draw(st.lists(values, min_size=height * width, max_size=height * width)),
                         dtype=np.uint8).reshape(height, width)
        assert frame_to_rle(frame) == reference_frame_to_rle(frame)

    @pytest.mark.parametrize("seed", range(5))
    def test_encoder_text_on_world_frames(self, seed):
        frame = render_frame(new_episode(WorldConfig().for_speed("2x"), seed))
        assert frame_to_rle(frame) == reference_frame_to_rle(frame)
        assert frame_to_rle(frame.T) == reference_frame_to_rle(frame.T)

    def test_encoder_takes_only_byte_frames(self):
        with pytest.raises(TypeError, match="uint8"):
            frame_to_rle(np.zeros((2, 2), dtype=np.int64))

    @given(st.integers(1, 6), st.integers(1, 12), st.data())
    def test_decoder_round_trip(self, height, width, data):
        frame = np.array(data.draw(st.lists(st.integers(0, GOAL), min_size=height * width,
                                            max_size=height * width)), dtype=np.uint8).reshape(height, width)
        rle = reference_frame_to_rle(frame)
        assert _decoded(rle_to_frame, rle, height, width) == _decoded(reference_rle_to_frame, rle, height, width)
        assert frames_equal(rle_to_frame(rle, height, width), frame)

    @given(_RLE_LINES, st.integers(-2, 8), st.integers(0, 8))
    @settings(max_examples=300)
    def test_decoder_decision(self, rle, grid_h, grid_w):
        assert _decoded(rle_to_frame, rle, grid_h, grid_w) == _decoded(reference_rle_to_frame, rle, grid_h, grid_w)

    @pytest.mark.parametrize("rle", [
        "", "\x00", "0:2304\x00", "é", "٣:2304", "\ud800", "0:2304" + "0" * 30, "0:2305", "6:2303,0:2",
        "0:1x0:2303", "0:2300:0:4", "0:2300 0:4", "0:2300\x000:4", "0:2300,,0:4", "0:2304,",
        ",".join(["0:2304"] * 1000),
        ",".join(["0:2304"] * 999 + ["7:2304"]),
        ",".join(["0:2304"] * 999 + ["0:2304x"]),
        ",".join(["9:2304"] + ["0:2304"] * 998 + ["0:"]),
        ",".join(["0:9223372036854775807"] * 1000),
        ",".join(["0:99999999999999999999999999"] * 1000),
        "0:9223372036854775807", "0:9223372036854775808", "7:9223372036854775808",
        "0:18446744073709553920", "18446744073709551622:2304",
    ])
    def test_decoder_decision_on_edge_lines(self, rle):
        assert _decoded(rle_to_frame, rle, 48, 48) == _decoded(reference_rle_to_frame, rle, 48, 48)


class TestTraceFile:
    def test_write_read_round_trip(self, tmp_path):
        world = WorldConfig(max_steps=40)
        mcts = MCTSConfig(n_rollouts=20, rollout_length=1)
        record = run_episode(world, mcts, "oracle", episode_seed(9, 0), keep_frames=True)
        path = tmp_path / "episode.jsonl"
        write_trace(path, record)

        trace = read_trace(path)
        assert trace.episode_seed == record.episode_seed
        assert trace.model_spec == "oracle"
        assert trace.world_config == world
        assert trace.mcts_config == mcts
        assert trace.outcome == record.outcome.kind
        assert trace.steps == record.trace
        for i in range(len(trace.steps)):
            assert frames_equal(trace.frame_at(i), record.frames[i + 1])

    def test_trace_replays_through_env(self, tmp_path):
        world = WorldConfig(max_steps=40)
        mcts = MCTSConfig(n_rollouts=20, rollout_length=1)
        record = run_episode(world, mcts, "velocity", episode_seed(9, 1), keep_frames=True)
        path = tmp_path / "episode.jsonl"
        write_trace(path, record)

        trace = read_trace(path)
        state = new_episode(trace.world_config, trace.episode_seed)
        x, y = state.start
        for i, step in enumerate(trace.steps):
            x, y, outcome = agent_turn(state, x, y, step.action)
            assert (x, y) == (step.agent_x, step.agent_y)
            assert outcome.reward == step.reward
            assert outcome.kind == step.outcome
            assert frames_equal(render_frame(state), trace.frame_at(i))

    def test_step_record_fields(self, tmp_path):
        record = run_episode(WorldConfig(max_steps=10), MCTSConfig(n_rollouts=5, rollout_length=1),
                             "frozen", episode_seed(9, 2), keep_frames=True)
        path = tmp_path / "t.jsonl"
        write_trace(path, record)
        step = json.loads(path.read_text().splitlines()[1])
        assert set(step) == {"t", "agent_pos", "action", "reward", "outcome", "frame_rle"}

    @pytest.mark.parametrize("spec", ["oracle", "velocity", "none"])
    def test_steps_read_back_as_records(self, tmp_path, spec):
        record = run_episode(WorldConfig(max_steps=40), MCTSConfig(n_rollouts=20, rollout_length=3),
                             spec, episode_seed(9, 5), keep_frames=True)
        path = tmp_path / "t.jsonl"
        write_trace(path, record)
        assert read_trace(path).steps == record.trace

    def test_requires_frames(self, tmp_path):
        record = run_episode(WorldConfig(max_steps=10), MCTSConfig(n_rollouts=5, rollout_length=1),
                             "frozen", episode_seed(9, 3))
        with pytest.raises(ValueError):
            write_trace(tmp_path / "t.jsonl", record)

    def test_rejects_non_trace(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "other"}\n')
        with pytest.raises(ValueError):
            read_trace(path)


@pytest.fixture(scope="module")
def trace_lines(tmp_path_factory) -> list[str]:
    record = run_episode(WorldConfig(max_steps=10), MCTSConfig(n_rollouts=5, rollout_length=1),
                         "frozen", episode_seed(9, 4), keep_frames=True)
    path = tmp_path_factory.mktemp("trace") / "t.jsonl"
    write_trace(path, record)
    return path.read_text().splitlines()


DELETE = object()


def _edited(lines: list[str], number: int, **fields) -> list[str]:
    """Trace lines with fields of line ``number`` (1-based) replaced; DELETE deletes."""
    record = json.loads(lines[number - 1])
    for key, value in fields.items():
        if value is DELETE:
            del record[key]
        else:
            record[key] = value
    return lines[:number - 1] + [json.dumps(record)] + lines[number:]


def _read(tmp_path, lines: list[str]):
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path, lambda: read_trace(path)


class TestReadTraceSchema:
    def test_valid_trace_reads(self, trace_lines, tmp_path):
        _, read = _read(tmp_path, trace_lines)
        assert len(read().steps) == len(trace_lines) - 1

    @pytest.mark.parametrize("line", ["{not json", "[1, 2]", '"step"', ""])
    def test_malformed_step_line_named(self, trace_lines, tmp_path, line):
        path, read = _read(tmp_path, [*trace_lines[:2], line, *trace_lines[3:]])
        with pytest.raises(ValueError, match=re.escape(f"{path}:3:")):
            read()

    def test_malformed_header_named(self, trace_lines, tmp_path):
        path, read = _read(tmp_path, ['{"kind": "header",', *trace_lines[1:]])
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: malformed JSON")):
            read()

    @pytest.mark.parametrize("key", ["episode_seed", "model", "outcome", "world", "mcts"])
    def test_missing_header_key_named(self, trace_lines, tmp_path, key):
        path, read = _read(tmp_path, _edited(trace_lines, 1, **{key: DELETE}))
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: missing field '{key}'")):
            read()

    @pytest.mark.parametrize("fields", [
        {"episode_seed": "7"}, {"episode_seed": True}, {"model": 3}, {"outcome": "won"},
        {"world": [1]}, {"mcts": "default"},
        {"world": {"grid_h": 48}}, {"mcts": {"n_rollouts": 1, "bogus": 2}},
    ])
    def test_bad_header_value_named(self, trace_lines, tmp_path, fields):
        path, read = _read(tmp_path, _edited(trace_lines, 1, **fields))
        with pytest.raises(ValueError, match=re.escape(f"{path}:1:")):
            read()

    def test_invalid_header_config_named(self, trace_lines, tmp_path):
        world = json.loads(trace_lines[0])["world"]
        path, read = _read(tmp_path, _edited(trace_lines, 1, world={**world, "grid_h": 0}))
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: bad config in header")):
            read()

    @pytest.mark.parametrize("section, key, value", [
        ("world", "grid_h", 48.5), ("world", "max_steps", "203"), ("world", "lane_rows", [2, 4.5]),
        ("world", "goal_size", True), ("mcts", "n_rollouts", 5.5), ("mcts", "rollout_length", "1"),
    ])
    def test_non_integer_header_field_named(self, trace_lines, tmp_path, section, key, value):
        config = json.loads(trace_lines[0])[section]
        path, read = _read(tmp_path, _edited(trace_lines, 1, **{section: {**config, key: value}}))
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: bad config in header")):
            read()

    @pytest.mark.parametrize("section, key", [("world", "level"), ("world", "agent_speed"), ("mcts", "temperature")])
    def test_boolean_real_header_field_named(self, trace_lines, tmp_path, section, key):
        config = json.loads(trace_lines[0])[section]
        path, read = _read(tmp_path, _edited(trace_lines, 1, **{section: {**config, key: True}}))
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: bad config in header") + f".*{key}"):
            read()

    def test_non_integer_class_id_named(self, trace_lines, tmp_path):
        world = json.loads(trace_lines[0])["world"]
        classes = [{**world["obstacle_classes"][0], "class_id": 1.0}, *world["obstacle_classes"][1:]]
        path, read = _read(tmp_path, _edited(trace_lines, 1, world={**world, "obstacle_classes": classes}))
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: bad config in header")):
            read()

    @pytest.mark.parametrize("key", ["t", "agent_pos", "action", "reward", "outcome", "frame_rle"])
    def test_missing_step_key_named(self, trace_lines, tmp_path, key):
        path, read = _read(tmp_path, _edited(trace_lines, 3, **{key: DELETE}))
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: missing field '{key}'")):
            read()

    @pytest.mark.parametrize("key, value", [
        ("t", "1"), ("t", 0), ("t", 1.0), ("t", True),
        ("agent_pos", [1.0]), ("agent_pos", [1.0, "2"]), ("agent_pos", [1.0, 2.0, 3.0]),
        ("agent_pos", {"x": 1}), ("agent_pos", [float("inf"), 2.0]), ("agent_pos", [True, 2.0]),
        ("agent_pos", [10**400, 2.0]), ("reward", -10**400),
        ("action", 8), ("action", -1), ("action", 1.0), ("action", "0"),
        ("reward", "0"), ("reward", [0]), ("reward", float("nan")), ("reward", False),
        ("outcome", "won"), ("outcome", 1), ("outcome", ["died"]),
        ("frame_rle", 5), ("frame_rle", ["0:2304"]),
    ])
    def test_bad_step_value_named(self, trace_lines, tmp_path, key, value):
        path, read = _read(tmp_path, _edited(trace_lines, 3, **{key: value}))
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: field '{key}' must be")):
            read()

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(key=st.sampled_from(["t", "agent_pos", "action", "reward", "outcome", "frame_rle", "kind"]),
           value=st.recursive(st.none() | st.booleans() | st.integers(-3, 10) | st.integers() | st.floats()
                              | st.text(max_size=5),
                              lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                                          max_size=2),
                              max_leaves=4),
           line=st.integers(1, 3))
    def test_fuzzed_fields_raise_only_value_error(self, trace_lines, tmp_path, key, value, line):
        _, read = _read(tmp_path, _edited(trace_lines, line, **{key: value}))
        try:
            read()
        except ValueError:
            pass


class TestReadTraceSequence:
    """The lines against each other: t order, where the episode ends, the header outcome."""

    def test_written_trace_ends_on_its_outcome(self, trace_lines):
        steps = [json.loads(line) for line in trace_lines[1:]]
        assert [s["t"] for s in steps] == list(range(1, len(steps) + 1))
        assert all(s["outcome"] == "running" for s in steps[:-1])
        assert json.loads(trace_lines[0])["outcome"] == steps[-1]["outcome"] != "running"

    @pytest.mark.parametrize("t", [1, 3, 99])
    def test_step_t_out_of_order_named(self, trace_lines, tmp_path, t):
        path, read = _read(tmp_path, _edited(trace_lines, 3, t=t))
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: step t must be 2, got {t}")):
            read()

    @pytest.mark.parametrize("outcome", ["died", "goal", "timeout"])
    def test_terminal_step_before_the_last_named(self, trace_lines, tmp_path, outcome):
        path, read = _read(tmp_path, _edited(trace_lines, 2, outcome=outcome))
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: outcome '{outcome}' ends the episode")):
            read()

    def test_header_outcome_differs_from_last_step_named(self, trace_lines, tmp_path):
        last = json.loads(trace_lines[-1])["outcome"]
        other = next(o for o in ("died", "goal", "timeout", "running") if o != last)
        path, read = _read(tmp_path, _edited(trace_lines, 1, outcome=other))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:1: header outcome '{other}' does not match the last step's '{last}'")):
            read()

    def test_header_without_steps_must_be_running(self, trace_lines, tmp_path):
        path, read = _read(tmp_path, _edited(trace_lines[:1], 1, outcome="running"))
        assert read().steps == []
        path, read = _read(tmp_path, trace_lines[:1])
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: header outcome")):
            read()


def _json_value(text: str):
    """``text`` as the JSON value it spells, else as a string."""
    try:
        return json.loads(text)
    except ValueError:
        return text


def _not_json(text: str) -> bool:
    return _json_value(text) is text


def _line_edit(data, lines: list[str]) -> list[str]:
    """``lines`` after one drawn edit: drop, duplicate, swap or truncate a line, cut the file
    short, set one field of a line to a fuzzed value, or insert a line that is not JSON."""
    lines = list(lines)
    i = data.draw(st.integers(0, len(lines) - 1))
    edit = data.draw(st.sampled_from(["drop", "duplicate", "swap", "truncate", "cut", "field", "insert"]))
    if edit == "drop":
        del lines[i]
    elif edit == "duplicate":
        lines.insert(i, lines[i])
    elif edit == "swap":
        j = data.draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif edit == "truncate":
        lines[i] = lines[i][:data.draw(st.integers(0, len(lines[i])))]
    elif edit == "cut":
        del lines[i:]
    elif edit == "field" and type(record := _json_value(lines[i])) is dict and record:
        record[data.draw(st.sampled_from(sorted(record)))] = _json_value(data.draw(FUZZ_VALUES))
        lines[i] = json.dumps(record)
    elif edit == "insert":
        lines.insert(i, data.draw(st.text(max_size=20).filter(_not_json)))
    return lines


class TestWholeTraceFuzz:
    """Trace files made from a written trace by line edits: ``read_trace`` raises only
    ``ValueError``, and ``lanenav render`` exits 0 or 2 without a traceback."""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_edited_trace_reads_or_is_rejected(self, trace_lines, tmp_path, capsys, data):
        lines = trace_lines
        for _ in range(data.draw(st.integers(1, 3))):
            if lines:
                lines = _line_edit(data, lines)
        path, read = _read(tmp_path, lines)
        try:
            read()
        except ValueError:
            pass
        capsys.readouterr()
        code = main(["render", "--trace", str(path), "--horizon", "1", "--out-dir", str(tmp_path / "imgs")])
        err = capsys.readouterr().err
        assert code in (0, 2) and "Traceback" not in err, err

    @pytest.mark.parametrize("model", ["", "bogus", "noisy:2,0,1,1", f"noisy:0.1,0.02,1,{MAX_NOISY_SAMPLES + 1}"])
    def test_bad_header_model_spec_named(self, trace_lines, tmp_path, capsys, model):
        # The whole-trace fuzz's find: a bad header model spec is bad input (exit 2), not a runtime error (exit 1).
        path, read = _read(tmp_path, _edited(trace_lines, 1, model=model))
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: bad config in header")):
            read()
        assert main(["render", "--trace", str(path), "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"bad trace: {path}:1: bad config in header")


# Huge, negative, float, bool and string values for the header's world fields.
HEADER_VALUES = (st.integers() | st.integers(10 ** 6, 10 ** 30) | st.integers(10 ** 300, 10 ** 400)
                 | st.integers(max_value=-1) | st.floats() | st.booleans() | st.text(max_size=5))


def _render(path, tmp_path, capsys) -> tuple[int, str]:
    capsys.readouterr()
    code = main(["render", "--trace", str(path), "--horizon", "1", "--out-dir", str(tmp_path / "imgs")])
    return code, capsys.readouterr().err


class TestHeaderConfigFuzz:
    """The world config nested in the header, the sizes that drive work among it: ``read_trace``
    raises only ``ValueError``, and ``lanenav render`` exits 2 on what it rejects, else 0."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_fuzzed_world_field_reads_or_is_rejected(self, trace_lines, tmp_path, capsys, data):
        header = json.loads(trace_lines[0])
        key = data.draw(st.sampled_from(["grid_h", "grid_w", "warmup_steps", "level", "spawn_base_rate",
                                         "mean_length", "length_jitter"]))
        if key in ("mean_length", "length_jitter"):
            classes = header["world"]["obstacle_classes"]
            classes[data.draw(st.integers(0, len(classes) - 1))][key] = data.draw(HEADER_VALUES)
        else:
            header["world"][key] = data.draw(HEADER_VALUES)
        path, read = _read(tmp_path, [json.dumps(header), *trace_lines[1:]])
        try:
            read()
            rejected = False
        except ValueError:
            rejected = True
        code, err = _render(path, tmp_path, capsys)
        assert code == (2 if rejected else 0) and "Traceback" not in err, err

    def test_header_at_every_bound_renders_in_seconds(self, trace_lines, tmp_path, capsys):
        header = json.loads(trace_lines[0])
        classes = [{**c, "mean_length": MAX_BODY - 1.0, "length_jitter": 1.0}
                   for c in header["world"]["obstacle_classes"]]
        header["world"].update(grid_h=MAX_GRID, grid_w=MAX_GRID, warmup_steps=MAX_WARMUP_STEPS,
                               goal_speed=MAX_GOAL_SPEED, lane_rows=list(range(MAX_GRID)),
                               level=MAX_ARRIVALS / MAX_GRID, spawn_base_rate=1.0, obstacle_classes=classes)
        path, read = _read(tmp_path, [json.dumps(header), *trace_lines[1:]])
        assert read().world_config.grid_h == MAX_GRID
        start = time.perf_counter()
        code, err = _render(path, tmp_path, capsys)
        assert code == 0, err
        # A few seconds on a 2-core machine; the margin is for slow hosts.
        assert time.perf_counter() - start < 60.0

    @pytest.mark.parametrize("key, value", [("level", 10 ** 400), ("goal_speed", 1e9), ("warmup_steps", 10 ** 12),
                                            ("max_steps", 10 ** 12)])
    def test_header_sizes_past_the_bounds_named(self, trace_lines, tmp_path, capsys, key, value):
        # No OverflowError from a huge integer, and no goal reflecting without end at a huge speed.
        header = json.loads(trace_lines[0])
        header["world"][key] = value
        path, read = _read(tmp_path, [json.dumps(header), *trace_lines[1:]])
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: bad config in header") + f".*{key}"):
            read()
        code, err = _render(path, tmp_path, capsys)
        assert code == 2 and err.startswith(f"bad trace: {path}:1: bad config in header"), err
