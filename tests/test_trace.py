import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import agent_turn, frames_equal
from lanenav.harness import run_episode
from lanenav.mcts import MCTSConfig
from lanenav.seeding import episode_seed
from lanenav.tracefile import frame_to_rle, read_trace, rle_to_frame, write_trace
from lanenav.world import WorldConfig, new_episode, render_frame


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

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rle_to_frame("0:5", 2, 2)

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
