import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import frames_equal
from lanenav.harness import run_episode
from lanenav.mcts import MCTSConfig
from lanenav.seeding import episode_seed
from lanenav.tracefile import frame_to_rle, read_trace, rle_to_frame, write_trace
from lanenav.world import WorldConfig, agent_step, new_episode, render_frame


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
        assert trace.actions == [s.action for s in record.trace]
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
        for i, step in enumerate(trace.steps):
            outcome = agent_step(state, int(step["action"]))
            assert outcome.reward == step["reward"]
            assert outcome.kind == step["outcome"]
            assert frames_equal(render_frame(state), trace.frame_at(i))

    def test_step_record_fields(self, tmp_path):
        record = run_episode(WorldConfig(max_steps=10), MCTSConfig(n_rollouts=5, rollout_length=1),
                             "frozen", episode_seed(9, 2), keep_frames=True)
        path = tmp_path / "t.jsonl"
        write_trace(path, record)
        step = read_trace(path).steps[0]
        assert set(step) == {"t", "agent_pos", "action", "reward", "outcome", "frame_rle"}

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
