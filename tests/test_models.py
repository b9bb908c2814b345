import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import NoTimeline, TimelineRead, agent_turn, build_state, frames_equal
from lanenav.models import (
    History,
    Observation,
    OracleModel,
    build_model,
    frozen_predict,
    goal_center_of_frame,
    noisy_sample_predict,
    obstacle_occupancy,
    oracle_predict,
    prediction_error,
    velocity_predict,
)
from lanenav.seeding import make_rng
from lanenav.world import (
    LEFT_TO_RIGHT,
    RIGHT_TO_LEFT,
    Timeline,
    WorldConfig,
    clone_state,
    new_episode,
    render_frame,
    world_step,
)


def history_from(state, steps: int = 3) -> History:
    """Step the state in place, returning the 4-frame history ending at now."""
    frames = [render_frame(state)]
    for _ in range(steps):
        world_step(state)
        frames.append(render_frame(state))
    frames = ([frames[0]] * (4 - len(frames)) + frames)[-4:]
    return History(tuple(frames))


def true_frames(state, k: int) -> list[np.ndarray]:
    clone = clone_state(state)
    out = []
    for _ in range(k):
        world_step(clone)
        out.append(render_frame(clone))
    return out


class TestHistory:
    def test_requires_four_frames(self):
        frame = np.zeros((4, 4), dtype=np.uint8)
        with pytest.raises(ValueError):
            History((frame,) * 3)


class TestOraclePredict:
    def test_matches_true_future(self):
        state = new_episode(WorldConfig(), 5)
        rollout = oracle_predict(state, 5)
        for predicted, truth in zip(rollout, true_frames(state, 5)):
            assert np.array_equal(predicted.occupancy, obstacle_occupancy(truth))
            assert predicted.goal_estimate == goal_center_of_frame(truth)

    def test_level0_translations(self):
        state = build_state(
            lanes=[(6, 1, LEFT_TO_RIGHT), (12, 2, RIGHT_TO_LEFT)],
            obstacles=[(0, 10.0, 2, 1.0), (1, 30.0, 3, -1.0)],
            goal=(40.0, 40.0, 0.0, 0.0),
        )
        rollout = oracle_predict(state, 3)
        for i, step in enumerate(rollout, start=1):
            expect = np.zeros((48, 48), dtype=bool)
            for col in (10 + i, 10 + i - 1):
                expect[6, col] = True
            for col in (30 - i, 30 - i - 1, 30 - i - 2):
                expect[12, col] = True
            assert np.array_equal(step.occupancy, expect)

    def test_goal_drift_mean_half_pixel(self):
        state = build_state(goal=(20.0, 20.0, 0.5, 0.0))
        rollout = oracle_predict(state, 4)
        start = goal_center_of_frame(render_frame(state))
        # pixel-center estimates advance 0 or 1 per step, 0.5 on average
        assert rollout[3].goal_estimate[0] - start[0] == pytest.approx(2.0)
        for step in rollout:
            assert step.goal_estimate[1] == start[1]

    def test_original_untouched(self):
        state = new_episode(WorldConfig(), 6)
        t_before = state.t
        frame_before = render_frame(state)
        oracle_predict(state, 5)
        assert state.t == t_before
        assert frames_equal(render_frame(state), frame_before)

    def test_bad_horizon(self):
        state = new_episode(WorldConfig(), 6)
        with pytest.raises(ValueError):
            oracle_predict(state, 0)


class TestFrozenPredict:
    def test_static_world_exact(self):
        state = build_state(
            lanes=[(10, 1, LEFT_TO_RIGHT)],
            obstacles=[(0, 20.0, 3, 0.0)],  # speed 0: genuinely static
            goal=(30.0, 30.0, 0.0, 0.0),
        )
        history = history_from(state)
        rollout = frozen_predict(history, 4)
        for predicted, truth in zip(rollout, true_frames(state, 4)):
            err = prediction_error(predicted, truth)
            assert err.fn_count == 0 and err.fp_count == 0

    def test_error_is_symmetric_difference_of_shift(self):
        state = build_state(
            lanes=[(10, 1, LEFT_TO_RIGHT)],
            obstacles=[(0, 20.0, 4, 1.0)],
            goal=(40.0, 40.0, 0.0, 0.0),
        )
        history = history_from(state)
        latest_occ = obstacle_occupancy(history.frames[-1])
        rollout = frozen_predict(history, 3)
        for i, (predicted, truth) in enumerate(zip(rollout, true_frames(state, 3)), start=1):
            err = prediction_error(predicted, truth)
            truth_occ = obstacle_occupancy(truth)
            # brute-force symmetric difference against the stale frame
            assert err.fn_count == int((truth_occ & ~latest_occ).sum()) == min(i, 4)
            assert err.fp_count == int((latest_occ & ~truth_occ).sum()) == min(i, 4)

    def test_identical_steps(self):
        state = new_episode(WorldConfig(), 9)
        history = history_from(state)
        rollout = frozen_predict(history, 5)
        for step in rollout[1:]:
            assert np.array_equal(step.occupancy, rollout[0].occupancy)
            assert step.goal_estimate == rollout[0].goal_estimate


class TestVelocityPredict:
    def test_integer_speed_exact(self):
        state = build_state(
            lanes=[(6, 3, LEFT_TO_RIGHT), (20, 3, RIGHT_TO_LEFT)],
            obstacles=[(0, 12.0, 3, 1.0), (1, 36.0, 4, -1.0)],
            goal=(40.0, 8.0, 0.0, 0.0),
        )
        history = history_from(state)
        rollout = velocity_predict(history, 3)
        oracle = oracle_predict(state, 3)
        for got, want in zip(rollout, oracle):
            assert np.array_equal(got.occupancy, want.occupancy)

    def test_cannot_predict_spawns(self):
        # One class, exact integer speed, spawning certain at every step:
        # any false negatives against the oracle can only be unseen spawns.
        cfg = WorldConfig(
            level=100.0,
            spawn_base_rate=0.01,
            lane_rows=(8, 16, 24),
            warmup_steps=12,
        )
        state = new_episode(cfg, 3)
        history = history_from(state)
        rollout = velocity_predict(history, 3)
        oracle = oracle_predict(state, 3)
        err = prediction_error(
            rollout[2],
            np.where(oracle[2].occupancy, 3, 0).astype(np.uint8),
        )
        assert err.fn_count > 0

    def test_no_spawn_property(self):
        # never predicts occupancy in a row whose history was entirely empty
        for seed in range(10):
            state = new_episode(WorldConfig(), seed)
            history = history_from(state)
            seen_rows = np.zeros(48, dtype=bool)
            for frame in history.frames:
                seen_rows |= obstacle_occupancy(frame).any(axis=1)
            rollout = velocity_predict(history, 10)
            for step in rollout:
                predicted_rows = step.occupancy.any(axis=1)
                assert not (predicted_rows & ~seen_rows).any()

    def test_goal_tracking_quantization_aware(self):
        state = build_state(goal=(10.0, 20.0, 0.5, 0.0))
        history = history_from(state)
        # pixel centers over the 4 frames: 10.5, 11.5, 11.5, 12.5 -> slope 0.6
        rollout = velocity_predict(history, 3)
        for i, step in enumerate(rollout, start=1):
            assert step.goal_estimate[0] == pytest.approx(12.5 + 0.6 * i, abs=1e-9)
            assert step.goal_estimate[1] == pytest.approx(20.5, abs=1e-9)
        truths = true_frames(state, 3)
        for step, truth in zip(rollout, truths):
            true_center = goal_center_of_frame(truth)
            assert abs(step.goal_estimate[0] - true_center[0]) < 1.0

    def test_goal_reflection_in_extrapolation(self):
        state = build_state(goal=(44.0, 20.0, 0.5, 0.0))
        history = history_from(state)
        rollout = velocity_predict(history, 12)
        for step in rollout:
            assert 0.5 <= step.goal_estimate[0] <= 46.5

    def test_absent_goal(self):
        frame = np.zeros((48, 48), dtype=np.uint8)
        history = History((frame,) * 4)
        rollout = velocity_predict(history, 2)
        assert all(step.goal_estimate is None for step in rollout)


class TestNoisySamplePredict:
    def test_degenerate_equals_oracle(self):
        state = new_episode(WorldConfig(), 12)
        rng = make_rng(0)
        noisy = noisy_sample_predict(state, 3, n_samples=4, p_fn=0.0, p_fp=0.0,
                                     goal_sigma=0.0, rng=rng)
        oracle = oracle_predict(state, 3)
        for got, want in zip(noisy, oracle):
            assert np.array_equal(got.occupancy, want.occupancy)
            assert got.goal_estimate == pytest.approx(want.goal_estimate)

    def test_fn_rate_closed_form(self):
        # survival of a truly-occupied cell through the 5-sample union: 0.5^5
        rng = make_rng(7)
        fn = occupied = 0
        for seed in range(180):
            state = new_episode(WorldConfig(), seed)
            oracle = oracle_predict(state, 3)
            noisy = noisy_sample_predict(state, 3, n_samples=5, p_fn=0.5, p_fp=0.0,
                                         goal_sigma=0.0, rng=rng)
            for got, want in zip(noisy, oracle):
                truth = want.occupancy
                fn += int((truth & ~got.occupancy).sum())
                occupied += int(truth.sum())
        assert occupied >= 100_000
        assert fn / occupied == pytest.approx(0.5 ** 5, abs=0.005)

    def test_fp_rate_closed_form(self):
        # phantom probability after a 10-sample union: 1 - 0.99^10
        rng = make_rng(8)
        fp = free = 0
        for seed in range(40):
            state = new_episode(WorldConfig(), seed)
            oracle = oracle_predict(state, 1)
            noisy = noisy_sample_predict(state, 1, n_samples=10, p_fn=0.0, p_fp=0.01,
                                         goal_sigma=0.0, rng=rng)
            truth = oracle[0].occupancy
            fp += int((noisy[0].occupancy & ~truth).sum())
            free += int((~truth).sum())
        assert fp / free == pytest.approx(1.0 - 0.99 ** 10, abs=0.005)

    def test_union_monotone_in_samples(self):
        state = new_episode(WorldConfig(), 13)
        rates = []
        for n in (1, 2, 5, 10):
            rng = make_rng(99)
            noisy = noisy_sample_predict(state, 3, n_samples=n, p_fn=0.5, p_fp=0.0,
                                         goal_sigma=0.0, rng=rng)
            oracle = oracle_predict(state, 3)
            fn = sum(int((want.occupancy & ~got.occupancy).sum())
                     for got, want in zip(noisy, oracle))
            occupied = sum(int(s.occupancy.sum()) for s in oracle)
            rates.append(fn / occupied)
        for lo, hi in zip(rates[1:], rates[:-1]):
            assert lo <= hi + 0.02

    def test_goal_median_within_bounds(self):
        state = new_episode(WorldConfig(), 14)
        rng = make_rng(3)
        noisy = noisy_sample_predict(state, 10, n_samples=5, p_fn=0.1, p_fp=0.02,
                                     goal_sigma=5.0, rng=rng)
        for step in noisy:
            assert 0.0 <= step.goal_estimate[0] <= 47.0
            assert 0.0 <= step.goal_estimate[1] <= 47.0

    def test_parameter_validation(self):
        state = new_episode(WorldConfig(), 15)
        with pytest.raises(ValueError):
            noisy_sample_predict(state, 3, n_samples=0, p_fn=0.1, p_fp=0.0,
                                 goal_sigma=0.0, rng=make_rng(0))
        with pytest.raises(ValueError):
            noisy_sample_predict(state, 3, n_samples=1, p_fn=1.5, p_fp=0.0,
                                 goal_sigma=0.0, rng=make_rng(0))


class TestPredictionError:
    def test_perfect_prediction(self):
        state = new_episode(WorldConfig(), 16)
        rollout = oracle_predict(state, 1)
        world_step(state)
        err = prediction_error(rollout[0], render_frame(state))
        assert err.fn_count == 0
        assert err.fp_count == 0
        assert err.goal_err == 0.0

    def test_all_free_prediction(self):
        state = new_episode(WorldConfig(), 17)
        truth = render_frame(state)
        m = int(obstacle_occupancy(truth).sum())
        from lanenav.models import PredictedFrame

        empty = PredictedFrame(occupancy=np.zeros((48, 48), dtype=bool), goal_estimate=None)
        err = prediction_error(empty, truth)
        assert err.fn_count == m
        assert err.fp_count == 0
        assert err.goal_err is None

    def test_shifted_row_symmetric_difference(self):
        from lanenav.models import PredictedFrame

        truth = np.zeros((48, 48), dtype=np.uint8)
        truth[10, 20:26] = 2  # contiguous length 6
        predicted = np.zeros((48, 48), dtype=bool)
        predicted[10, 21:27] = True  # shifted by one
        err = prediction_error(PredictedFrame(occupancy=predicted, goal_estimate=None), truth)
        assert err.fn_count == 1
        assert err.fp_count == 1

    def test_disjoint_masks(self):
        rng = make_rng(4)
        from lanenav.models import PredictedFrame

        for _ in range(20):
            truth = (rng.random((24, 24)) < 0.3).astype(np.uint8) * 3
            predicted = rng.random((24, 24)) < 0.3
            err = prediction_error(PredictedFrame(occupancy=predicted, goal_estimate=None), truth)
            assert not (err.fn & err.fp).any()

    def test_goal_pixels_are_not_obstacle(self):
        from lanenav.models import PredictedFrame

        truth = np.zeros((48, 48), dtype=np.uint8)
        truth[5:7, 5:7] = 6  # goal only
        predicted = PredictedFrame(occupancy=np.zeros((48, 48), dtype=bool), goal_estimate=None)
        assert prediction_error(predicted, truth).fn_count == 0

    def test_shape_mismatch(self):
        from lanenav.models import PredictedFrame

        predicted = PredictedFrame(occupancy=np.zeros((24, 24), dtype=bool), goal_estimate=None)
        with pytest.raises(ValueError):
            prediction_error(predicted, np.zeros((48, 48), dtype=np.uint8))


class TestImmutability:
    def test_occupancy_read_only(self):
        state = new_episode(WorldConfig(), 18)
        rollout = oracle_predict(state, 2)
        with pytest.raises(ValueError):
            rollout[0].occupancy[0, 0] = True


class TestModelObjects:
    def test_oracle_cache_matches_pure_function(self):
        # the timeline's cached truth, read along an episode, is oracle_predict's
        cfg = WorldConfig()
        state = new_episode(cfg, 19)
        timeline = Timeline(cfg, 19)
        model = OracleModel()
        rng = make_rng(11)
        x, y = state.start
        for t in range(25):
            cached = model.predict(Observation.at(timeline, t), 4)
            fresh = oracle_predict(state, 4)
            for got, want in zip(cached, fresh):
                assert np.array_equal(got.occupancy, want.occupancy)
                assert got.goal_estimate == want.goal_estimate
            x, y, outcome = agent_turn(state, x, y, int(rng.integers(8)))
            if outcome.is_terminal:
                break

    def test_oracle_cache_resets_across_episodes(self):
        # one model object over two episodes reads each episode's own truth
        cfg = WorldConfig()
        model = OracleModel()
        for seed in (101, 102):
            got = model.predict(Observation.at(Timeline(cfg, seed), 0), 3)
            want = oracle_predict(new_episode(cfg, seed), 3)
            assert np.array_equal(got[0].occupancy, want[0].occupancy)

    def test_call_counting(self):
        obs = Observation.at(Timeline(WorldConfig(), 20), 0)
        model = OracleModel()
        for _ in range(7):
            model.predict(obs, 2)
        assert model.calls == 7

    @pytest.mark.parametrize("spec,name,n,reads_timeline", [
        ("oracle", "oracle", 1, True),
        ("frozen", "frozen", 1, False),
        ("velocity", "velocity", 1, False),
        ("noisy:0.2,0.05,2.0,7", "noisy", 7, True),
        ("noisy", "noisy", 5, True),
    ])
    def test_build_model(self, spec, name, n, reads_timeline):
        model = build_model(spec, rng=make_rng(0))
        assert model.name == name
        assert model.n_samples == n
        obs = Observation.at(Timeline(WorldConfig(), 21), 2)
        blind = Observation(obs.history, obs.t, timeline=NoTimeline())
        if reads_timeline:
            with pytest.raises(TimelineRead):
                model.predict(blind, 3)
        else:
            model.predict(blind, 3)

    def test_build_model_random(self):
        assert build_model("none") is None
        assert build_model("random") is None

    @pytest.mark.parametrize("spec", ["nope", "noisy:1,2,3", "noisy:a,b,c,d"])
    def test_build_model_rejects(self, spec):
        with pytest.raises(ValueError):
            build_model(spec, rng=make_rng(0))

    @pytest.mark.parametrize("spec", [
        "noisy:0.1,0.02,1.0,0", "noisy:nan,0.02,1.0,5", "noisy:0.1,nan,1.0,5", "noisy:0.1,0.02,nan,5",
        "noisy:0.1,0.02,-1.0,5", "noisy:0.1,0.02,inf,5", "noisy:1.5,0.02,1.0,5", "noisy:0.1,-0.1,1.0,5",
    ])
    def test_build_model_rejects_bad_noisy_values(self, spec):
        with pytest.raises(ValueError, match=re.escape(spec)):
            build_model(spec, rng=make_rng(0))

    @given(st.lists(st.floats().map(repr) | st.integers(-3, 10).map(str) | st.text(max_size=5)
                    | st.sampled_from(["nan", "inf", "-inf", "1e999", "", "0.5"]), max_size=6))
    def test_noisy_spec_fuzz_raises_only_value_error(self, fields):
        try:
            model = build_model("noisy:" + ",".join(fields), rng=make_rng(0))
        except ValueError:
            return
        assert 0.0 <= model.p_fn <= 1.0 and 0.0 <= model.p_fp <= 1.0
        assert math.isfinite(model.goal_sigma) and model.goal_sigma >= 0.0 and model.n_samples >= 1
