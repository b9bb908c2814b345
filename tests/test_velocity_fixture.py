"""Velocity and noisy model fixture: their predictions on fixed histories are pinned.

The corpus is histories ``Observation.at(timeline, t)`` of world timelines
at both agent speeds, for t = 0..7 (t < 3 repeats frame 0, the
episode-start padding) and for later t up to 120. The worlds are the
default one, the default one without warm-up (lanes still filling, so rows
go empty and bodies enter at either edge), one without speed jitter (heads
on exact half-pixels) and one with jitter at or above the mean speed
(bodies that stand still or back out).

Per history the fixture holds the first 16 hex digits of a sha256:

* ``velocity``: of ``velocity_predict`` at k = 1, 3 and 10, each step's
  occupancy bytes and the ``repr`` of its goal estimate;
* ``shifts``: of the ``_row_shifts`` vector's bytes;
* ``noisy``: of ``_noisy_samples`` on the true rollout, at one k and one
  (n, p_fn, p_fp, sigma) variant per history, from a generator seeded per
  history, with the ``repr`` of the generator's next draw after the call
  (so the number of draws is pinned too);

and one sha256 over all full digests.

Beside the fixture, random small histories (widths down to 2, below the lag
range) are checked against ``reference_row_shifts`` and
``reference_occupancy``, the per-row loops the array code replaced.

Regenerate the fixture only when model behaviour changes on purpose:

    PYTHONPATH=src python tests/test_velocity_fixture.py
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lanenav.models import (
    HISTORY_LEN,
    MAX_SHIFT,
    History,
    Observation,
    _noisy_samples,
    _row_shifts,
    velocity_predict,
)
from lanenav.seeding import episode_seed, make_rng
from lanenav.world import (
    DEFAULT_CLASSES,
    GOAL,
    PredictedFrame,
    Timeline,
    WorldConfig,
    obstacle_occupancy,
    round_px_array,
)

pytestmark = pytest.mark.bitpin

FIXTURE = Path(__file__).resolve().parent / "data" / "velocity_predictions.json"

KS = (1, 3, 10)
TIMES = (0, 1, 2, 3, 4, 5, 6, 7, 10, 15, 20, 30, 45, 60, 90, 120)
EPISODES_PER_WORLD = 10
WORLDS = (
    WorldConfig(),
    WorldConfig(warmup_steps=0),
    WorldConfig(obstacle_classes=tuple(replace(c, speed_jitter=0.0) for c in DEFAULT_CLASSES)),
    WorldConfig(obstacle_classes=tuple(
        replace(c, speed_jitter=c.mean_speed * (1 + c.class_id % 2)) for c in DEFAULT_CLASSES)),
)
# (n_samples, p_fn, p_fp, goal_sigma), one per history in turn.
NOISY_VARIANTS = (
    (5, 0.10, 0.02, 1.0),
    (1, 0.10, 0.02, 1.0),
    (3, 0.5, 0.0, 2.0),
    (2, 0.0, 0.3, 0.0),
    (4, 1.0, 1.0, 0.5),
)


def corpus() -> list[Observation]:
    """Every history of the corpus, world-major, then episode, then t."""
    observations = []
    for wi, world in enumerate(WORLDS):
        for episode in range(EPISODES_PER_WORLD):
            cfg = world.for_speed("2x" if episode % 2 == 0 else "1x")
            timeline = Timeline(cfg, episode_seed(100 + wi, episode))
            observations.extend(Observation.at(timeline, t) for t in TIMES)
    return observations


def add_rollout(digest, steps: tuple[PredictedFrame, ...]) -> None:
    """Feed each step's occupancy bytes and goal estimate ``repr`` to a sha256."""
    for step in steps:
        digest.update(step.occupancy.tobytes())
        digest.update(repr(step.goal_estimate).encode())


def corpus_digests() -> tuple[dict[str, list[str]], str]:
    """Per history the velocity, shift and noisy digests, and one digest of all of them."""
    records: dict[str, list[str]] = {"velocity": [], "shifts": [], "noisy": []}
    overall = hashlib.sha256()
    for i, obs in enumerate(corpus()):
        velocity = hashlib.sha256()
        for k in KS:
            add_rollout(velocity, velocity_predict(obs.history, k))
        shifts = hashlib.sha256(_row_shifts(obs.history.frames).tobytes())
        n, p_fn, p_fp, sigma = NOISY_VARIANTS[i % len(NOISY_VARIANTS)]
        rng = make_rng(1000 + i)
        noisy = hashlib.sha256()
        add_rollout(noisy, _noisy_samples(obs.timeline.rollout(obs.t, KS[i % len(KS)]),
                                          n, p_fn, p_fp, sigma, rng))
        noisy.update(repr(rng.random()).encode())
        for key, digest in (("velocity", velocity), ("shifts", shifts), ("noisy", noisy)):
            records[key].append(digest.hexdigest()[:16])
            overall.update(digest.hexdigest().encode())
    return records, overall.hexdigest()


def test_velocity_and_noisy_match_fixture():
    expected = json.loads(FIXTURE.read_text())
    records, overall = corpus_digests()
    for key, got_list in records.items():
        want_list = expected[key]
        assert len(got_list) == len(want_list)
        for i, (got, want) in enumerate(zip(got_list, want_list)):
            assert got == want, f"{key} history {i}: got {got}, fixture {want}"
    assert overall == expected["sha256"]


def test_corpus_covers_edge_classes():
    """Padding, empty histories, rows that go empty or fill, and bodies at both edge columns occur."""
    seen = {"padded": 0, "no_obstacle": 0, "row_empty_then_occupied": 0,
            "row_occupied_then_empty": 0, "column_0": 0, "column_w_minus_1": 0}
    for obs in corpus():
        frames = obs.history.frames
        occs = np.stack([obstacle_occupancy(f) for f in frames])
        rows = occs.any(axis=2)  # (frame, row): row holds an obstacle
        latest = occs[-1]
        seen["padded"] += obs.t < HISTORY_LEN - 1
        seen["no_obstacle"] += not occs.any()
        seen["row_empty_then_occupied"] += bool((~rows[0] & rows[-1]).any())
        seen["row_occupied_then_empty"] += bool((rows[0] & ~rows[-1]).any())
        seen["column_0"] += bool(latest[:, 0].any())
        seen["column_w_minus_1"] += bool(latest[:, -1].any())
    assert all(seen.values()), seen


def _shift_cols(occ: np.ndarray, j: int) -> np.ndarray:
    """Shift a (H, W) mask along x by integer j, filling with empty."""
    out = np.zeros_like(occ)
    width = occ.shape[1]
    if j == 0:
        return occ.copy()
    if j > 0:
        if j < width:
            out[:, j:] = occ[:, :width - j]
    elif -j < width:
        out[:, :width + j] = occ[:, -j:]
    return out


def reference_row_shifts(frames: tuple[np.ndarray, ...]) -> np.ndarray:
    """``_row_shifts`` as loops: per frame pair, per lag and per row."""
    occs = [obstacle_occupancy(f) for f in frames]
    height = occs[0].shape[0]
    n_int = int(MAX_SHIFT)
    int_shifts = list(range(-n_int, n_int + 1))
    order = sorted(range(len(int_shifts)), key=lambda i: (abs(int_shifts[i]), int_shifts[i]))
    pair_scores = []
    for p in range(len(occs) - 1):
        if np.array_equal(frames[p], frames[p + 1]):
            continue
        pair_scores.append(np.stack([(occs[p + 1] & _shift_cols(occs[p], j)).sum(axis=1).astype(np.float64)
                                     for j in int_shifts]))
    if not pair_scores:
        return np.zeros(height)
    consensus = 1e-3 * np.sum(pair_scores, axis=0)
    estimates = []
    for scores in pair_scores:
        best_idx = np.asarray(order)[np.argmax((scores + consensus)[order], axis=0)]
        est = np.empty(height)
        for r in range(height):
            b = int(best_idx[r])
            peak = float(int_shifts[b])
            if 0 < b < len(int_shifts) - 1:
                left, mid, right = scores[b - 1, r], scores[b, r], scores[b + 1, r]
                denom = left - 2.0 * mid + right
                if denom < 0.0:
                    peak += float(np.clip(0.5 * (left - right) / denom, -0.5, 0.5))
            est[r] = peak
        estimates.append(est)
    return round_px_array(np.mean(estimates, axis=0) * 2.0) / 2.0


def reference_occupancy(frames: tuple[np.ndarray, ...], k: int) -> list[np.ndarray]:
    """``velocity_predict``'s occupancy as loops: per step, per row and per {floor, ceil}."""
    latest = obstacle_occupancy(frames[-1])
    height, width = latest.shape
    shifts = reference_row_shifts(frames)
    row_cols = {int(r): np.nonzero(latest[r])[0].astype(np.float64) for r in np.nonzero(latest.any(axis=1))[0]}
    steps = []
    for i in range(1, k + 1):
        occ = np.zeros((height, width), dtype=bool)
        for r, cols in row_cols.items():
            offset = i * shifts[r]
            for shift in {math.floor(offset), math.ceil(offset)}:
                moved = (cols + shift).astype(np.int64)
                occ[r, moved[(moved >= 0) & (moved < width)]] = True
        steps.append(occ)
    return steps


@st.composite
def small_histories(draw) -> tuple[np.ndarray, ...]:
    """4 palette frames of up to 6 x 12 cells; repeated frames stand for padding."""
    height, width = draw(st.integers(1, 6)), draw(st.integers(2, 12))
    cells = st.lists(st.sampled_from([0, 0, 0, 1, 2, 3, 4, 5, GOAL]),
                     min_size=height * width, max_size=height * width)
    pool = [np.array(draw(cells), dtype=np.uint8).reshape(height, width)
            for _ in range(draw(st.integers(1, HISTORY_LEN)))]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=HISTORY_LEN, max_size=HISTORY_LEN))
    return tuple(pool[i] for i in sorted(picks))


@settings(max_examples=300, deadline=None)
@given(frames=small_histories(), k=st.sampled_from(KS))
def test_array_code_matches_loop_reference(frames, k):
    assert _row_shifts(frames).tobytes() == reference_row_shifts(frames).tobytes()
    predicted = velocity_predict(History(frames), k)
    for step, want in zip(predicted, reference_occupancy(frames, k), strict=True):
        assert np.array_equal(step.occupancy, want)


if __name__ == "__main__":
    records, overall = corpus_digests()
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps({**records, "sha256": overall}, separators=(",", ":")) + "\n")
    print(f"wrote {len(records['velocity'])} histories to {FIXTURE}", file=sys.stderr)
