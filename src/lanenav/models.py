"""Forward models: k-step occupancy and goal predictions for the planner.

All models share one output contract, a tuple of k ``PredictedFrame``s for
steps t+1..t+k as ``Timeline.rollout`` returns it, produced once per decision
and shared (read-only) by every planner rollout. Four predict functions:

* oracle: reads the true future from the episode's ``Timeline``. Exact,
  future spawns included. The upper bound.
* frozen: persistence baseline, repeats the latest observed frame; on a
  timeline's history that frame is the timeline's ``predicted(t)``, read
  once per time for every cell and decision that asks.
* velocity: estimates a per-row horizontal shift from the 4-frame history and
  extrapolates it. Cannot foresee spawns, so it shares the structural failure
  mode of a learned scene model: false negatives that grow with horizon.
* noisy-sampled: corrupts the true rollout with per-cell false-negative /
  false-positive flips and goal jitter, drawing N samples and aggregating by
  pixel-wise max (occupancy) and coordinate-wise median (goal).

A model is one type, ``ForwardModel``: a name, a predict function of an
``Observation`` (the 4-frame history, the decision time t and the episode's
timeline) and k, and a count of its calls. Only the privileged models
(oracle, noisy) read the timeline; the others predict from the history
alone. ``History`` and ``HISTORY_LEN`` live beside ``Timeline`` in
``world`` and are re-exported here: ``Observation.at(timeline, t)`` wraps
``Timeline.history(t)``, one ``History`` per timeline time.
``oracle_predict`` is the oracle's prediction computed from a
``WorldState`` by cloning and stepping it, for use outside an episode.

The spec-string grammar ("oracle", "noisy:0.1,0.02,1.0,5", "none", ...) lives
here only: ``build_model`` parses a spec into a model, ``split_model_specs``
splits a list of them and ``model_label`` gives a spec's table label.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import world as w
from .seeding import make_rng
from .world import (
    HISTORY_LEN,
    History,
    PredictedFrame,
    Timeline,
    WorldState,
    clone_state,
    fold,
    freeze,
    obstacle_occupancy,
    predicted_frame,
    reflect_axis,
    render_frame,
    round_px_array,
    world_step,
)

# Shift-per-step search range for the velocity model, in pixels. Covers the
# fastest default obstacle class (1.5 +- 0.3) with margin.
MAX_SHIFT = 4.0

DEFAULT_P_FN = 0.10
DEFAULT_P_FP = 0.02
DEFAULT_GOAL_SIGMA = 1.0


@dataclass(frozen=True)
class Observation:
    """What a model is given at decision time t.

    ``history`` is what the agent has seen. ``timeline`` is the episode's
    true world; only privileged models may read it.
    """

    history: History
    t: int
    timeline: Timeline

    @classmethod
    def at(cls, timeline: Timeline, t: int) -> "Observation":
        """Observation at time t, with the timeline's history of t."""
        return cls(timeline.history(t), t, timeline)


@dataclass(frozen=True, eq=False)
class ErrorMap:
    """Prediction error against a true frame, Figure-style FN/FP split."""

    fn: np.ndarray  # truth obstacle, predicted free
    fp: np.ndarray  # predicted obstacle, truth free
    goal_err: float | None
    pred_goal: tuple[float, float] | None

    @property
    def fn_count(self) -> int:
        return int(self.fn.sum())

    @property
    def fp_count(self) -> int:
        return int(self.fp.sum())


def oracle_predict(state: WorldState, k: int) -> tuple[PredictedFrame, ...]:
    """Clairvoyant rollout: advance a full clone (RNG included) k steps."""
    if k < 1:
        raise ValueError("k must be >= 1")
    clone = clone_state(state)
    steps = []
    for _ in range(k):
        world_step(clone)
        steps.append(predicted_frame(render_frame(clone)))
    return tuple(steps)


def frozen_predict(history: History, k: int) -> tuple[PredictedFrame, ...]:
    """Persistence baseline: the future equals the latest frame, read once per timeline time."""
    if k < 1:
        raise ValueError("k must be >= 1")
    latest = history.latest
    return ((predicted_frame(history.frames[-1]) if latest is None else latest),) * k


def _row_shifts(frames: tuple[np.ndarray, ...]) -> np.ndarray:
    """Per-row shift per step from the 3 consecutive history frame pairs.

    Per pair, the integer lag maximizing the overlap between the later frame
    and the shifted earlier frame is refined to a sub-pixel peak by a
    quadratic fit through its neighbors; the per-pair estimates are averaged
    and snapped to the half-integer grid. Pairs of bitwise-identical frames
    carry no motion signal (they come from episode-start padding) and are
    skipped.
    """
    stack = np.stack(frames)
    height, width = stack.shape[1:]
    moving = (stack[1:] != stack[:-1]).any(axis=(1, 2))
    if not moving.any():
        return np.zeros(height)
    occs = obstacle_occupancy(stack)
    prev, nxt = occs[:-1][moving], occs[1:][moving]
    n_int = int(MAX_SHIFT)
    n_lags = 2 * n_int + 1
    # Earlier frames zero-padded by n_int columns per side: the window of the
    # padded row starting at column s is the frame shifted by n_int - s, so the
    # windows in reverse order are lags -n_int..n_int.
    padded = np.zeros((len(prev), height, width + 2 * n_int), dtype=bool)
    padded[:, :, n_int:n_int + width] = prev
    windows = sliding_window_view(padded, width, axis=2).transpose(0, 2, 1, 3)[:, ::-1]
    scores = (windows & nxt[:, None]).sum(axis=3).astype(np.float64)  # (pair, lag, row)
    # Integer lags ordered by tie priority: smaller |shift| first.
    order = np.array(sorted(range(n_lags), key=lambda i: (abs(i - n_int), i - n_int)))
    # Bodies entering or leaving at an edge make a pair ambiguous (growth at
    # the edge overlaps as well as motion does). A consensus term far below
    # the correlation quantum (1.0) resolves such ties from the other pairs;
    # remaining ties go to the smaller |shift|.
    consensus = 1e-3 * np.sum(scores, axis=0)
    best = order[np.argmax((scores + consensus)[:, order], axis=1)]  # (pair, row)
    # Sub-pixel peak: quadratic fit through the integer lag neighbors.
    # Rows mixing sub-pixel phases (some obstacles advanced a pixel this
    # step, some not) land between lags instead of voting for one side.
    around = np.clip(best[:, None] + np.array([-1, 0, 1])[:, None], 0, n_lags - 1)
    left, mid, right = np.take_along_axis(scores, around, axis=1).transpose(1, 0, 2)
    denom = left - 2.0 * mid + right
    fit = (best > 0) & (best < n_lags - 1) & (denom < 0.0)
    offset = 0.5 * (left - right) / np.where(fit, denom, -1.0)
    peak = (best - n_int).astype(np.float64)
    estimates = np.where(fit, peak + np.clip(offset, -0.5, 0.5), peak)
    mean = np.mean(estimates, axis=0)
    return round_px_array(mean * 2.0) / 2.0


def _fit_goal_velocity(centers: list[tuple[float, float] | None]) -> tuple[float, float]:
    """Least-squares constant velocity through the observed goal centers, in plain floats
    summed as numpy sums so few values, left to right, so that the fit is numpy's bit for bit."""
    pts = [(t, c) for t, c in enumerate(centers) if c is not None]
    if len(pts) < 2:
        return 0.0, 0.0
    mean_t = sum(t for t, _ in pts) / len(pts)
    dts = [t - mean_t for t, _ in pts]
    denom = fold(d * d for d in dts)
    mean_x = fold(c[0] for _, c in pts) / len(pts)
    mean_y = fold(c[1] for _, c in pts) / len(pts)
    return (fold(d * (c[0] - mean_x) for d, (_, c) in zip(dts, pts)) / denom,
            fold(d * (c[1] - mean_y) for d, (_, c) in zip(dts, pts)) / denom)


def velocity_predict(history: History, k: int) -> tuple[PredictedFrame, ...]:
    """Extrapolate each row's occupancy by its estimated shift; no spawns.

    Cells shifted in from outside the grid stay empty, so obstacles that have
    not entered the scene yet can never be predicted. The goal is tracked by
    fitting a constant velocity to the 4 observed centers and extrapolating
    with the same wall reflection as the environment.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    latest = history.frames[-1]
    height, width = latest.shape
    shifts = _row_shifts(history.frames)
    rows, cols = np.nonzero(obstacle_occupancy(latest))
    offsets = np.arange(1, k + 1)[:, None] * shifts[rows]  # (step, cell)
    steps_of, rows_of = np.broadcast_arrays(np.arange(k)[:, None], rows)
    occ = np.zeros((k, height, width), dtype=bool)
    # A fractional total offset leaves the body straddling two columns
    # (sub-pixel phase unknown): cover both.
    for whole in (np.floor(offsets), np.ceil(offsets)):
        moved = cols + whole.astype(np.int64)
        inside = (moved >= 0) & (moved < width)
        occ[steps_of[inside], rows_of[inside], moved[inside]] = True
    freeze(occ)

    # The history's goal pixels from one scan; centres are exact integer sums over counts, as goal_center_of_frame's.
    pixels = [([], []) for _ in history.frames]
    for i, y, x in zip(*(a.tolist() for a in np.nonzero(np.stack(history.frames) == w.GOAL))):
        pixels[i][0].append(x)
        pixels[i][1].append(y)
    goal_xs, goal_ys = pixels[-1]
    if goal_xs:
        gw, gh = max(goal_xs) - min(goal_xs) + 1, max(goal_ys) - min(goal_ys) + 1
        lo_x, hi_x = (gw - 1) / 2.0, width - 1 - (gw - 1) / 2.0
        lo_y, hi_y = (gh - 1) / 2.0, height - 1 - (gh - 1) / 2.0
        centers = [(sum(xs) / len(xs), sum(ys) / len(ys)) if xs else None for xs, ys in pixels]
        gx, gy = centers[-1]
        gvx, gvy = _fit_goal_velocity(centers)

    steps = []
    for i in range(k):
        estimate = None
        if goal_xs:
            gx, gvx = reflect_axis(gx + gvx, gvx, lo_x, hi_x)
            gy, gvy = reflect_axis(gy + gvy, gvy, lo_y, hi_y)
            estimate = (gx, gy)
        steps.append(PredictedFrame(occupancy=occ[i], goal_estimate=estimate))
    return tuple(steps)


def _noisy_samples(
    base: tuple[PredictedFrame, ...],
    n_samples: int,
    p_fn: float,
    p_fp: float,
    goal_sigma: float,
    rng: np.random.Generator,
) -> tuple[PredictedFrame, ...]:
    """Corrupt the true rollout ``base`` n_samples times and aggregate.

    Per sample and step, each truly occupied cell is dropped with probability
    p_fn and each free cell set with probability p_fp; the goal estimate takes
    a Gaussian random-walk jitter (sigma per step, compounding with horizon).
    Occupancy aggregates by pixel-wise max, the goal by per-axis median.
    """
    if not 0.0 <= p_fn <= 1.0 or not 0.0 <= p_fp <= 1.0:
        raise ValueError("p_fn and p_fp must be probabilities")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    k = len(base)
    height, width = base[0].occupancy.shape
    agg = np.zeros((k, height, width), dtype=bool)
    free = [~step.occupancy for step in base]
    jitter = np.empty((n_samples, k, 2))
    for sample in range(n_samples):
        for i, step in enumerate(base):
            # One draw per (sample, step): the drop uniforms, then the add uniforms.
            uniform = rng.random((2, height, width))
            agg[i] |= (step.occupancy & (uniform[0] >= p_fn)) | (free[i] & (uniform[1] < p_fp))
            jitter[sample, i] = rng.normal(0.0, goal_sigma, 2)
    # Each sample's goal walks away from the true center by its summed jitter.
    centers = np.array([step.goal_estimate for step in base])
    medians = np.median(centers + np.cumsum(jitter, axis=1), axis=0).tolist()
    freeze(agg)
    return tuple(PredictedFrame(occupancy=agg[i], goal_estimate=(min(max(gx, 0.0), float(width - 1)),
                                                                  min(max(gy, 0.0), float(height - 1))))
                 for i, (gx, gy) in enumerate(medians))


def prediction_error(predicted: PredictedFrame, truth: np.ndarray) -> ErrorMap:
    """FN/FP masks plus goal distance between predicted and true centers."""
    if predicted.occupancy.shape != truth.shape:
        raise ValueError("predicted and true frames have different shapes")
    true = predicted_frame(truth)
    fn = true.occupancy & ~predicted.occupancy
    fp = predicted.occupancy & ~true.occupancy
    goal = true.goal_estimate
    pred_goal = predicted.goal_estimate
    goal_err = None
    if goal is not None and pred_goal is not None:
        goal_err = math.hypot(pred_goal[0] - goal[0], pred_goal[1] - goal[1])
    return ErrorMap(fn=freeze(fn), fp=freeze(fp), goal_err=goal_err, pred_goal=pred_goal)


class ForwardModel:
    """A forward model: a name, a function of (``Observation``, k) to k predicted frames, and a count of
    its ``predict`` calls; ``n_samples`` is the samples drawn per prediction, as the bench table shows it.

    ``window``, (first, stride), declares that the prediction at decision
    time t is a fixed window of the episode's timeline: its predicted frames
    of times t + first + stride * i, i = 0..k-1. The episode loop then reads
    those frames from the timeline itself, without calling ``predict``, and
    adds one call per decision it served to ``calls``. The oracle's window is
    (1, 1), frames t+1..t+k; frozen's is (0, 0), frame t repeated k times.
    The function must return the same frames.
    """

    def __init__(self, name: str, predict: Callable[[Observation, int], tuple[PredictedFrame, ...]],
                 n_samples: int = 1, window: tuple[int, int] | None = None) -> None:
        if window is not None and not (len(window) == 2 and all(type(v) is int and v >= 0 for v in window)):
            raise ValueError(f"a window is (first, stride), two integers >= 0, got {window!r}")
        self.name = name
        self.n_samples = n_samples
        self.window = window
        self.calls = 0
        self._predict = predict

    def predict(self, obs: Observation, k: int) -> tuple[PredictedFrame, ...]:
        self.calls += 1
        return self._predict(obs, k)


RANDOM_AGENT_SPECS = ("none", "random")
# Samples per noisy prediction: each costs k full-grid draws, so a spec bounds its work.
MAX_NOISY_SAMPLES = 1000


def build_model(spec: str, rng: np.random.Generator | None = None) -> ForwardModel | None:
    """Model from its selection string; None means the uniform-random agent.

    Accepted: "oracle" | "frozen" | "velocity" | "noisy[:p_fn,p_fp,sigma,n]"
    | "none" | "random".
    """
    spec = spec.strip().lower()
    if spec in RANDOM_AGENT_SPECS:
        return None
    if spec == "oracle":
        return ForwardModel("oracle", lambda obs, k: obs.timeline.rollout(obs.t, k), window=(1, 1))
    if spec == "frozen":
        return ForwardModel("frozen", lambda obs, k: frozen_predict(obs.history, k), window=(0, 0))
    if spec == "velocity":
        return ForwardModel("velocity", lambda obs, k: velocity_predict(obs.history, k))
    if spec == "noisy" or spec.startswith("noisy:"):
        p_fn, p_fp, sigma, n = DEFAULT_P_FN, DEFAULT_P_FP, DEFAULT_GOAL_SIGMA, 5
        if ":" in spec:
            parts = spec.split(":", 1)[1].split(",")
            if len(parts) != 4:
                raise ValueError("noisy model spec needs 4 fields: p_fn,p_fp,sigma,n")
            try:
                p_fn, p_fp, sigma = (float(parts[0]), float(parts[1]), float(parts[2]))
                n = int(parts[3])
            except ValueError as exc:
                raise ValueError(f"bad noisy model spec {spec!r}") from exc
        # Written so that NaN fails every bound.
        if not (0.0 <= p_fn <= 1.0 and 0.0 <= p_fp <= 1.0 and 0.0 <= sigma < math.inf
                and 1 <= n <= MAX_NOISY_SAMPLES):
            raise ValueError(f"bad noisy model spec {spec!r}: needs p_fn, p_fp in [0, 1], "
                             f"a finite sigma >= 0 and n in 1..{MAX_NOISY_SAMPLES}")
        if rng is None:
            raise ValueError("noisy model requires an rng")
        return ForwardModel("noisy", lambda obs, k: _noisy_samples(obs.timeline.rollout(obs.t, k), n, p_fn, p_fp,
                                                                   sigma, rng), n_samples=n)
    raise ValueError(f"unknown model spec {spec!r}")


def split_model_specs(text: str) -> list[str]:
    """Comma-separated model specs; a ``noisy:`` spec keeps its 4 comma fields.

    "oracle,noisy:0.1,0.02,1.0,5,frozen" -> ["oracle", "noisy:0.1,0.02,1.0,5", "frozen"]
    """
    specs: list[str] = []
    for token in text.split(","):
        token = token.strip()
        if specs and specs[-1].lower().startswith("noisy:") and specs[-1].count(",") < 3:
            specs[-1] += "," + token
        else:
            specs.append(token)
    return specs


def model_label(spec: str) -> tuple[str, int]:
    """(name, samples per prediction) of a spec, as the benchmark table shows it; checks the spec."""
    model = build_model(spec, rng=make_rng(0))
    if model is None:
        return "random", 1
    return model.name, model.n_samples
