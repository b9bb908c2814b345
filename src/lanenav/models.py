"""Forward models: k-step occupancy and goal predictions for the planner.

All models share one output contract, a ``PredictedRollout`` of k
``PredictedFrame``s for steps t+1..t+k, produced once per decision and shared
(read-only) by every planner rollout. Four implementations:

* oracle: reads the true future from the episode's ``Timeline``. Exact,
  future spawns included. The upper bound.
* frozen: persistence baseline, repeats the latest observed frame.
* velocity: estimates a per-row horizontal shift from the 4-frame history and
  extrapolates it. Cannot foresee spawns, so it shares the structural failure
  mode of a learned scene model: false negatives that grow with horizon.
* noisy-sampled: corrupts the true rollout with per-cell false-negative /
  false-positive flips and goal jitter, drawing N samples and aggregating by
  pixel-wise max (occupancy) and coordinate-wise median (goal).

Every model object has one call, ``predict(obs, k)``, with an
``Observation``: the 4-frame history, the decision time t and the episode's
timeline. Only the privileged models (oracle, noisy) read the timeline; the
others predict from the history alone. ``oracle_predict`` and
``noisy_sample_predict`` are the same predictions computed from a
``WorldState`` by cloning and stepping it, for use outside an episode.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import world as w
from .world import (
    PredictedFrame,
    Timeline,
    WorldState,
    clone_state,
    freeze,
    goal_center_of_frame,
    obstacle_occupancy,
    predicted_frame,
    reflect_axis,
    render_frame,
    round_px_array,
    world_step,
)

HISTORY_LEN = 4

# Shift-per-step search range for the velocity model, in pixels. Covers the
# fastest default obstacle class (1.5 +- 0.3) with margin.
MAX_SHIFT = 4.0

DEFAULT_P_FN = 0.10
DEFAULT_P_FP = 0.02
DEFAULT_GOAL_SIGMA = 1.0


@dataclass(frozen=True)
class History:
    """The 4 most recent frames, oldest first; short episodes repeat frame 0."""

    frames: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.frames) != HISTORY_LEN:
            raise ValueError(f"history must hold exactly {HISTORY_LEN} frames")


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
        """Observation at time t: timeline frames t-3..t, frame 0 repeated before the start."""
        frames = tuple(timeline.frame(max(0, t - HISTORY_LEN + 1 + i)) for i in range(HISTORY_LEN))
        return cls(History(frames), t, timeline)


@dataclass(frozen=True, eq=False)
class PredictedRollout:
    steps: tuple[PredictedFrame, ...]
    model_name: str
    n_samples: int = 1

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True, eq=False)
class ErrorMap:
    """Prediction error against a true frame, Figure-style FN/FP split."""

    fn: np.ndarray  # truth obstacle, predicted free
    fp: np.ndarray  # predicted obstacle, truth free
    goal_err: float | None
    true_goal: tuple[float, float] | None
    pred_goal: tuple[float, float] | None

    @property
    def fn_count(self) -> int:
        return int(self.fn.sum())

    @property
    def fp_count(self) -> int:
        return int(self.fp.sum())


def oracle_predict(state: WorldState, k: int) -> PredictedRollout:
    """Clairvoyant rollout: advance a full clone (RNG included) k steps."""
    if k < 1:
        raise ValueError("k must be >= 1")
    clone = clone_state(state)
    steps = []
    for _ in range(k):
        world_step(clone)
        steps.append(predicted_frame(render_frame(clone)))
    return PredictedRollout(steps=tuple(steps), model_name="oracle")


def frozen_predict(history: History, k: int) -> PredictedRollout:
    """Persistence baseline: the future equals the latest frame."""
    if k < 1:
        raise ValueError("k must be >= 1")
    latest = history.frames[-1]
    step = predicted_frame(latest)
    return PredictedRollout(steps=(step,) * k, model_name="frozen")


def _shift_cols(occ: np.ndarray, j: int) -> np.ndarray:
    """Shift a (H, W) mask along x by integer j, filling with empty."""
    out = np.zeros_like(occ)
    width = occ.shape[1]
    if j == 0:
        return occ.copy()
    if j > 0:
        if j < width:
            out[:, j:] = occ[:, :width - j]
    else:
        if -j < width:
            out[:, :width + j] = occ[:, -j:]
    return out


def _row_shifts(frames: tuple[np.ndarray, ...]) -> np.ndarray:
    """Per-row shift per step from the 3 consecutive history frame pairs.

    Per pair, the integer lag maximizing the overlap between the later frame
    and the shifted earlier frame is refined to a sub-pixel peak by a
    quadratic fit through its neighbors; the per-pair estimates are averaged
    and snapped to the half-integer grid. Pairs of bitwise-identical frames
    carry no motion signal (they come from episode-start padding) and are
    skipped.
    """
    occs = [obstacle_occupancy(f) for f in frames]
    height = occs[0].shape[0]
    n_int = int(MAX_SHIFT)
    int_shifts = list(range(-n_int, n_int + 1))
    # Integer lags ordered by tie priority: smaller |shift| first.
    order = sorted(range(len(int_shifts)), key=lambda i: (abs(int_shifts[i]), int_shifts[i]))
    pair_scores = []
    for p in range(len(occs) - 1):
        prev, nxt = occs[p], occs[p + 1]
        if np.array_equal(frames[p], frames[p + 1]):
            continue
        scores = np.stack([(nxt & _shift_cols(prev, j)).sum(axis=1).astype(np.float64)
                           for j in int_shifts])
        pair_scores.append(scores)
    if not pair_scores:
        return np.zeros(height)
    # Bodies entering or leaving at an edge make a pair ambiguous (growth at
    # the edge overlaps as well as motion does). A consensus term far below
    # the correlation quantum (1.0) resolves such ties from the other pairs;
    # remaining ties go to the smaller |shift|.
    consensus = 1e-3 * np.sum(pair_scores, axis=0)
    estimates = []
    for scores in pair_scores:
        ranked = (scores + consensus)[order]
        best_idx = np.asarray(order)[np.argmax(ranked, axis=0)]
        # Sub-pixel peak: quadratic fit through the integer lag neighbors.
        # Rows mixing sub-pixel phases (some obstacles advanced a pixel this
        # step, some not) land between lags instead of voting for one side.
        est = np.empty(height)
        for r in range(height):
            b = int(best_idx[r])
            peak = float(int_shifts[b])
            if 0 < b < len(int_shifts) - 1:
                left, mid, right = scores[b - 1, r], scores[b, r], scores[b + 1, r]
                denom = left - 2.0 * mid + right
                if denom < 0.0:
                    offset = 0.5 * (left - right) / denom
                    peak += float(np.clip(offset, -0.5, 0.5))
            est[r] = peak
        estimates.append(est)
    mean = np.mean(estimates, axis=0)
    return round_px_array(mean * 2.0) / 2.0


def _fit_goal_velocity(centers: list[tuple[float, float] | None]) -> tuple[float, float]:
    """Least-squares constant velocity through the observed goal centers."""
    pts = [(i, c) for i, c in enumerate(centers) if c is not None]
    if len(pts) < 2:
        return 0.0, 0.0
    ts = np.array([p[0] for p in pts], dtype=np.float64)
    xs = np.array([p[1][0] for p in pts])
    ys = np.array([p[1][1] for p in pts])
    denom = ((ts - ts.mean()) ** 2).sum()
    if denom == 0.0:
        return 0.0, 0.0
    vx = float(((ts - ts.mean()) * (xs - xs.mean())).sum() / denom)
    vy = float(((ts - ts.mean()) * (ys - ys.mean())).sum() / denom)
    return vx, vy


def velocity_predict(history: History, k: int) -> PredictedRollout:
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
    latest_occ = obstacle_occupancy(latest)
    active_rows = np.nonzero(latest_occ.any(axis=1))[0]
    row_cols = {int(r): np.nonzero(latest_occ[r])[0].astype(np.float64) for r in active_rows}

    goal_rows, goal_cols = np.nonzero(latest == w.GOAL)
    goal_known = goal_rows.size > 0
    if goal_known:
        gw = int(goal_cols.max() - goal_cols.min() + 1)
        gh = int(goal_rows.max() - goal_rows.min() + 1)
        lo_x, hi_x = (gw - 1) / 2.0, width - 1 - (gw - 1) / 2.0
        lo_y, hi_y = (gh - 1) / 2.0, height - 1 - (gh - 1) / 2.0
        centers = [goal_center_of_frame(f) for f in history.frames]
        gx, gy = centers[-1]
        gvx, gvy = _fit_goal_velocity(centers)

    steps = []
    for i in range(1, k + 1):
        occ = np.zeros((height, width), dtype=bool)
        for r, cols in row_cols.items():
            offset = i * shifts[r]
            # A fractional total offset leaves the body straddling two
            # columns (sub-pixel phase unknown): cover both.
            for shift in {math.floor(offset), math.ceil(offset)}:
                moved = (cols + shift).astype(np.int64)
                moved = moved[(moved >= 0) & (moved < width)]
                occ[r, moved] = True
        estimate = None
        if goal_known:
            gx, gvx = reflect_axis(gx + gvx, gvx, lo_x, hi_x)
            gy, gvy = reflect_axis(gy + gvy, gvy, lo_y, hi_y)
            estimate = (gx, gy)
        steps.append(PredictedFrame(occupancy=freeze(occ), goal_estimate=estimate))
    return PredictedRollout(steps=tuple(steps), model_name="velocity")


def noisy_sample_predict(
    state: WorldState,
    k: int,
    n_samples: int,
    p_fn: float,
    p_fp: float,
    goal_sigma: float,
    rng: np.random.Generator,
) -> PredictedRollout:
    """Union-of-N-corrupted-samples surrogate for a stochastic learned model.

    The base is the true rollout of ``state``; see ``_noisy_samples``.
    """
    return _noisy_samples(oracle_predict(state, k).steps, n_samples, p_fn, p_fp, goal_sigma, rng)


def _noisy_samples(
    base: tuple[PredictedFrame, ...],
    n_samples: int,
    p_fn: float,
    p_fp: float,
    goal_sigma: float,
    rng: np.random.Generator,
) -> PredictedRollout:
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
    agg = [np.zeros((height, width), dtype=bool) for _ in range(k)]
    goal_draws: list[list[tuple[float, float]]] = [[] for _ in range(k)]
    for _ in range(n_samples):
        jx = jy = 0.0
        for i, step in enumerate(base):
            truth = step.occupancy
            drop = rng.random((height, width)) < p_fn
            add = rng.random((height, width)) < p_fp
            agg[i] |= (truth & ~drop) | (~truth & add)
            jx += float(rng.normal(0.0, goal_sigma))
            jy += float(rng.normal(0.0, goal_sigma))
            cx, cy = step.goal_estimate
            goal_draws[i].append((cx + jx, cy + jy))
    steps = []
    for i in range(k):
        xs = [g[0] for g in goal_draws[i]]
        ys = [g[1] for g in goal_draws[i]]
        gx = min(max(float(np.median(xs)), 0.0), float(width - 1))
        gy = min(max(float(np.median(ys)), 0.0), float(height - 1))
        steps.append(PredictedFrame(occupancy=freeze(agg[i]), goal_estimate=(gx, gy)))
    return PredictedRollout(steps=tuple(steps), model_name="noisy", n_samples=n_samples)


def prediction_error(predicted: PredictedFrame, truth: np.ndarray) -> ErrorMap:
    """FN/FP masks plus goal distance between predicted and true centers."""
    if predicted.occupancy.shape != truth.shape:
        raise ValueError("predicted and true frames have different shapes")
    truth_obst = (truth >= 1) & (truth <= w.GOAL - 1)
    fn = truth_obst & ~predicted.occupancy
    fp = predicted.occupancy & ~truth_obst
    true_goal = goal_center_of_frame(truth)
    pred_goal = predicted.goal_estimate
    goal_err = None
    if true_goal is not None and pred_goal is not None:
        goal_err = math.hypot(pred_goal[0] - true_goal[0], pred_goal[1] - true_goal[1])
    return ErrorMap(fn=freeze(fn), fp=freeze(fp), goal_err=goal_err,
                    true_goal=true_goal, pred_goal=pred_goal)


class ForwardModel:
    """Base for the planner-facing model objects; counts rollout generations.

    ``predict(obs, k)`` returns the k-step ``PredictedRollout`` for the
    ``Observation`` obs.
    """

    name = "model"

    def __init__(self) -> None:
        self.calls = 0
        self.n_samples = 1


class OracleModel(ForwardModel):
    """Exact: the true future, read from the episode's timeline."""

    name = "oracle"

    def predict(self, obs: Observation, k: int) -> PredictedRollout:
        self.calls += 1
        return PredictedRollout(steps=obs.timeline.rollout(obs.t, k), model_name=self.name)


class NoisySampleModel(ForwardModel):
    name = "noisy"

    def __init__(self, p_fn: float, p_fp: float, goal_sigma: float, n_samples: int,
                 rng: np.random.Generator) -> None:
        super().__init__()
        self.p_fn = p_fn
        self.p_fp = p_fp
        self.goal_sigma = goal_sigma
        self.n_samples = n_samples
        self.rng = rng

    def predict(self, obs: Observation, k: int) -> PredictedRollout:
        self.calls += 1
        return _noisy_samples(obs.timeline.rollout(obs.t, k), self.n_samples, self.p_fn, self.p_fp,
                              self.goal_sigma, self.rng)


class FrozenModel(ForwardModel):
    name = "frozen"

    def predict(self, obs: Observation, k: int) -> PredictedRollout:
        self.calls += 1
        return frozen_predict(obs.history, k)


class VelocityModel(ForwardModel):
    name = "velocity"

    def predict(self, obs: Observation, k: int) -> PredictedRollout:
        self.calls += 1
        return velocity_predict(obs.history, k)


RANDOM_AGENT_SPECS = ("none", "random")


def build_model(spec: str, rng: np.random.Generator | None = None) -> ForwardModel | None:
    """Model from its selection string; None means the uniform-random agent.

    Accepted: "oracle" | "frozen" | "velocity" | "noisy[:p_fn,p_fp,sigma,n]"
    | "none" | "random".
    """
    spec = spec.strip().lower()
    if spec in RANDOM_AGENT_SPECS:
        return None
    if spec == "oracle":
        return OracleModel()
    if spec == "frozen":
        return FrozenModel()
    if spec == "velocity":
        return VelocityModel()
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
        if not (0.0 <= p_fn <= 1.0 and 0.0 <= p_fp <= 1.0 and 0.0 <= sigma < math.inf and n >= 1):
            raise ValueError(f"bad noisy model spec {spec!r}: needs p_fn, p_fp in [0, 1], "
                             "a finite sigma >= 0 and n >= 1")
        if rng is None:
            raise ValueError("noisy model requires an rng")
        return NoisySampleModel(p_fn=p_fn, p_fp=p_fp, goal_sigma=sigma, n_samples=n, rng=rng)
    raise ValueError(f"unknown model spec {spec!r}")
