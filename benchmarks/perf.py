#!/usr/bin/env python3
"""Layer timings of lanenav: median and IQR over repeats, written as JSON.

Run from the repository root:

    python3 benchmarks/perf.py --out BENCH_<n>.json      # a few seconds
    python3 benchmarks/perf.py --repeats 3 --out /tmp/bench.json   # smoke run

where ``<n>`` numbers the change the report belongs to (see ROADMAP.md).

lanenav is imported from ``src/`` next to this directory. Every layer is
timed in-process on fixed inputs built before the clock starts (the default
world at 2x, episode seeds of master seed 1). One repeat times a batch of
calls with ``time.perf_counter_ns`` and gives the mean time per call; the
report is the median and the quartiles over repeats, in microseconds per
call. Layers:

* ``world.world_step``: one step of a warmed-up world;
* ``world.world_step.bound``: one step of a world warmed up at every
  ``MAX_*`` bound (128 x 128 grid, 128 lanes, 32 arrivals per step, 5000
  warm-up steps, goal speed 128) with bodies of 1-2 cells, about 4000 bodies;
  the world is built once per tree and steps on from batch to batch;
* ``world.new_episode``: lane draw, the 48-step warm-up and placement;
* ``world.render_frame``: the palette frame of a warmed-up world;
* ``timeline.frame``: per newly simulated frame, ``Timeline.predicted`` of
  times 1..40 in turn on fresh timelines built in the untimed setup: the
  world step, the frame and its read;
* ``tracefile.frame_to_rle`` and ``tracefile.rle_to_frame``: one frame;
* ``ppm.frame_to_rgb``: one frame with the agent drawn;
* ``models.predict.{oracle,frozen,velocity,noisy}.k{1,3,10}``: one
  ``predict`` at t=20 of each timeline, the model built by ``build_model``
  (noisy with its default spec);
* ``mcts.run_search.k{1,3,10}``: one search on the oracle's prediction at t=0;
* ``mcts.plan_action.k{1,3,10}``: one planned action on the same inputs, the
  search then the temperature pick, so that its ratio beside
  ``run_search``'s shows the cost around the search kernel;
* ``decision.{oracle,frozen,velocity,noisy}``: the whole path of one planner
  decision at t=20 with the default search (k=3): that model's ``predict``,
  then ``plan_action`` on its prediction;
* ``harness.verify_replay``: per replayed step, the replay of random-agent
  episodes, fresh timeline included;
* ``harness.episode.{oracle,frozen,velocity,random}``: one whole episode at
  2x with the default search, the planner with that model or the random
  agent, on a fresh timeline of its seed built in the untimed setup, so the
  episode simulates its frames as it goes;
* ``harness.bench.plan_grid``: one serial ``run_benchmark`` of six cells,
  oracle and frozen at k = 1, 3 and 10 at 2x, one episode each on master
  seed 1: the benchmark's own path, timelines, outcomes and table included.

The report also holds ``src_lines``, the line count of the library's Python
sources, and ``src_lines_c``, that of its C sources, to set beside the timings.

With ``--against REV`` the script compares this tree with the commit REV:

    python3 benchmarks/perf.py --against HEAD~1 --out /tmp/ab.json

REV is checked out with ``git worktree add`` into a temporary directory
(removed at exit), and its ``lanenav`` is imported into the same process
under the package name ``lanenav_against``. Each round times every layer
once on each tree, the tree going first alternating between rounds, and
gives the ratio change/parent of the two batches. The report adds, per
layer, the median and quartiles of those ratios; below 1.0 means this tree
is faster. ``--against HEAD`` compares the committed tree with itself and
should read close to 1.0 everywhere.

The script pins no CPU and controls no clock frequency, and the JSON says so:
on a shared host, compare runs made back to back, by their medians, or use
``--against``.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

KS = (1, 3, 10)
PREDICT_MODELS = ("oracle", "frozen", "velocity", "noisy")
MODULES = ("harness", "mcts", "models", "ppm", "seeding", "tracefile", "world")
AGAINST_PACKAGE = "lanenav_against"


def git(*args: str) -> str:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def env_stamp() -> dict:
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "uncommitted_changes": git("status", "--porcelain", "--untracked-files=no") not in ("", "unknown"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        # The script controls none of these; the figures carry the host's noise.
        "cpu_pinning": "unavailable, not applied",
        "frequency_control": "unavailable, not applied",
    }


def timed(run, calls: int, setup=None) -> float:
    """Mean microseconds per call of one batch; ``setup`` runs before the clock starts."""
    arg = setup() if setup is not None else None
    start = time.perf_counter_ns()
    run(arg)
    return (time.perf_counter_ns() - start) / calls / 1000.0


def load_library(package: str) -> SimpleNamespace:
    """The modules of an imported lanenav package, by their short names."""
    return SimpleNamespace(**{name: importlib.import_module(f"{package}.{name}") for name in MODULES})


def import_tree(src: Path, package: str) -> SimpleNamespace:
    """Import ``src/lanenav`` of another checkout under the name ``package``.

    The library uses relative imports only, so one spec with the package's
    directory as its search path loads the whole copy beside this one.
    """
    init = src / "lanenav" / "__init__.py"
    spec = importlib.util.spec_from_file_location(package, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[package] = module
    spec.loader.exec_module(module)
    return load_library(package)


def layer_cases(lib: SimpleNamespace) -> dict:
    """Name -> (batch function, calls per batch, setup or None), on the library ``lib``."""
    WorldConfig, Timeline, MCTSConfig = lib.world.WorldConfig, lib.world.Timeline, lib.mcts.MCTSConfig
    new_episode, render_frame, world_step = lib.world.new_episode, lib.world.render_frame, lib.world.world_step
    run_search, verify_replay = lib.mcts.run_search, lib.harness.verify_replay
    frame_to_rle, rle_to_frame = lib.tracefile.frame_to_rle, lib.tracefile.rle_to_frame
    frame_to_rgb = lib.ppm.frame_to_rgb
    seeds = [lib.seeding.episode_seed(1, i) for i in range(8)]
    cfg = WorldConfig().for_speed("2x")
    states = [new_episode(cfg, seed) for seed in seeds]
    frames = [render_frame(s) for s in states]
    rles = [frame_to_rle(f) for f in frames]
    timelines = [Timeline(cfg, seed) for seed in seeds]
    agents = [timeline.start for timeline in timelines]
    oracle = lib.models.build_model("oracle")
    rollouts = [oracle.predict(lib.models.Observation.at(timeline, 0), max(KS)) for timeline in timelines]
    observations = [lib.models.Observation.at(timeline, 20) for timeline in timelines]
    records = [lib.harness.run_episode(cfg, MCTSConfig(), "none", seed) for seed in seeds]
    steps, frames_ahead = 10, 40

    def replay_batch(_):
        if not all(verify_replay(r) for r in records):
            raise RuntimeError("a random-agent episode failed its replay")

    def step_batch(fresh):
        for state in fresh:
            for _ in range(steps):
                world_step(state)

    bound = bound_world(lib)

    def frame_batch(fresh):
        for timeline in fresh:
            for t in range(1, frames_ahead + 1):
                timeline.predicted(t)

    def bound_batch(_):
        for _ in range(steps):
            world_step(bound)

    cases = {
        "world.world_step": (step_batch, steps * len(states), lambda: [new_episode(cfg, seed) for seed in seeds]),
        "world.world_step.bound": (bound_batch, steps, None),
        "world.new_episode": (lambda _: [new_episode(cfg, seed) for seed in seeds], len(seeds), None),
        "world.render_frame": (lambda _: [render_frame(s) for s in states], len(states), None),
        "timeline.frame": (frame_batch, frames_ahead * len(seeds), lambda: [Timeline(cfg, seed) for seed in seeds]),
        "tracefile.frame_to_rle": (lambda _: [frame_to_rle(f) for f in frames], len(frames), None),
        "tracefile.rle_to_frame": (lambda _: [rle_to_frame(r, cfg.grid_h, cfg.grid_w) for r in rles],
                                   len(rles), None),
        "ppm.frame_to_rgb": (lambda _: [frame_to_rgb(f, a) for f, a in zip(frames, agents)], len(frames), None),
    }
    for spec in PREDICT_MODELS:
        model = lib.models.build_model(spec, rng=lib.seeding.make_rng(0))
        for k in KS:
            cases[f"models.predict.{spec}.k{k}"] = (
                lambda _, model=model, k=k: [model.predict(obs, k) for obs in observations], len(observations), None)
    for k in KS:
        search = MCTSConfig(rollout_length=k)
        cases[f"mcts.run_search.k{k}"] = (
            lambda _, search=search: [run_search(a, r, search, cfg.agent_speed, goal_size=cfg.goal_size)
                                      for a, r in zip(agents, rollouts)],
            len(rollouts), None)
        rng = lib.seeding.make_rng(0)
        cases[f"mcts.plan_action.k{k}"] = (
            lambda _, search=search, rng=rng: [
                lib.mcts.plan_action(a, r, search, rng, cfg.agent_speed, goal_size=cfg.goal_size)
                for a, r in zip(agents, rollouts)],
            len(rollouts), None)
    search = MCTSConfig()
    for spec in PREDICT_MODELS:
        model = lib.models.build_model(spec, rng=lib.seeding.make_rng(0))
        rng = lib.seeding.make_rng(0)
        cases[f"decision.{spec}"] = (
            lambda _, model=model, rng=rng: [
                lib.mcts.plan_action(timeline.start, model.predict(obs, search.rollout_length), search, rng,
                                     cfg.agent_speed, goal_size=cfg.goal_size)
                for timeline, obs in zip(timelines, observations)],
            len(observations), None)
    cases["harness.verify_replay"] = (replay_batch, sum(len(r.trace) for r in records), None)
    for label, spec in (("oracle", "oracle"), ("frozen", "frozen"), ("velocity", "velocity"), ("random", "none")):
        cases[f"harness.episode.{label}"] = (
            lambda fresh, spec=spec: [lib.harness._play(timeline, cfg, search, spec) for timeline in fresh],
            len(seeds), lambda: [Timeline(cfg, seed) for seed in seeds])
    grid = [lib.harness.BenchCell(spec, "2x", k) for spec in ("oracle", "frozen") for k in KS]
    cases["harness.bench.plan_grid"] = (
        lambda _: lib.harness.run_benchmark(grid, WorldConfig(), search, 1, master_seed=1), 1, None)
    return cases


def bound_world(lib: SimpleNamespace):
    """A world at every ``MAX_*`` bound of ``WorldConfig`` with short bodies, past its warm-up."""
    world = lib.world
    classes = tuple(world.ObstacleClass(c.class_id, c.mean_speed, c.speed_jitter, mean_length=1.5, length_jitter=0.5)
                    for c in world.DEFAULT_CLASSES)
    cfg = world.WorldConfig(grid_h=world.MAX_GRID, grid_w=world.MAX_GRID, warmup_steps=world.MAX_WARMUP_STEPS,
                            goal_speed=world.MAX_GOAL_SPEED, lane_rows=tuple(range(world.MAX_GRID)),
                            level=world.MAX_ARRIVALS / world.MAX_GRID, spawn_base_rate=1.0,
                            obstacle_classes=classes)
    return world.new_episode(cfg, lib.seeding.episode_seed(1, 0))


def src_lines(suffix: str = ".py") -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob(f"*{suffix}")))


def quartiles(samples: list[float], digits: int) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": round(median, digits), "q1": round(q1, digits), "q3": round(q3, digits),
            "iqr": round(q3 - q1, digits)}


@contextlib.contextmanager
def worktree(rev: str):
    """Yield (path, commit id) of a ``git worktree add`` of ``rev`` in a temporary directory."""
    with tempfile.TemporaryDirectory(prefix="lanenav-against-") as tmp:
        path = Path(tmp) / "tree"
        sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout.strip()
        subprocess.run(["git", "worktree", "add", "--detach", str(path), sha], cwd=ROOT,
                       capture_output=True, text=True, check=True)
        try:
            yield path, sha
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(path)], cwd=ROOT,
                           capture_output=True, check=False)


def measure(trees: list[dict], repeats: int) -> list[dict]:
    """Per tree, layer -> samples; each round times every tree once, the first alternating."""
    for cases in trees:
        for run, calls, setup in cases.values():
            timed(run, calls, setup)  # warm caches and lazy set-up outside the samples
    samples = [{name: [] for name in cases} for cases in trees]
    for name in trees[0]:
        for round_ in range(repeats):
            order = range(len(trees)) if round_ % 2 == 0 else reversed(range(len(trees)))
            for i in order:
                samples[i][name].append(timed(*trees[i][name]))
    return samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--repeats", type=int, default=21,
                        help="timed batches per layer, and rounds with --against (at least 2)")
    parser.add_argument("--out", type=Path, default=Path("BENCH.json"), help="JSON report path")
    parser.add_argument("--against", metavar="REV",
                        help="also time the commit REV, alternated round by round, and report ratios")
    args = parser.parse_args(argv)
    if args.repeats < 2:
        parser.error("--repeats must be at least 2 for quartiles")
    cases = layer_cases(load_library("lanenav"))
    report = {"env": env_stamp()}
    if args.against is None:
        [samples] = measure([cases], args.repeats)
    else:
        try:
            with worktree(args.against) as (path, sha):
                parent_cases = layer_cases(import_tree(path / "src", AGAINST_PACKAGE))
                samples, parent_samples = measure([cases, parent_cases], args.repeats)
        except subprocess.CalledProcessError as exc:
            parser.error(f"--against {args.against}: {exc.stderr.strip()}")
    layers = {}
    for name, (_, calls, _) in cases.items():
        q = layers[name] = {"unit": "us", **quartiles(samples[name], 2), "repeats": args.repeats,
                            "calls_per_repeat": calls}
        print(f"{name:28s} {q['median']:10.1f} us  (IQR {q['q1']:.1f}-{q['q3']:.1f}, "
              f"{args.repeats} x {calls} calls)")
    print(f"{'src_lines':28s} {src_lines():10d}")
    print(f"{'src_lines_c':28s} {src_lines('.c'):10d}")
    report.update(layers=layers, src_lines=src_lines(), src_lines_c=src_lines(".c"))
    if args.against is not None:
        print(f"change/parent against {args.against} ({sha[:12]}), median (IQR) of {args.repeats} rounds:")
        ratios = {}
        for name in cases:
            r = ratios[name] = {**quartiles([c / p for c, p in zip(samples[name], parent_samples[name])], 4),
                                "parent_us": round(statistics.median(parent_samples[name]), 2)}
            print(f"{name:28s} {r['median']:8.3f}  ({r['q1']:.3f}-{r['q3']:.3f})")
        report["against"] = {"rev": args.against, "git_sha": sha, "rounds": args.repeats, "ratios": ratios}
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
