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
call. A batch that needs no fresh inputs is repeated, as one repeat, as
often as makes it last ``MIN_BATCH_US`` (1 ms) or more, the count doubled
until an untimed repeat of this tree lasts that long and used for both
trees with ``--against``: a batch of a few tens of microseconds is inside
the host's scheduling noise. Layers:

* ``world.world_step``: one step of a warmed-up world;
* ``world.world_step.bound``: one step of a world warmed up at every
  ``MAX_*`` bound (128 x 128 grid, 128 lanes, 32 arrivals per step, 5000
  warm-up steps, goal speed 128) with bodies of 1-2 cells, about 4000 bodies;
  the world is built once per tree and steps on from batch to batch;
* ``world.new_episode``: lane draw, the 48-step warm-up and placement;
* ``timeline.start``: ``Timeline(cfg, seed)`` over the seeds, a timeline's
  start with frame 0;
* ``world.render_frame``: the palette frame of a warmed-up world;
* ``timeline.frame``: per newly simulated frame, ``Timeline.predicted`` of
  times 1..40 in turn on fresh timelines built in the untimed setup: the
  world step, the frame and its read;
* ``tracefile.frame_to_rle`` and ``tracefile.rle_to_frame``: one frame;
* ``tracefile.write_trace`` and ``tracefile.read_trace``: one trace file of
  a random-agent episode at 2x, about 20 steps;
* ``ppm.frame_to_rgb``: one frame with the agent drawn;
* ``ppm.render_ppm``: one frame with the agent drawn, written as a PPM file;
* ``fileio.atomic_write_bytes``: one payload of a PPM file's size, 6.9 KB;
* ``models.predict.{oracle,frozen,velocity,noisy}.k{1,3,10}``: one
  ``predict`` at t=20 of each timeline, the model built by ``build_model``
  (noisy with its default spec). A tree whose models are still asked with
  an ``Observation`` (before ``predict(timeline, t, k)``) is asked with
  the observation of t, built in the setup;
* ``mcts.run_search.k{1,3,10}``: one search on the oracle's prediction at t=0;
* ``mcts.search_kernel.k{1,3,10}``: the same searches in ``lanenav_search``
  alone, on the arguments and fresh tables ``run_search`` makes, recorded
  in the untimed setup from a call whose kernel is not run, so that its
  ratio is the kernel's without building them and the ctypes call around
  it;
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

The files go to a temporary directory, removed at exit. The report also holds
``src_lines``, the line count of the library's Python sources, and
``src_lines_c``, that of its C sources, to set beside the timings.

After the layers, the script runs the golden grid once per tree, as
``perfbench/run.py --golden`` does: ``run_benchmark`` at parallelism 2 on the
cells, episodes and master seed that ``perfbench/workloads.py`` pins, read
from that file (not imported). The report's ``golden_grid`` gives its wall
time and the sha256 of its CSV, checked against the file's; the script exits
1 if this tree's differs. One run per tree, so its wall time is a single
sample: read it beside the calibration.

Each layer's rounds also time ``calibration_s()`` of ``perfbench/calibration.py``
(imported from its file, which the script does not change), once per round
after the batches, and the report gives its milliseconds per round
(``calibration_ms``, beside each layer's samples) and their quartiles over the
run: a marker of the speed the shared host gave the run at each round, which
moves between phases minutes apart, so that ratios or timings from runs in
different phases are not read as the code's.

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
import ast
import contextlib
import functools
import hashlib
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
MIN_BATCH_US = 1000.0
PREDICT_MODELS = ("oracle", "frozen", "velocity", "noisy")
MODULES = ("fileio", "harness", "kernel", "mcts", "models", "ppm", "seeding", "tracefile", "world")
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


def load_calibration():
    """perfbench's ``calibration_s``, loaded from its file without importing the benchmark package."""
    spec = importlib.util.spec_from_file_location("perfbench_calibration", ROOT / "perfbench" / "calibration.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.calibration_s


def layer_cases(lib: SimpleNamespace, out_dir: Path) -> dict:
    """Name -> (batch function, calls per batch, setup or None), on the library ``lib``; files go to the new
    directory ``out_dir``."""
    out_dir.mkdir()
    WorldConfig, Timeline, MCTSConfig = lib.world.WorldConfig, lib.world.Timeline, lib.mcts.MCTSConfig
    new_episode, render_frame, world_step = lib.world.new_episode, lib.world.render_frame, lib.world.world_step
    run_search, verify_replay = lib.mcts.run_search, lib.harness.verify_replay
    frame_to_rle, rle_to_frame = lib.tracefile.frame_to_rle, lib.tracefile.rle_to_frame
    frame_to_rgb, render_ppm = lib.ppm.frame_to_rgb, lib.ppm.render_ppm
    write_trace, read_trace = lib.tracefile.write_trace, lib.tracefile.read_trace
    lanenav_search = lib.kernel.library.lanenav_search
    seeds = [lib.seeding.episode_seed(1, i) for i in range(8)]
    cfg = WorldConfig().for_speed("2x")
    states = [new_episode(cfg, seed) for seed in seeds]
    frames = [render_frame(s) for s in states]
    rles = [frame_to_rle(f) for f in frames]
    timelines = [Timeline(cfg, seed) for seed in seeds]
    agents = [timeline.start for timeline in timelines]
    rollouts = [timeline.rollout(0, max(KS)) for timeline in timelines]  # the oracle's prediction at t=0
    records = [lib.harness.run_episode(cfg, MCTSConfig(), "none", seed) for seed in seeds]
    traced = [lib.harness.run_episode(cfg, MCTSConfig(), "none", seed, keep_frames=True) for seed in seeds]
    trace_paths = [out_dir / f"trace{i}.jsonl" for i in range(len(traced))]
    for path, record in zip(trace_paths, traced):
        write_trace(path, record)
    ppm_paths = [out_dir / f"frame{i}.ppm" for i in range(len(frames))]
    payload = b"P6\n%d %d\n255\n" % (cfg.grid_w, cfg.grid_h) + frame_to_rgb(frames[0], agents[0]).tobytes()
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

    def kernel_inputs(search, agent, rollout):
        """(``run_search``'s kernel arguments, its fresh tables), recorded from a call of it whose kernel
        returns at once; the frames' occupancies are the timelines', which ``timelines`` keeps."""
        mcts, made = lib.mcts, {}
        kernel, make_tables = mcts._kernel, mcts._search_tables

        def record(*args):
            made["args"] = args
            return 0

        def tables(*args):
            made["tables"] = make_tables(*args)
            return made["tables"]

        mcts._kernel, mcts._search_tables = record, tables
        try:
            run_search(agent, rollout, search, cfg.agent_speed, goal_size=cfg.goal_size)
        finally:
            mcts._kernel, mcts._search_tables = kernel, make_tables
        return made["args"], made["tables"]

    def search_kernel_batch(inputs):
        for args, _ in inputs:
            if lanenav_search(*args) < 0:
                raise RuntimeError("a search failed in the kernel")

    cases = {
        "world.world_step": (step_batch, steps * len(states), lambda: [new_episode(cfg, seed) for seed in seeds]),
        "world.world_step.bound": (bound_batch, steps, None),
        "world.new_episode": (lambda _: [new_episode(cfg, seed) for seed in seeds], len(seeds), None),
        "timeline.start": (lambda _: [Timeline(cfg, seed) for seed in seeds], len(seeds), None),
        "world.render_frame": (lambda _: [render_frame(s) for s in states], len(states), None),
        "timeline.frame": (frame_batch, frames_ahead * len(seeds), lambda: [Timeline(cfg, seed) for seed in seeds]),
        "tracefile.frame_to_rle": (lambda _: [frame_to_rle(f) for f in frames], len(frames), None),
        "tracefile.rle_to_frame": (lambda _: [rle_to_frame(r, cfg.grid_h, cfg.grid_w) for r in rles],
                                   len(rles), None),
        "tracefile.write_trace": (lambda _: [write_trace(p, r) for p, r in zip(trace_paths, traced)],
                                  len(traced), None),
        "tracefile.read_trace": (lambda _: [read_trace(p) for p in trace_paths], len(trace_paths), None),
        "ppm.frame_to_rgb": (lambda _: [frame_to_rgb(f, a) for f, a in zip(frames, agents)], len(frames), None),
        "ppm.render_ppm": (lambda _: [render_ppm(f, a, p) for f, a, p in zip(frames, agents, ppm_paths)],
                           len(frames), None),
        "fileio.atomic_write_bytes": (lambda _: [lib.fileio.atomic_write_bytes(p, payload) for p in ppm_paths],
                                      len(ppm_paths), None),
    }
    for spec in PREDICT_MODELS:
        asks = predictions(lib, spec, timelines, 20)
        for k in KS:
            cases[f"models.predict.{spec}.k{k}"] = (lambda _, asks=asks, k=k: [ask(k) for ask in asks], len(asks), None)
    for k in KS:
        search = MCTSConfig(rollout_length=k)
        cases[f"mcts.run_search.k{k}"] = (
            lambda _, search=search: [run_search(a, r, search, cfg.agent_speed, goal_size=cfg.goal_size)
                                      for a, r in zip(agents, rollouts)],
            len(rollouts), None)
        cases[f"mcts.search_kernel.k{k}"] = (
            search_kernel_batch, len(rollouts), lambda search=search: [kernel_inputs(search, a, r)
                                                                       for a, r in zip(agents, rollouts)])
        rng = lib.seeding.make_rng(0)
        cases[f"mcts.plan_action.k{k}"] = (
            lambda _, search=search, rng=rng: [
                lib.mcts.plan_action(a, r, search, rng, cfg.agent_speed, goal_size=cfg.goal_size)
                for a, r in zip(agents, rollouts)],
            len(rollouts), None)
    search = MCTSConfig()
    for spec in PREDICT_MODELS:
        asks = predictions(lib, spec, timelines, 20)
        rng = lib.seeding.make_rng(0)
        cases[f"decision.{spec}"] = (
            lambda _, asks=asks, rng=rng: [
                lib.mcts.plan_action(timeline.start, ask(search.rollout_length), search, rng, cfg.agent_speed,
                                     goal_size=cfg.goal_size)
                for timeline, ask in zip(timelines, asks)],
            len(asks), None)
    cases["harness.verify_replay"] = (replay_batch, sum(len(r.trace) for r in records), None)
    for label, spec in (("oracle", "oracle"), ("frozen", "frozen"), ("velocity", "velocity"), ("random", "none")):
        cases[f"harness.episode.{label}"] = (
            lambda fresh, spec=spec: [lib.harness._play(timeline, cfg, search, spec) for timeline in fresh],
            len(seeds), lambda: [Timeline(cfg, seed) for seed in seeds])
    grid = [lib.harness.BenchCell(spec, "2x", k) for spec in ("oracle", "frozen") for k in KS]
    cases["harness.bench.plan_grid"] = (
        lambda _: lib.harness.run_benchmark(grid, WorldConfig(), search, 1, master_seed=1), 1, None)
    return cases


def predictions(lib: SimpleNamespace, spec: str, timelines: list, t: int) -> list:
    """Per timeline, a function of k that asks one model of ``spec`` for its prediction at time t. A tree
    whose models take an ``Observation`` and a generator (``model_rng``'s) is asked through the
    observation of t, built here."""
    models = lib.models
    if hasattr(models, "Observation"):
        model = models.build_model(spec, rng=lib.seeding.make_rng(0))
        return [functools.partial(model.predict, models.Observation.at(timeline, t)) for timeline in timelines]
    model = models.build_model(spec, 0)
    return [functools.partial(model.predict, timeline, t) for timeline in timelines]


def golden_grid() -> dict:
    """The golden grid that ``perfbench/workloads.py`` pins, read from its source: ``cells``, a function of
    the library's ``BenchCell`` class, and its ``episodes``, ``master_seed`` and ``sha256``."""
    path = ROOT / "perfbench" / "workloads.py"
    found = {node.targets[0].id: node.value for node in ast.parse(path.read_text()).body
             if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
    models = ast.literal_eval(found["GOLDEN_MODELS"])
    cells = compile(ast.Expression(found["GOLDEN_CELLS"]), str(path), "eval")
    return {"cells": lambda BenchCell: list(eval(cells, {"__builtins__": {"tuple": tuple}, "BenchCell": BenchCell,
                                                         "GOLDEN_MODELS": models})),
            **{key: ast.literal_eval(found[f"GOLDEN_{key.upper()}"]) for key in ("episodes", "master_seed",
                                                                                  "sha256")}}


def time_golden(lib: SimpleNamespace, grid: dict) -> dict:
    """One run of the golden grid on the library ``lib`` at parallelism 2: its wall time and CSV sha256."""
    start = time.perf_counter()
    table = lib.harness.run_benchmark(grid["cells"](lib.harness.BenchCell), lib.world.WorldConfig(),
                                      lib.mcts.MCTSConfig(), grid["episodes"], master_seed=grid["master_seed"],
                                      parallelism=2)
    wall = time.perf_counter() - start
    sha = hashlib.sha256(table.to_csv().encode()).hexdigest()
    return {"wall_s": round(wall, 3), "sha256": sha, "matches": sha == grid["sha256"], "parallelism": 2,
            "episodes": grid["episodes"], "master_seed": grid["master_seed"], "cells": len(table.rows)}


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


def batch_passes(cases: dict) -> dict:
    """Per layer without a setup, the passes of its batch that make a repeat last ``MIN_BATCH_US`` or more:
    doubled, after a first pass that warms its caches, until an untimed repeat of them lasts that long."""
    passes = {}
    for name, (run, calls, setup) in cases.items():
        if setup is None:
            run(None)
            n = 1
            while timed(lambda arg: [run(arg) for _ in range(n)], 1) < MIN_BATCH_US:
                n *= 2
            passes[name] = n
    return passes


def repeated(cases: dict, passes: dict) -> dict:
    """``cases`` with each batch of ``passes`` made that many times over, as one batch of as many calls."""
    def batch(run, n):
        return lambda arg: [run(arg) for _ in range(n)]

    return {name: (batch(run, passes[name]), calls * passes[name], setup) if passes.get(name, 1) > 1
            else (run, calls, setup) for name, (run, calls, setup) in cases.items()}


def measure(trees: list[dict], repeats: int, calibration) -> tuple[list[dict], dict]:
    """Per tree, layer -> samples, and layer -> the ``calibration`` milliseconds of each round; each round
    times every tree once, the first alternating, then the calibration."""
    for cases in trees:
        for run, calls, setup in cases.values():
            timed(run, calls, setup)  # warm caches and lazy set-up outside the samples
    samples = [{name: [] for name in cases} for cases in trees]
    calibration_ms = {name: [] for name in trees[0]}
    for name in trees[0]:
        for round_ in range(repeats):
            order = range(len(trees)) if round_ % 2 == 0 else reversed(range(len(trees)))
            for i in order:
                samples[i][name].append(timed(*trees[i][name]))
            calibration_ms[name].append(round(calibration() * 1000.0, 3))
    return samples, calibration_ms


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
    calibration = load_calibration()
    grid = golden_grid()
    report = {"env": env_stamp()}
    with tempfile.TemporaryDirectory(prefix="lanenav-perf-") as tmp:
        lib = load_library("lanenav")
        cases = layer_cases(lib, Path(tmp) / "change")
        passes = batch_passes(cases)
        cases = repeated(cases, passes)
        if args.against is None:
            [samples], calibration_ms = measure([cases], args.repeats, calibration)
            golden = time_golden(lib, grid)
        else:
            try:
                with worktree(args.against) as (path, sha):
                    parent_lib = import_tree(path / "src", AGAINST_PACKAGE)
                    parent_cases = repeated(layer_cases(parent_lib, Path(tmp) / "parent"), passes)
                    (samples, parent_samples), calibration_ms = measure([cases, parent_cases], args.repeats,
                                                                        calibration)
                    golden, parent_golden = time_golden(lib, grid), time_golden(parent_lib, grid)
            except subprocess.CalledProcessError as exc:
                parser.error(f"--against {args.against}: {exc.stderr.strip()}")
    layers = {}
    for name, (_, calls, _) in cases.items():
        q = layers[name] = {"unit": "us", **quartiles(samples[name], 2), "repeats": args.repeats,
                            "calls_per_repeat": calls, "calibration_ms": calibration_ms[name]}
        print(f"{name:28s} {q['median']:10.1f} us  (IQR {q['q1']:.1f}-{q['q3']:.1f}, "
              f"{args.repeats} x {calls} calls)")
    print(f"{'src_lines':28s} {src_lines():10d}")
    print(f"{'src_lines_c':28s} {src_lines('.c'):10d}")
    all_calibration = [ms for rounds in calibration_ms.values() for ms in rounds]
    calibration_q = {"unit": "ms", **quartiles(all_calibration, 3), "min": min(all_calibration),
                     "max": max(all_calibration), "rounds": len(all_calibration)}
    print(f"{'calibration':28s} {calibration_q['median']:10.2f} ms  (IQR {calibration_q['q1']:.2f}-"
          f"{calibration_q['q3']:.2f}, range {calibration_q['min']:.2f}-{calibration_q['max']:.2f})")
    print(f"{'golden_grid':28s} {golden['wall_s']:10.2f} s   (sha256 {golden['sha256'][:12]}, "
          f"{'matches' if golden['matches'] else 'DIFFERS from'} perfbench/workloads.py)")
    report.update(layers=layers, src_lines=src_lines(), src_lines_c=src_lines(".c"), calibration=calibration_q,
                  golden_grid=golden)
    if args.against is not None:
        print(f"change/parent against {args.against} ({sha[:12]}), median (IQR) of {args.repeats} rounds:")
        ratios = {}
        for name in cases:
            r = ratios[name] = {**quartiles([c / p for c, p in zip(samples[name], parent_samples[name])], 4),
                                "parent_us": round(statistics.median(parent_samples[name]), 2)}
            print(f"{name:28s} {r['median']:8.3f}  ({r['q1']:.3f}-{r['q3']:.3f})")
        print(f"{'golden_grid':28s} {golden['wall_s'] / parent_golden['wall_s']:8.3f}  (one run each; parent "
              f"{parent_golden['wall_s']:.2f} s, sha256 {'matches' if parent_golden['matches'] else 'differs'})")
        report["against"] = {"rev": args.against, "git_sha": sha, "rounds": args.repeats, "ratios": ratios,
                             "golden_grid": parent_golden}
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0 if golden["matches"] else 1


if __name__ == "__main__":
    sys.exit(main())
