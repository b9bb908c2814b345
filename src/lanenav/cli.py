"""Command-line entry point.

Subcommands:
  play      one episode; optional JSONL trace and per-step PPM dump
  bench     model x rollout-length x speed grid; text table + CSV
  render    true / predicted / error image triptych for one decision point
  validate  statistical self-checks of the simulator and planner

Each config key a command reads is a flag of it (e.g. ``--level 6``): ``validate``
takes all but model, max_steps and temperature, ``bench`` all but the four its
cells set. ``--config FILE`` loads a key = value file first; flags override it.
The output directory is ``--out-dir``, else LANENAV_OUT_DIR, else the cwd.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import checks
from .config import BENCH_KEYS, CONFIG_KEYS, VALIDATE_KEYS, coerce_value, parse_config
from .fileio import atomic_write_text
from .harness import MAX_EPISODES, MAX_PARALLELISM, BenchCell, run_benchmark, run_episode
from .mcts import MAX_ROLLOUT_LENGTH
from .models import build_model, prediction_error, split_model_specs
from .ppm import prediction_to_rgb, render_error_map, render_ppm, write_ppm
from .seeding import episode_seed
from .tracefile import read_trace, write_trace
from .world import ConfigError, Timeline

OUT_DIR_ENV = "LANENAV_OUT_DIR"


def _add_config_flags(parser: argparse.ArgumentParser, keys: tuple[str, ...] = CONFIG_KEYS) -> None:
    parser.add_argument("--config", type=Path, help="key = value config file")
    group = parser.add_argument_group("config overrides")
    for key in keys:
        group.add_argument(f"--{key.replace('_', '-')}", dest=f"cfg_{key}", metavar="V")
    parser.set_defaults(config_keys=keys)


def _configs_from_args(args: argparse.Namespace):
    overrides = {key: value for key in args.config_keys if (value := getattr(args, f"cfg_{key}")) is not None}
    return parse_config(args.config, overrides, args.config_keys)


def _out_dir(args: argparse.Namespace) -> Path:
    if args.out_dir is not None:
        out = Path(args.out_dir)
    elif os.environ.get(OUT_DIR_ENV):
        out = Path(os.environ[OUT_DIR_ENV])
    else:
        out = Path.cwd()
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_play(args: argparse.Namespace) -> int:
    world_cfg, mcts_cfg, model_spec = _configs_from_args(args)
    seed = args.seed if args.seed is not None else episode_seed(world_cfg.master_seed, args.episode or 0)
    keep = args.trace is not None or args.dump_frames
    record = run_episode(world_cfg, mcts_cfg, model_spec, seed, keep_frames=keep)
    if record.error is not None:
        print(f"episode aborted: {record.error}", file=sys.stderr)
        return 1
    print(f"model={record.model_name} seed={seed} outcome={record.outcome.kind} "
          f"steps={record.steps} reward={record.outcome.reward:g}")
    out = _out_dir(args)
    if args.trace is not None:
        trace_path = Path(args.trace)
        if not trace_path.is_absolute():
            trace_path = out / trace_path
        write_trace(trace_path, record)
        print(f"trace: {trace_path}")
    if args.dump_frames:
        for i, frame in enumerate(record.frames):
            pos = None
            if i > 0:
                step = record.trace[i - 1]
                pos = (step.agent_x, step.agent_y)
            render_ppm(frame, pos, out / f"frame_{i:05d}.ppm")
        print(f"frames: {out}/frame_*.ppm ({len(record.frames)} files)")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    world_cfg, mcts_cfg, _ = _configs_from_args(args)
    cells = [
        BenchCell(model_spec=coerce_value("model", model, "--models"),
                  speed=coerce_value("speed", speed.strip(), "--speeds"),
                  rollout_length=coerce_value("rollout_length", k, "--ks"))
        for model in split_model_specs(args.models)
        for speed in args.speeds.split(",")
        for k in args.ks.split(",")
    ]
    table = run_benchmark(cells, world_cfg, mcts_cfg, n_episodes=args.episodes, parallelism=args.parallelism)
    print(table.format_text())
    csv_path = _out_dir(args) / (args.csv or "bench.csv")
    atomic_write_text(csv_path, table.to_csv())
    print(f"csv: {csv_path}")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    try:
        trace = read_trace(args.trace)
    except ValueError as exc:
        print(f"bad trace: {exc}", file=sys.stderr)
        return 2
    world_cfg = trace.world_config
    if not 0 <= args.step < len(trace.steps):
        print(f"--step must be in 0..{len(trace.steps) - 1}" if trace.steps else f"{args.trace}: trace has no steps",
              file=sys.stderr)
        return 2
    timeline = Timeline(world_cfg, trace.episode_seed)
    t = args.step
    agent_pos = (trace.steps[t - 1].agent_x, trace.steps[t - 1].agent_y) if t > 0 else timeline.start

    model_spec = coerce_value("model", args.model, "--model") if args.model else trace.model_spec
    model = build_model(model_spec, trace.episode_seed)
    k = args.horizon
    if model is None:
        print("random agent has no forward model to render", file=sys.stderr)
        return 2
    frames = model.predict(timeline, t, k)

    out = _out_dir(args)
    for i in range(1, k + 1):
        truth = timeline.frame(t + i)
        pred = frames[i - 1]
        render_ppm(truth, agent_pos, out / f"true_{i:02d}.ppm")
        write_ppm(prediction_to_rgb(pred.occupancy, pred.goal_estimate, world_cfg.goal_size),
                  out / f"pred_{i:02d}.ppm")
        err = prediction_error(pred, truth)
        render_error_map(err, truth, out / f"error_{i:02d}.ppm", goal_size=world_cfg.goal_size)
    print(f"wrote {3 * k} images to {out} (true_/pred_/error_ 01..{k:02d}, model={model.name})")
    return 0


def _up_to(bound: int):
    """The type of an integer flag in 1..``bound``; argparse names the flag in its error."""
    def integer(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
        if value > bound:
            raise argparse.ArgumentTypeError(f"must be <= {bound}, got {value}")
        return value

    return integer


def _cmd_validate(args: argparse.Namespace) -> int:
    world_cfg, mcts_cfg, _ = _configs_from_args(args)
    seed = world_cfg.master_seed
    steps, tol, searches, triples = (20_000, 0.05, 200, 30) if args.quick else (100_000, 0.02, 1000, 100)
    runs = {
        "poisson spawn rate": lambda: checks.spawn_rate(world_cfg, episode_seed(seed, 0), steps, tol),
        "goal speed conservation": lambda: checks.goal_speed(world_cfg, episode_seed(seed, 1), 10_000, 1e-9),
        "mcts visit conservation": lambda: checks.visit_conservation(
            world_cfg, mcts_cfg, checks.timeline_searches(world_cfg, mcts_cfg.rollout_length, 12345, searches)),
        "oracle exactness": lambda: checks.oracle_exactness(
            world_cfg, ((episode_seed(seed, 100 + i), i % 7, 1 + i % 10) for i in range(triples))),
    }
    failed = False
    for name, run in runs.items():
        ok, detail = run()
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        failed |= not ok
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lanenav",
                                     description="dynamic-obstacle navigation: simulator, models, planner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_play = sub.add_parser("play", help="run one episode")
    _add_config_flags(p_play)
    # Default None, not 0: argparse lets a flag whose value is its default slip past the group.
    episode_or_seed = p_play.add_mutually_exclusive_group()
    episode_or_seed.add_argument("--episode", type=int, help="episode index under master_seed (default 0)")
    episode_or_seed.add_argument("--seed", type=int, help="explicit episode seed")
    p_play.add_argument("--trace", help="write a JSONL trace to this file")
    p_play.add_argument("--dump-frames", action="store_true", help="write one PPM per step")
    p_play.add_argument("--out-dir", help="output directory")
    p_play.set_defaults(func=_cmd_play, parser=p_play)

    # No abbreviations: --model and --speed must not pass for --models and --speeds.
    p_bench = sub.add_parser("bench", help="run a benchmark grid", allow_abbrev=False)
    _add_config_flags(p_bench, BENCH_KEYS)
    p_bench.add_argument("--models", default="oracle",
                         help="comma-separated model specs; noisy:p_fn,p_fp,sigma,n keeps its commas")
    p_bench.add_argument("--ks", default="1,3", help="comma-separated rollout lengths")
    p_bench.add_argument("--speeds", default="2x",
                         help="comma-separated speed presets (1x,2x); each sets agent_speed and max_steps")
    p_bench.add_argument("--episodes", type=_up_to(MAX_EPISODES), default=100, help=f"1..{MAX_EPISODES}")
    p_bench.add_argument("--parallelism", type=_up_to(MAX_PARALLELISM), default=1,
                         help=f"pool workers, 1..{MAX_PARALLELISM}")
    p_bench.add_argument("--csv", help="CSV output path (default bench.csv in out dir)")
    p_bench.add_argument("--out-dir", help="output directory")
    p_bench.set_defaults(func=_cmd_bench, parser=p_bench)

    p_render = sub.add_parser("render", help="render true/predicted/error images from a trace")
    p_render.add_argument("--trace", required=True)
    p_render.add_argument("--step", type=int, default=0, help="decision step to render from")
    p_render.add_argument("--horizon", type=_up_to(MAX_ROLLOUT_LENGTH), default=5,
                          help=f"frames to render, 1..{MAX_ROLLOUT_LENGTH}")
    p_render.add_argument("--model", help="model spec (default: the trace's model)")
    p_render.add_argument("--out-dir", help="output directory")
    p_render.set_defaults(func=_cmd_render, parser=p_render)

    p_val = sub.add_parser("validate", help="run statistical self-checks")
    _add_config_flags(p_val, VALIDATE_KEYS)
    p_val.add_argument("--quick", action="store_true", help="smaller samples, looser tolerances")
    p_val.set_defaults(func=_cmd_validate, parser=p_val)
    return parser


def main(argv: list[str] | None = None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:  # reported by the subcommand's parser, so its usage line is the one shown
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
