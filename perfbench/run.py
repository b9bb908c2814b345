#!/usr/bin/env python3
"""lanenav benchmark: end-to-end throughput with an output check, or a per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload plan_grid --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5 --trace 1
    python3 perfbench/run.py --golden      # ROADMAP golden grid, CSV sha256 check

A run imports lanenav from ``src/`` next to this directory, replays workload
operations (closed loop, one at a time) for ``--seconds`` and compares every
output with the reference recorded from the seed commit. ``--trace 0`` reports
the end-to-end metrics, with operation and set-up times scaled to nominal
machine speed (see calibration.py); ``--trace 1`` spends half the time
untraced, replays the same operations with the outside-in tracer installed,
and reports the per-layer metrics. Every metric is printed by name with its unit; the last
line of standard output is one JSON object (correct, attempted, failed,
metrics). Outputs, spans and a result file with the environment stamp go to
``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from calibration import NOMINAL_S, calibration_s

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("plan_grid", "trace_replay")
SETUP_REPEATS = 9
# Masters per stratum of the cost-balanced input order, and calibration samples
# on each side of an operation in the rolling median that scales its time.
STRATUM = 4
CAL_HALF_WINDOW = 5


def import_lanenav():
    """Import lanenav from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "lanenav" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: lanenav sources not found under {src}")
    sys.path.insert(0, str(src))
    import lanenav
    if Path(lanenav.__file__).resolve().parent != (src / "lanenav").resolve():
        raise SystemExit(f"perfbench: imported lanenav from {lanenav.__file__}, not {src}")
    return lanenav


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_stamp() -> dict:
    import numpy
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": list(os.getloadavg()),
        # The benchmark controls none of these; results carry the noise.
        "cpu_pinning": "not applied",
        "frequency_control": "not applied",
        "cache_dropping": "not applied",
    }


@dataclass
class Measurement:
    durations: list[float] = field(default_factory=list)
    # calibrations[0] precedes the first operation, calibrations[i + 1] follows operation i.
    calibrations: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    episodes: int = 0
    decisions: int = 0
    mismatches: int = 0
    masters: list[int] = field(default_factory=list)
    trace_bytes: int = 0
    trace_steps: int = 0

    @property
    def timed_s(self) -> float:
        return sum(self.durations)

    @property
    def cal_timed_s(self) -> float:
        """Operation time at nominal machine speed.

        Each duration is scaled by NOMINAL_S over the median of the calibration
        samples within CAL_HALF_WINDOW of it, which follows drift in machine
        speed and ignores single disturbed samples.
        """
        cal, half = self.calibrations, CAL_HALF_WINDOW
        return sum(dt * NOMINAL_S / statistics.median(cal[max(0, i + 1 - half):i + 1 + half])
                   for i, dt in enumerate(self.durations))


def input_order(workload, reference: dict, seed: int) -> list[int]:
    """Every master seed of the workload's pool once, in an order drawn from ``seed``.

    The pool is ranked by the reference cost per decision and cut into strata of
    STRATUM masters. The order is STRATUM cycles; each takes one member of every
    stratum, strata shuffled. A run that covers whole cycles has the pool's cost
    mix whatever the seed, which keeps seed-to-seed spread down.
    """
    rng = random.Random(seed)
    ranked = sorted(range(workload.pool_size),
                    key=lambda m: (reference[str(m)]["cost_s"] / max(1, reference[str(m)]["decisions"]), m))
    strata = [ranked[i:i + STRATUM] for i in range(0, len(ranked), STRATUM)]
    for stratum in strata:
        rng.shuffle(stratum)
    order = []
    for cycle in range(STRATUM):
        picks = [stratum[cycle] for stratum in strata if cycle < len(stratum)]
        rng.shuffle(picks)
        order += picks
    return order


def load_reference(workloads, name: str) -> dict:
    return json.loads(workloads.reference_path(name).read_text())["masters"]


def measure(workloads, workload, reference: dict, masters: list[int], seconds: float | None,
            out_dir: Path, log) -> Measurement:
    """Run operations in order until ``seconds`` pass (or, if None, all of ``masters``)."""
    m = Measurement()
    op_dir = out_dir / "op"
    op_dir.mkdir(parents=True, exist_ok=True)
    per_op = workload.episodes_per_op
    start = time.perf_counter()
    m.calibrations.append(calibration_s())
    i = 0
    while seconds is not None or i < len(masters):
        master = masters[i % len(masters)]
        i += 1
        t0 = time.perf_counter()
        try:
            result = workload.run(master, op_dir)
        except Exception:
            result = None
            if m.failed == 0:
                traceback.print_exc(file=sys.stderr)
        dt = time.perf_counter() - t0
        m.durations.append(dt)
        m.calibrations.append(calibration_s())
        m.attempted += per_op
        m.masters.append(master)
        if result is None:
            m.failed += per_op
        else:
            outputs = workload.digest(result)
            want = reference.get(str(master))
            m.episodes += per_op
            if want is None:
                print(f"perfbench: no reference output for master seed {master}", file=sys.stderr)
                m.mismatches += 1
            else:
                bad = workloads.compare(outputs, want["outputs"])
                if bad:
                    print(f"perfbench: {bad} output(s) differ for master seed {master}", file=sys.stderr)
                m.mismatches += bad
                m.decisions += want["decisions"]
            if isinstance(workload, workloads.TraceReplayWorkload):
                for trace_path, _, _, _, steps in result:
                    m.trace_bytes += trace_path.stat().st_size
                    m.trace_steps += steps
            log.write(json.dumps({"master": master, "outputs": outputs}) + "\n")
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    return m


def measure_setup(name: str, seed: int) -> tuple[float, list[float]]:
    """Median calibrated seconds of SETUP_REPEATS fresh processes doing the set-up, and the raw samples."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", name,
           "--seed", str(seed)]
    samples, cals = [], [calibration_s()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
        cals.append(calibration_s())
    return statistics.median(samples) * NOMINAL_S / statistics.median(cals), samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import metrics
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[name]
    reference = load_reference(workloads, name)
    order = input_order(workload, reference, seed)
    out_dir = OUT_DIR / name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    env = env_stamp()

    with open(out_dir / f"outputs-seed{seed}.jsonl", "w") as log:
        if not trace:
            m = measure(workloads, workload, reference, order, seconds, out_dir, log)
            rss = peak_rss_mb()
            setup_s, setup = measure_setup(name, seed)
            values = {
                "decisions_per_s": m.decisions / m.cal_timed_s,
                "setup_s": setup_s,
                "peak_rss_mb": rss,
            }
            units = {n: u for n, u, _, _ in metrics.END_TO_END}
            notes = {
                "decisions_per_s": f"{m.decisions} decisions, {m.episodes} episodes; calibration median "
                                   f"{statistics.median(m.calibrations):.6f} s, nominal {NOMINAL_S} s; "
                                   f"uncalibrated {m.decisions / m.timed_s:.6g} decisions/s, "
                                   f"{m.episodes / m.timed_s:.6g} episodes/s over {m.timed_s:.3f} s",
                "setup_s": "uncalibrated samples " + ", ".join(f"{s:.3f}" for s in setup),
            }
            checked = [m]
            timings = {"durations": m.durations, "calibrations": m.calibrations}
        else:
            untraced = measure(workloads, workload, reference, order, seconds / 2.0, out_dir, log)
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(workloads, workload, reference, untraced.masters, None, out_dir, log)
            finally:
                tracer.uninstall()
            tracer.write_spans(out_dir / f"spans-seed{seed}.jsonl")
            rate_u = untraced.decisions / untraced.cal_timed_s
            rate_t = traced.decisions / traced.cal_timed_s
            values, notes = metrics.per_layer_metrics(
                tracer,
                bytes_per_step=traced.trace_bytes / traced.trace_steps if traced.trace_steps else 0.0,
                overhead_frac=1.0 - rate_t / rate_u if rate_u else 0.0,
            )
            units = {n: u for n, u, _ in metrics.per_layer_spec()}
            checked = [untraced, traced]
            timings = {"durations": untraced.durations + traced.durations,
                       "calibrations": untraced.calibrations + traced.calibrations}

    mismatches = sum(c.mismatches for c in checked)
    attempted = sum(c.attempted for c in checked)
    failed = sum(c.failed for c in checked)
    result = {
        "correct": mismatches == 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }
    print(f"== {name}  seed={seed}  seconds={seconds:g}  trace={int(trace)}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    for n in units:
        note = f"  ({notes[n]})" if n in notes else ""
        print(f"{n} = {values[n]:.6g} {units[n]}{note}")
    print(f"failed_frac = {failed / attempted:.6g} ratio  ({failed} of {attempted} episodes)")
    print(f"mismatches = {mismatches} count")
    (out_dir / f"result-seed{seed}.json").write_text(json.dumps(
        {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "env": env,
         "notes": notes, "mismatches": mismatches, **timings, **result}, indent=1, sort_keys=True))
    return result


def run_golden() -> int:
    """The ROADMAP golden grid at parallelism 2; its CSV sha256 must match."""
    import workloads
    from lanenav import MCTSConfig, WorldConfig
    from lanenav.harness import run_benchmark

    t0 = time.perf_counter()
    table = run_benchmark(list(workloads.GOLDEN_CELLS), WorldConfig(), MCTSConfig(),
                          workloads.GOLDEN_EPISODES, master_seed=workloads.GOLDEN_MASTER_SEED,
                          parallelism=2)
    wall = time.perf_counter() - t0
    OUT_DIR.mkdir(exist_ok=True)
    csv = table.to_csv()
    (OUT_DIR / "golden.csv").write_text(csv)
    sha = hashlib.sha256(csv.encode()).hexdigest()
    ok = sha == workloads.GOLDEN_SHA256
    print(f"golden grid: wall {wall:.1f} s, sha256 {sha} {'matches' if ok else 'DIFFERS from'} the ROADMAP's")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1, help="master seed of the workload inputs")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--golden", action="store_true", help="check the ROADMAP golden grid CSV")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_lanenav()
    if args.setup_only:
        import workloads
        input_order(workloads.WORKLOADS[args.workload], load_reference(workloads, args.workload), args.seed)
        return 0
    if args.golden:
        return run_golden()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
