#!/usr/bin/env python3
"""Record the reference outputs of the benchmark workloads from the current sources.

    python3 perfbench/record.py [--workload NAME]

Writes ``perfbench/reference/<workload>.json``: for every master seed of the
workload's pool, the operation's outputs (G/T/D CSV rows, or trace, PPM and
replay results per episode), its number of agent decisions, which is the work
that ``decisions_per_s`` divides by, and its calibrated time while recording,
which only ranks operations for the cost-balanced input order.
Re-record only when a change alters behaviour on purpose, and say so.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

import run
from calibration import NOMINAL_S, calibration_s


def record(name: str) -> None:
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[name]
    out_dir = run.OUT_DIR / f"record-{name}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    tracer = Tracer()
    tracer.install()
    lines = []
    cal_before = calibration_s()
    try:
        for master in range(workload.pool_size):
            tracer.spans.clear()
            t0 = time.perf_counter()
            result = workload.run(master, out_dir)
            dt = time.perf_counter() - t0
            cal_after = calibration_s()
            cost_s = round(dt * NOMINAL_S / ((cal_before + cal_after) / 2.0), 5)
            cal_before = cal_after
            spans = tracer.spans
            decisions = sum(1 for s in spans if s[0] == "world.agent_step" and s[4] >= 0
                            and spans[s[4]][0] == "harness.run_episode")
            entry = {"outputs": workload.digest(result), "decisions": decisions, "cost_s": cost_s}
            lines.append(f"{json.dumps(str(master))}: {json.dumps(entry, separators=(',', ':'))}")
    finally:
        tracer.uninstall()
    header = {"workload": name, "recorded_from": run.git_sha(), "episodes": workload.episodes,
              "pool_size": workload.pool_size}
    text = json.dumps(header)[:-1] + ', "masters": {\n' + ",\n".join(lines) + "\n}}\n"
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    workloads.reference_path(name).write_text(text)
    print(f"{name}: {workload.pool_size} master seeds recorded")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=run.WORKLOAD_NAMES + ("all",), default="all")
    args = parser.parse_args()
    run.import_lanenav()
    for name in run.WORKLOAD_NAMES if args.workload == "all" else (args.workload,):
        record(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
