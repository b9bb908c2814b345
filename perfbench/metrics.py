"""Metric names, units and the per-layer figures computed from a traced run.

``END_TO_END`` and ``per_layer_spec()`` are the single list of what the
benchmark emits; BENCHMARK.json must name the same metrics (the self-tests
check it). Which end-to-end figure each per-layer one should move, and on
which workload:

* mcts.*: decisions_per_s on plan_grid, none on trace_replay.
* models.*, world.clone_state.calls: a little of decisions_per_s on
  plan_grid (the oracle's frame cache and frozen's copy are cheap), none on
  trace_replay.
* world.new_episode/world_step/render_frame/agent_step: decisions_per_s on
  trace_replay, about a quarter as much on plan_grid.
* world.world_step.useful_frac: decisions_per_s on both, and peak_rss_mb (a
  shared timeline or frame cache shows there).
* harness.decision.*, harness.run_episode.self_s: decisions_per_s on plan_grid.
* tracefile.*, ppm.*, fileio.*, harness.verify_replay.*: decisions_per_s on
  trace_replay only.
"""
from __future__ import annotations

from collections import defaultdict

from tracer import (
    LAYERS,
    PREDICT,
    decision_samples,
    nearest_ancestor,
    percentile,
    self_times,
    tail_percentile,
    useful_frac,
)

# (name, unit, better, bound): bound is the share of the parent's median a
# metric may worsen by before a change counts as a regression.
END_TO_END = (
    ("decisions_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

KS = (1, 3, 10)
MODELS = ("oracle", "frozen")
DECIDERS = MODELS + ("random",)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    spec = []

    def add(name: str, unit: str, better: str = "lower") -> None:
        spec.append((name, unit, better))

    for k in KS:
        add(f"mcts.run_search.calls.k{k}", "count")
        add(f"mcts.run_search.p50_us.k{k}", "us")
        add(f"mcts.run_search.tail_us.k{k}", "us")
        add(f"mcts.nodes_per_search.k{k}", "count")
    add("mcts.run_search.self_s", "s")
    for m in MODELS:
        add(f"models.predict.calls.{m}", "count")
        add(f"models.predict.p50_us.{m}", "us")
        add(f"models.predict.tail_us.{m}", "us")
        add(f"models.predict.self_s.{m}", "s")
        add(f"models.predict.world_steps_per_call.{m}", "count")
    add("models.predict.total_s", "s")
    add("world.clone_state.calls", "count")
    add("world.new_episode.calls", "count")
    add("world.new_episode.p50_us", "us")
    add("world.world_step.calls", "count")
    add("world.world_step.self_s", "s")
    add("world.world_step.useful_frac", "ratio", "higher")
    add("world.render_frame.calls", "count")
    add("world.render_frame.self_s", "s")
    add("world.agent_step.self_s", "s")
    for m in DECIDERS:
        add(f"harness.decision.p50_us.{m}", "us")
        add(f"harness.decision.tail_us.{m}", "us")
    add("harness.run_episode.self_s", "s")
    add("harness.verify_replay.p50_us", "us")
    add("tracefile.write_trace.p50_us", "us")
    add("tracefile.read_trace.p50_us", "us")
    add("tracefile.rle_to_frame.p50_us", "us")
    add("tracefile.bytes_per_step", "B")
    add("ppm.render_ppm.p50_us", "us")
    add("fileio.atomic_write_bytes.calls", "count")
    add("fileio.atomic_write_bytes.p50_us", "us")
    add("fileio.bytes_written", "B")
    for layer in LAYERS:
        add(f"layer.{layer}.self_s", "s")
    add("trace.overhead_frac", "ratio")
    return spec


def _timing(samples: list[float]) -> tuple[float, float, str]:
    """p50, tail and a note naming the tail percentile and sample count."""
    if not samples:
        return 0.0, 0.0, "n=0"
    ordered = sorted(samples)
    p = tail_percentile(len(ordered))
    if p is None:
        return percentile(ordered, 50.0), 0.0, f"n={len(ordered)}, too few for a tail"
    return percentile(ordered, 50.0), percentile(ordered, p), f"p{p:g}, n={len(ordered)}"


def per_layer_metrics(tracer, bytes_per_step: float,
                      overhead_frac: float) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer values by name from the tracer's spans, plus printable notes."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_name: dict[str, list[float]] = defaultdict(list)
    by_tag: dict[tuple, list[float]] = defaultdict(list)
    self_ns: dict[str, int] = defaultdict(int)
    self_ns_tag: dict[tuple, int] = defaultdict(int)
    layer_ns: dict[str, int] = defaultdict(int)
    nodes: dict[str, list[int]] = defaultdict(list)
    predict_steps: dict[str, int] = defaultdict(int)
    bytes_written = 0
    for i, (name, tag, start, end, parent, extra) in enumerate(spans):
        us = (end - start) / 1000.0
        by_name[name].append(us)
        by_tag[(name, tag)].append(us)
        self_ns[name] += selfs[i]
        self_ns_tag[(name, tag)] += selfs[i]
        layer_ns[name.split(".", 1)[0]] += selfs[i]
        if name == "mcts.run_search":
            nodes[tag].append(extra)
        elif name == "world.world_step":
            owner = nearest_ancestor(spans, i, PREDICT)
            if owner >= 0:
                predict_steps[spans[owner][1]] += 1
        elif name == "fileio.atomic_write_bytes":
            bytes_written += tag

    values: dict[str, float] = {}
    notes: dict[str, str] = {}

    def timed(prefix: str, suffix: str, samples: list[float]) -> None:
        p50, tail, note = _timing(samples)
        values[f"{prefix}.p50_us{suffix}"] = p50
        values[f"{prefix}.tail_us{suffix}"] = tail
        notes[f"{prefix}.tail_us{suffix}"] = note

    for k in KS:
        samples = by_tag[("mcts.run_search", f"k{k}")]
        values[f"mcts.run_search.calls.k{k}"] = len(samples)
        timed("mcts.run_search", f".k{k}", samples)
        counts = nodes[f"k{k}"]
        values[f"mcts.nodes_per_search.k{k}"] = sum(counts) / len(counts) if counts else 0.0
    values["mcts.run_search.self_s"] = self_ns["mcts.run_search"] / 1e9
    for m in MODELS:
        samples = by_tag[(PREDICT, m)]
        values[f"models.predict.calls.{m}"] = len(samples)
        timed("models.predict", f".{m}", samples)
        values[f"models.predict.self_s.{m}"] = self_ns_tag[(PREDICT, m)] / 1e9
        values[f"models.predict.world_steps_per_call.{m}"] = (
            predict_steps[m] / len(samples) if samples else 0.0)
    values["models.predict.total_s"] = sum(by_name[PREDICT]) / 1e6
    values["world.clone_state.calls"] = len(by_name["world.clone_state"])
    values["world.new_episode.calls"] = len(by_name["world.new_episode"])
    values["world.new_episode.p50_us"] = _timing(by_name["world.new_episode"])[0]
    values["world.world_step.calls"] = tracer.step_calls
    values["world.world_step.self_s"] = self_ns["world.world_step"] / 1e9
    values["world.world_step.useful_frac"] = useful_frac(tracer.step_keys, tracer.step_calls)
    values["world.render_frame.calls"] = len(by_name["world.render_frame"])
    values["world.render_frame.self_s"] = self_ns["world.render_frame"] / 1e9
    values["world.agent_step.self_s"] = self_ns["world.agent_step"] / 1e9
    decisions = decision_samples(spans)
    for m in DECIDERS:
        timed("harness.decision", f".{m}", decisions.get(m, []))
    values["harness.run_episode.self_s"] = self_ns["harness.run_episode"] / 1e9
    for name in ("harness.verify_replay", "tracefile.write_trace", "tracefile.read_trace",
                 "tracefile.rle_to_frame"):
        values[f"{name}.p50_us"] = _timing(by_name[name])[0]
    values["tracefile.bytes_per_step"] = bytes_per_step
    values["ppm.render_ppm.p50_us"] = _timing(by_name["ppm.render_ppm"])[0]
    values["fileio.atomic_write_bytes.calls"] = len(by_name["fileio.atomic_write_bytes"])
    values["fileio.atomic_write_bytes.p50_us"] = _timing(by_name["fileio.atomic_write_bytes"])[0]
    values["fileio.bytes_written"] = bytes_written
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = layer_ns[layer] / 1e9
    values["trace.overhead_frac"] = overhead_frac
    return values, notes
