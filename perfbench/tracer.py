"""Outside-in tracer: spans around lanenav's layer functions, from outside.

The library is not edited. ``Tracer.install`` replaces each target function at
every ``lanenav.*`` module binding it is looked up through (``lanenav.world.
world_step`` and ``lanenav.models.world_step`` are the same function bound in
two places), and the ``predict`` method of every forward-model class. A target
that does not exist in the library is skipped, so its metrics read 0 calls.

Spans are ``(name, tag, start_ns, end_ns, parent, extra)`` tuples kept in
memory; the benchmark writes them out once, after measuring. Only the calling
process is traced, so workloads run ``run_benchmark`` at parallelism 1.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, function) per traced function; the span name is "<layer>.<function>".
FUNCTION_TARGETS = (
    ("lanenav.world", "new_episode"),
    ("lanenav.world", "world_step"),
    ("lanenav.world", "render_frame"),
    ("lanenav.world", "agent_step"),
    ("lanenav.world", "clone_state"),
    ("lanenav.mcts", "plan_action"),
    ("lanenav.mcts", "run_search"),
    ("lanenav.harness", "run_benchmark"),
    ("lanenav.harness", "run_episode"),
    ("lanenav.harness", "verify_replay"),
    ("lanenav.tracefile", "write_trace"),
    ("lanenav.tracefile", "read_trace"),
    ("lanenav.tracefile", "rle_to_frame"),
    ("lanenav.tracefile", "frame_to_rle"),
    ("lanenav.ppm", "render_ppm"),
    ("lanenav.fileio", "atomic_write_bytes"),
)
PREDICT = "models.predict"
LAYERS = ("world", "models", "mcts", "harness", "tracefile", "ppm", "fileio")

# Percentiles tried for a tail figure, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10


def span_name(module: str, func: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{func}"


def model_label(spec) -> str:
    """Model name of a run_episode spec string or model object."""
    name = getattr(spec, "name", None)
    if name is not None:
        return str(name)
    spec = str(spec).strip().lower()
    if spec in ("none", "random"):
        return "random"
    return spec.split(":", 1)[0]


def _arg(args, kwargs, index: int, key: str):
    if key in kwargs:
        return kwargs[key]
    return args[index] if len(args) > index else None


def count_nodes(root) -> int:
    """Nodes of a search tree reachable through ``children``; 0 if opaque."""
    if not hasattr(root, "children"):
        return 0
    count, todo = 0, [root]
    while todo:
        node = todo.pop()
        count += 1
        todo.extend(c for c in node.children if c is not None)
    return count


def percentile(sorted_vals: list[float], p: float) -> float:
    """Linear-interpolated percentile of an ascending list (numpy's default)."""
    if not sorted_vals:
        raise ValueError("percentile of no samples")
    pos = (len(sorted_vals) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples above it."""
    for p in TAIL_LADDER:
        # The tolerance absorbs float error in 100 - p (100 - 99.9 < 0.1).
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            return p
    return None


class Tracer:
    """Installs wrappers into lanenav and records spans until ``uninstall``."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._stack: list[tuple[int, str]] = []
        self.step_keys: set[tuple] = set()
        self.step_calls = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "lanenav" or n.startswith("lanenav."))]
        for module_name, func in FUNCTION_TARGETS:
            module = sys.modules.get(module_name)
            original = getattr(module, func, None) if module is not None else None
            if original is None:
                continue
            wrapper = self._wrap(span_name(module_name, func), original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        models = sys.modules.get("lanenav.models")
        for cls in list(vars(models).values()) if models is not None else ():
            if isinstance(cls, type) and "predict" in vars(cls):
                self._patched.append((cls, "predict", vars(cls)["predict"]))
                setattr(cls, "predict", self._wrap(PREDICT, vars(cls)["predict"]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- recording --------------------------------------------------------

    def _tag(self, name: str, args, kwargs):
        if name == "world.world_step":
            state = _arg(args, kwargs, 0, "state")
            warm = any(n == "world.new_episode" for _, n in self._stack)
            key = (getattr(state, "episode_seed", None), getattr(state, "t", None), warm)
            self.step_keys.add(key)
            self.step_calls += 1
            return None
        if name == "mcts.run_search":
            cfg = _arg(args, kwargs, 2, "cfg")
            return f"k{getattr(cfg, 'rollout_length', '?')}"
        if name == PREDICT:
            return str(getattr(args[0], "name", "?"))
        if name == "harness.run_episode":
            return model_label(_arg(args, kwargs, 2, "model_spec"))
        if name == "fileio.atomic_write_bytes":
            data = _arg(args, kwargs, 1, "data")
            return len(data) if data is not None else 0
        return None

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = tracer._tag(name, args, kwargs)
            sid = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append((sid, name))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans[sid] = (name, tag, start, end, parent, None)
            if name == "mcts.run_search":
                tracer.spans[sid] = (name, tag, start, end, parent, count_nodes(result))
            return result

        return traced

    def write_spans(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- aggregation --------------------------------------------------------------

def self_times(spans: list[tuple]) -> list[int]:
    """Per span, its duration minus the durations of its direct children (ns)."""
    child = [0] * len(spans)
    for name, tag, start, end, parent, extra in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, _, start, end, _, _) in enumerate(spans)]


def decision_samples(spans: list[tuple]) -> dict[str, list[float]]:
    """Per model, µs between consecutive agent steps of one episode.

    One decision is predict + plan + agent step + render: the interval from the
    end of one ``agent_step`` directly under ``run_episode`` to the end of the
    next covers exactly that (the first step of each episode is not counted).
    """
    last_end: dict[int, int] = {}
    out: dict[str, list[float]] = defaultdict(list)
    for name, tag, start, end, parent, extra in spans:
        if name != "world.agent_step" or parent < 0 or spans[parent][0] != "harness.run_episode":
            continue
        if parent in last_end:
            out[spans[parent][1]].append((end - last_end[parent]) / 1000.0)
        last_end[parent] = end
    return out


def nearest_ancestor(spans: list[tuple], index: int, name: str) -> int:
    parent = spans[index][4]
    while parent >= 0:
        if spans[parent][0] == name:
            return parent
        parent = spans[parent][4]
    return -1


def useful_frac(keys: set, calls: int) -> float:
    """Distinct (episode seed, t, warm-up) world states per world_step call."""
    return len(keys) / calls if calls else 0.0
