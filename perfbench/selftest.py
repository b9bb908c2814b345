#!/usr/bin/env python3
"""Self-tests of the benchmark's own arithmetic, tracer and output contract.

    python3 perfbench/selftest.py

Not collected by pytest (the name does not match ``test_*.py``): the smoke
runs take about a minute and belong to the benchmark, not to the library.
"""
from __future__ import annotations

import json
import math
import sys
import unittest

import run

run.import_lanenav()

import metrics  # noqa: E402
import tracer  # noqa: E402
from tracer import Tracer, decision_samples, percentile, self_times, tail_percentile  # noqa: E402


def span(name, start, end, parent, tag=None, extra=None):
    return (name, tag, start, end, parent, extra)


class PercentileTest(unittest.TestCase):
    def test_interpolates_like_numpy(self):
        vals = [1.0, 2.0, 3.0, 4.0]
        self.assertEqual(percentile(vals, 0), 1.0)
        self.assertEqual(percentile(vals, 100), 4.0)
        self.assertAlmostEqual(percentile(vals, 50), 2.5)
        self.assertAlmostEqual(percentile(vals, 90), 3.7)
        self.assertEqual(percentile([7.0], 99.9), 7.0)

    def test_tail_is_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(tail_percentile(39))
        self.assertEqual(tail_percentile(40), 75.0)
        self.assertEqual(tail_percentile(100), 90.0)
        self.assertEqual(tail_percentile(199), 90.0)
        self.assertEqual(tail_percentile(200), 95.0)
        self.assertEqual(tail_percentile(999), 95.0)
        self.assertEqual(tail_percentile(1000), 99.0)
        self.assertEqual(tail_percentile(10000), 99.9)

    def test_timing_note_names_percentile(self):
        p50, tail, note = metrics._timing([float(i) for i in range(1, 101)])
        self.assertAlmostEqual(p50, 50.5)
        self.assertAlmostEqual(tail, percentile([float(i) for i in range(1, 101)], 90.0))
        self.assertEqual(note, "p90, n=100")
        self.assertEqual(metrics._timing([]), (0.0, 0.0, "n=0"))


class RunArithmeticTest(unittest.TestCase):
    def test_order_is_a_permutation_with_one_member_per_stratum_per_cycle(self):
        class Pool:
            pool_size = 10

        # Cost per decision ranks master m at position 9 - m.
        reference = {str(m): {"cost_s": 10.0 - m, "decisions": 1} for m in range(10)}
        order = run.input_order(Pool, reference, seed=5)
        self.assertEqual(sorted(order), list(range(10)))
        self.assertEqual(order, run.input_order(Pool, reference, seed=5))
        self.assertNotEqual(order, run.input_order(Pool, reference, seed=6))
        strata = [{9, 8, 7, 6}, {5, 4, 3, 2}, {1, 0}]
        # Cycles of sizes 3, 3, 2, 2 (the last stratum has two members).
        for cycle in (order[0:3], order[3:6], order[6:8], order[8:10]):
            self.assertEqual(sorted(next(i for i, s in enumerate(strata) if m in s) for m in cycle),
                             list(range(len(cycle))))

    def test_calibration_scales_each_duration_by_a_rolling_median(self):
        nominal = run.NOMINAL_S
        # A disturbed sample (100x) next to an operation does not move its scale.
        m = run.Measurement(durations=[1.0, 2.0, 1.0],
                            calibrations=[nominal, 2 * nominal, 100 * nominal, 2 * nominal])
        self.assertAlmostEqual(m.timed_s, 4.0)
        self.assertAlmostEqual(m.cal_timed_s, 1.0 / 2 + 2.0 / 2 + 1.0 / 2)


class SpanArithmeticTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        spans = [
            span("harness.run_episode", 0, 100, -1),
            span("models.predict", 10, 40, 0),
            span("world.world_step", 15, 25, 1),
            span("mcts.run_search", 50, 70, 0),
        ]
        self.assertEqual(self_times(spans), [50, 20, 10, 20])
        self.assertEqual(tracer.nearest_ancestor(spans, 2, "models.predict"), 1)
        self.assertEqual(tracer.nearest_ancestor(spans, 3, "models.predict"), -1)

    def test_layer_metrics_from_synthetic_spans(self):
        class FakeTracer:
            step_keys = {(5, 0, False), (5, 1, False)}
            step_calls = 3
            spans = [
                span("harness.run_episode", 0, 100_000, -1, tag="oracle"),
                span("models.predict", 10_000, 40_000, 0, tag="oracle"),
                span("world.clone_state", 10_000, 12_000, 1),
                span("world.world_step", 15_000, 25_000, 1),
                span("world.world_step", 25_000, 30_000, 1),
                span("mcts.run_search", 50_000, 70_000, 0, tag="k3", extra=41),
                span("world.world_step", 75_000, 80_000, 0),
            ]

        values, _ = metrics.per_layer_metrics(FakeTracer, 0.0, 0.0)
        self.assertEqual(values["models.predict.calls.oracle"], 1)
        self.assertAlmostEqual(values["models.predict.self_s.oracle"], 13e-6)
        self.assertAlmostEqual(values["models.predict.total_s"], 30e-6)
        self.assertEqual(values["models.predict.world_steps_per_call.oracle"], 2)
        self.assertAlmostEqual(values["world.world_step.self_s"], 20e-6)
        self.assertAlmostEqual(values["layer.world.self_s"], 22e-6)
        self.assertAlmostEqual(values["layer.mcts.self_s"], 20e-6)
        self.assertAlmostEqual(values["layer.harness.self_s"], 45e-6)
        self.assertEqual(values["mcts.nodes_per_search.k3"], 41)
        self.assertEqual(values["world.world_step.calls"], 3)
        self.assertAlmostEqual(values["world.world_step.useful_frac"], 2 / 3)

    def test_decisions_are_agent_step_to_agent_step_per_episode(self):
        spans = [
            span("harness.run_episode", 0, 10_000, -1, tag="oracle"),
            span("world.agent_step", 1000, 2000, 0),
            span("world.agent_step", 4000, 5000, 0),
            span("world.agent_step", 8000, 9000, 0),
            span("harness.verify_replay", 10_000, 20_000, -1),
            span("world.agent_step", 11_000, 12_000, 4),
            span("harness.run_episode", 20_000, 30_000, -1, tag="random"),
            span("world.agent_step", 21_000, 22_000, 6),
            span("world.agent_step", 22_000, 23_500, 6),
        ]
        self.assertEqual(decision_samples(spans), {"oracle": [3.0, 4.0], "random": [1.5]})


class TracerTest(unittest.TestCase):
    def test_world_step_keys_split_warmup_and_share_clones(self):
        from lanenav import WorldConfig
        import lanenav.world as world

        cfg = WorldConfig(warmup_steps=5)
        tr = Tracer()
        tr.install()
        try:
            world.new_episode(cfg, 11)
            state = world.new_episode(cfg, 11)
            clone = world.clone_state(state)
            world.world_step(state)
            world.world_step(clone)
        finally:
            tr.uninstall()
        # Two warm-ups of t=0..4 (keyed apart from the episode's t=0), then
        # the state and its clone both step the world state (11, 0).
        self.assertEqual(tr.step_calls, 12)
        self.assertEqual(tr.step_keys, {(11, t, True) for t in range(5)} | {(11, 0, False)})
        self.assertEqual(tracer.useful_frac(tr.step_keys, tr.step_calls), 6 / 12)
        self.assertEqual(tracer.useful_frac(set(), 0), 0.0)

    def test_patches_every_binding_and_restores_them(self):
        import lanenav.models as models
        import lanenav.world as world

        original = world.world_step
        self.assertIs(models.world_step, original)
        tr = Tracer()
        tr.install()
        try:
            self.assertIsNot(world.world_step, original)
            self.assertIs(models.world_step, world.world_step)
        finally:
            tr.uninstall()
        self.assertIs(world.world_step, original)
        self.assertIs(models.world_step, original)

    def test_missing_target_reports_zero_calls(self):
        saved = tracer.FUNCTION_TARGETS
        tracer.FUNCTION_TARGETS = saved + (("lanenav.world", "no_such_function"),
                                           ("lanenav.no_such_module", "run_search"))
        tr = Tracer()
        try:
            tr.install()
            tr.uninstall()
        finally:
            tracer.FUNCTION_TARGETS = saved
        values, _ = metrics.per_layer_metrics(tr, 0.0, 0.0)
        self.assertEqual(values["mcts.run_search.calls.k3"], 0)
        self.assertEqual(values["world.world_step.useful_frac"], 0.0)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_what_the_runner_emits(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOAD_NAMES))
        self.assertEqual([(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]],
                         [tuple(m) for m in metrics.END_TO_END])
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         metrics.per_layer_spec())

    def test_smoke_run_of_each_workload_emits_every_metric(self):
        end_to_end = [m[0] for m in metrics.END_TO_END]
        per_layer = [m[0] for m in metrics.per_layer_spec()]
        for name in run.WORKLOAD_NAMES:
            for trace, names in ((False, end_to_end), (True, per_layer)):
                with self.subTest(workload=name, trace=trace):
                    result = run.run_workload(name, seed=3, seconds=0.01, trace=trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(list(result["metrics"]), names)
                    for metric in result["metrics"].values():
                        self.assertTrue(math.isfinite(metric["value"]))
                    if not trace:
                        self.assertGreater(result["metrics"]["decisions_per_s"]["value"], 0)


if __name__ == "__main__":
    sys.exit(unittest.main(verbosity=2))
