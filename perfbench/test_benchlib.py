"""Tests of the benchmark's own helpers:
    python3 -m unittest discover -s perfbench
"""

import json
import os
import statistics
import tempfile
import unittest

import benchlib as bl
import run

OBS = json.dumps({
    "counters": {"sim.executed": 30, "sim.requests": 90,
                 "train.epochs": 18960},
    "gauges": {"pool.threads": 4},
    "histograms": {
        "sim.wall_ns": {"count": 3, "sum": 3_000_000_000, "min": 1,
                        "max": 2, "buckets": [{"le": 3, "count": 3}]},
        "serve.batch_points": {"count": 4, "sum": 6, "min": 1, "max": 2,
                               "buckets": []},
    },
})

LOADGEN = json.dumps({
    "context": {"executable": "dse_loadgen", "connections": 2,
                "points_per_request": 1},
    "benchmarks": [{
        "name": "serve/predict_points/1", "run_type": "iteration",
        "iterations": 1000, "real_time": 60000.0, "cpu_time": 60000.0,
        "time_unit": "ns", "requests_per_second": 33000.5,
        "predictions_per_second": 33000.5, "latency_p50_ns": 58000.0,
        "latency_p95_ns": 90000.0, "latency_p99_ns": 150000.0,
        "overloaded": 0, "timeouts": 1, "disconnects": 0,
        "connect_failures": 0, "errors": 2,
    }],
})

STUDY = [
    b"memory-system study, mcf: 23040 design points, "
    b"131072-instruction trace\n",
    b"remote: 1 simulation worker(s); failures fall back to local "
    b"simulation\n",
    b"    10 sims: estimated error 60.38% +- 46.67%\n",
    b"    20 sims: estimated error 43.87% +- 60.92%\n",
    b"    30 sims: estimated error 19.29% +- 27.58%\n",
    b"done: 30 simulations\n",
    b"remote: 3 dispatched, 3 completed, 0 retries, 0 hedges, "
    b"0 redispatches, 0 local fallbacks\n",
]


class StatsTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(bl.median([3, 1, 2]), 2)
        self.assertEqual(bl.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            bl.median([])

    def test_quartiles_match_the_acceptance_rule(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        q1, q2, q3 = bl.quartiles(values)
        self.assertEqual((q1, q2, q3),
                         tuple(statistics.quantiles(values, n=4)))
        self.assertEqual((q1, q2, q3), (2.75, 5.5, 8.25))
        self.assertAlmostEqual(bl.spread(values), (8.25 - 2.75) / 5.5)

    def test_spread_of_constant_values_is_zero(self):
        self.assertEqual(bl.spread([2.0] * 10), 0.0)
        self.assertEqual(bl.spread([7.0]), 0.0)
        self.assertEqual(bl.spread([0.0] * 4), 0.0)


class ParserTest(unittest.TestCase):
    def test_obs_report(self):
        r = bl.parse_obs_json(OBS)
        self.assertEqual(r.counter("sim.executed"), 30)
        self.assertEqual(r.counter("remote.dispatched"), 0)
        self.assertEqual(r.gauge("pool.threads"), 4)
        self.assertEqual(r.hist_sum_s("sim.wall_ns"), 3.0)
        self.assertEqual(r.hist_sum_s("train.fold_wall_ns"), 0.0)
        self.assertEqual(r.hist_mean("serve.batch_points"), 1.5)
        self.assertEqual(r.hist_mean("sim.simpoint_wall_ns"), 0.0)

    def test_obs_report_rejects_malformed(self):
        with self.assertRaises(ValueError):
            bl.parse_obs_json('{"counters": {}}')
        with self.assertRaises(ValueError):
            bl.parse_obs_json('{"counters": {"a": 1.5}, "gauges": {},'
                              ' "histograms": {}}')
        with self.assertRaises(ValueError):
            bl.parse_obs_json('{"counters": {}, "gauges": {},'
                              ' "histograms": {"h": {"count": 1}}}')
        with self.assertRaises(ValueError):
            bl.parse_obs_json("not json")

    def test_loadgen_report(self):
        lg = bl.parse_loadgen_json(LOADGEN)
        self.assertEqual(lg["iterations"], 1000)
        self.assertEqual(lg["requests_per_second"], 33000.5)
        self.assertEqual(lg["latency_p99_ns"], 150000.0)
        self.assertEqual((lg["timeouts"], lg["errors"]), (1, 2))

    def test_loadgen_report_rejects_missing_fields(self):
        doc = json.loads(LOADGEN)
        del doc["benchmarks"][0]["disconnects"]
        with self.assertRaises(ValueError):
            bl.parse_loadgen_json(json.dumps(doc))
        doc["benchmarks"] = []
        with self.assertRaises(ValueError):
            bl.parse_loadgen_json(json.dumps(doc))


class CheckTest(unittest.TestCase):
    def test_complete_study_passes(self):
        estimate, problem = bl.check_study_stdout(STUDY, 10, 30)
        self.assertIsNone(problem)
        self.assertEqual(estimate, 19.29)

    def test_missing_round_fails(self):
        lines = STUDY[:3] + STUDY[4:]
        estimate, problem = bl.check_study_stdout(lines, 10, 30)
        self.assertIsNone(estimate)
        self.assertIn("rounds", problem)

    def test_missing_done_line_fails(self):
        _, problem = bl.check_study_stdout(STUDY[:5], 10, 30)
        self.assertIn("done", problem)

    def test_non_finite_estimate_fails(self):
        lines = list(STUDY)
        lines[4] = b"    30 sims: estimated error nan% +- nan%\n"
        _, problem = bl.check_study_stdout(lines, 10, 30)
        self.assertIn("finite", problem)

    def test_missing_header_fails(self):
        _, problem = bl.check_study_stdout(STUDY[2:], 10, 30)
        self.assertIn("header", problem)

    def test_identity_checker_rejects_one_byte(self):
        local = b"".join(bl.strip_remote_lines(STUDY))
        self.assertNotIn(b"remote:", local)
        self.assertIsNone(bl.identity_diff(local, local))
        for at in (0, len(local) // 2, len(local) - 1):
            changed = bytearray(local)
            changed[at] ^= 1
            diff = bl.identity_diff(local, bytes(changed))
            self.assertIsNotNone(diff)
            self.assertIn(f"byte {at}", diff)
        self.assertIsNotNone(bl.identity_diff(local, local + b"\n"))
        self.assertIsNotNone(bl.identity_diff(local, local[:-1]))

    def test_counter_drift(self):
        ref = {n: 7 for n in bl.DETERMINISTIC_COUNTERS}
        self.assertEqual(bl.counter_drift(ref, dict(ref)), [])
        moved = dict(ref, **{"train.epochs": 8})
        self.assertEqual(bl.counter_drift(ref, moved),
                         [("train.epochs", 7, 8)])
        missing = dict(ref)
        del missing["sim.requests"]
        self.assertEqual(bl.counter_drift(ref, missing),
                         [("sim.requests", 7, 0)])
        self.assertEqual(bl.counter_drift(ref, dict(ref, other=1)), [])


class FingerprintTest(unittest.TestCase):
    def test_source_digest_tracks_every_source_byte(self):
        here = os.path.dirname(os.path.abspath(__file__))
        with tempfile.TemporaryDirectory(dir=here) as root:
            for rel in ("CMakeLists.txt", "src/a.cc", "tools/b.cc"):
                os.makedirs(os.path.dirname(os.path.join(root, rel)),
                            exist_ok=True)
                with open(os.path.join(root, rel), "w") as f:
                    f.write("x")
            first = bl.source_digest(root)
            self.assertEqual(first, bl.source_digest(root))
            with open(os.path.join(root, "src/a.cc"), "w") as f:
                f.write("y")
            self.assertNotEqual(first, bl.source_digest(root))


class BenchmarkFileTest(unittest.TestCase):
    """BENCHMARK.json and the runner must name the same workloads and
    metrics, with the same units."""

    def setUp(self):
        here = os.path.dirname(os.path.abspath(__file__))
        path = os.path.join(here, os.pardir, "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json beside perfbench/")
        with open(path) as f:
            self.doc = json.load(f)

    def test_workloads(self):
        self.assertEqual(sorted(w["name"] for w in self.doc["workloads"]),
                         sorted(run.WORKLOADS))

    def test_metrics(self):
        for key, table in (("end_to_end", run.END_TO_END),
                           ("per_layer", run.PER_LAYER)):
            self.assertEqual([(m["name"], m["unit"]) for m in self.doc[key]],
                             list(table))

    def test_setup_bound_is_the_largest(self):
        bounds = {m["name"]: m["bound"] for m in self.doc["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


if __name__ == "__main__":
    unittest.main()
