#!/usr/bin/env python3
"""Tests of the benchmark itself: seeded inputs, exact counts, result shape.

    python3 tdwpbench/test_tdwpbench.py

Every test drives tdwpbench/run.py with short runs (--seconds 1); the first
one builds the benchmark.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_PY = os.path.join(HERE, "run.py")
WORKLOADS = ["point_lookup", "adhoc_shapes", "bulk_extract", "tpch_report"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# Per-layer metrics that are counts of work, not times: for one seed they
# must repeat exactly.
EXACT = [
    "protocol.response_bytes",
    "serializer.sqlb_bytes",
    "service.cache_hit_ratio",
    "service.cache_hits",
    "service.cache_misses",
    "service.cache_inserts",
    "service.cache_bytes",
    "backend.tdf_bytes",
    "backend.attempts_per_request",
    "convert.wire_bytes",
    "vdb.rows_out",
    "observability.spans_per_request",
]

_memo = {}


def run(*args, cwd=ROOT, script=RUN_PY):
    key = (cwd, script) + args
    if key not in _memo:
        _memo[key] = subprocess.run([sys.executable, script] + list(args),
                                    cwd=cwd, capture_output=True, text=True,
                                    timeout=900)
    return _memo[key]


def dump(workload, seed):
    out = run("--workload", workload, "--seed", str(seed), "--seconds", "1",
              "--dump")
    assert out.returncode == 0, out.stderr[-2000:]
    return out.stdout


def result(workload, seed, trace):
    out = run("--workload", workload, "--seed", str(seed), "--seconds", "1",
              "--trace", str(trace))
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_list_and_references(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                first = dump(w, 7)
                _memo.clear()  # force a second, independent process
                self.assertEqual(first, dump(w, 7))
                self.assertIn("plan_digest", first)

    def test_different_seed_different_list(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                timed = lambda text: [l for l in text.splitlines()
                                      if l.startswith("timed ")]
                self.assertNotEqual(timed(dump(w, 7)), timed(dump(w, 8)))


class Results(unittest.TestCase):
    def test_plain_run_reports_every_end_to_end_metric(self):
        names = [m["name"] for m in SPEC["end_to_end"]]
        for w in WORKLOADS:
            with self.subTest(workload=w):
                res = result(w, 3, 0)
                self.assertEqual(sorted(res), ["attempted", "correct",
                                               "failed", "metrics"])
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreater(res["attempted"], 0)
                self.assertEqual(sorted(res["metrics"]), sorted(names))
                for m in SPEC["end_to_end"]:
                    got = res["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"])
                    self.assertGreater(got["value"], 0, m["name"])

    def test_traced_counts_repeat_exactly(self):
        names = [m["name"] for m in SPEC["per_layer"]]
        for w in WORKLOADS:
            with self.subTest(workload=w):
                first = result(w, 5, 1)
                _memo.clear()
                second = result(w, 5, 1)
                for res in (first, second):
                    self.assertTrue(res["correct"])
                    self.assertEqual(sorted(res["metrics"]), sorted(names))
                for name in EXACT:
                    self.assertEqual(first["metrics"][name],
                                     second["metrics"][name], name)
                self.assertEqual(
                    first["metrics"]["backend.attempts_per_request"]["value"],
                    1.0)

    def test_refuses_to_run_without_the_program_sources(self):
        # A directory holding only BENCHMARK.json and the benchmark's files.
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "tdwpbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            out = run("--workload", "point_lookup", "--seed", "1",
                      "--seconds", "1", "--trace", "0", cwd=bare,
                      script=os.path.join(bare, "tdwpbench", "run.py"))
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
