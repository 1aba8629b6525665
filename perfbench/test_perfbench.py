#!/usr/bin/env python3
"""Tests of the repo benchmark itself.

    python3 perfbench/test_perfbench.py      (from the repo root)

Tiny-size smoke runs of every workload in both modes, checks that a
deliberately corrupted answer is counted as failed and fails the run, that
every printed metric is legal and declared in BENCHMARK.json, and that the
command refuses to run without the program's sources.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

ROOT = os.getcwd()
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
LAYERS = json.load(open(os.path.join(ROOT, "perfbench", "layers.json")))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace, *extra, cwd=ROOT):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1",
                              "--trace", str(trace), "--tiny", *extra]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return p, result


class BenchmarkJson(unittest.TestCase):
    def test_keys_and_limits(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds", "workloads",
                                      "end_to_end", "per_layer"})
        self.assertTrue(1 <= len(BENCH["paths"]) <= 16)
        self.assertTrue(2 <= len(WORKLOADS) <= 8)
        self.assertTrue(1 <= BENCH["run_seconds"] <= 60)
        names = WORKLOADS + [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for w in BENCH["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in BENCH["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in BENCH["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], UNIT)
        setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in BENCH["end_to_end"]))

    def test_layer_map_matches(self):
        e2e = {m["name"] for m in BENCH["end_to_end"]}
        per_layer = {m["name"] for m in BENCH["per_layer"]}
        self.assertEqual(per_layer, set(LAYERS["per_layer"]))
        self.assertEqual(e2e, set(LAYERS["end_to_end"]))
        for name, entry in LAYERS["per_layer"].items():
            for w in entry["workloads"]:
                self.assertIn(w, WORKLOADS, name)
            for target in entry["moves"]:
                metric, _, workload = target.partition("@")
                self.assertIn(metric, e2e, name)
                if workload:
                    self.assertIn(workload, WORKLOADS, name)
        for metric, per_workload in LAYERS["end_to_end"].items():
            self.assertEqual(set(per_workload), set(WORKLOADS), metric)


class Smoke(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        units = {m["name"]: m["unit"] for m in declared}
        for name, m in result["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"})
            self.assertEqual(m["unit"], units[name], name)
            self.assertIsInstance(m["value"], (int, float))

    def test_every_workload_both_modes(self):
        for w in WORKLOADS:
            for trace, declared in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
                with self.subTest(workload=w, trace=trace):
                    p, r = run(w, trace)
                    self.assertEqual(p.returncode, 0, p.stderr[-2000:])
                    self.assertIsNotNone(r, p.stdout[-2000:])
                    self.assertTrue(r["correct"])
                    self.assertGreaterEqual(r["attempted"], 1)
                    self.assertEqual(r["failed"], 0)
                    self.check_metrics(r, declared)
                    if trace == 0:
                        for name, m in r["metrics"].items():
                            self.assertGreater(m["value"], 0, name)


class CorruptedAnswers(unittest.TestCase):
    def test_corruption_is_counted_as_failed(self):
        cases = [("graph-solve", "mst"), ("graph-solve", "pta"), ("graph-solve", "sp"),
                 ("serve-mix", "serve"), ("serve-mix", "serve-digest")]
        for workload, what in cases:
            with self.subTest(workload=workload, corrupt=what):
                p, r = run(workload, 0, "--corrupt", what)
                self.assertEqual(p.returncode, 1, p.stderr[-2000:])
                self.assertIsNotNone(r)
                self.assertFalse(r["correct"])
                self.assertGreaterEqual(r["failed"], 1)
                self.assertIn("WRONG ANSWER", p.stderr)


class WithoutSources(unittest.TestCase):
    def test_refuses_without_the_program(self):
        build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        lone = os.path.join(ROOT, build, "lone-checkout")
        shutil.rmtree(lone, ignore_errors=True)
        os.makedirs(lone)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
            for d in BENCH["paths"]:
                shutil.copytree(os.path.join(ROOT, d), os.path.join(lone, d))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            p = subprocess.run(BENCH["command"] + ["--workload", WORKLOADS[0], "--seed", "1",
                                                   "--seconds", "1", "--trace", "0"],
                               cwd=lone, capture_output=True, text=True, timeout=180, env=env)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"metrics"', p.stdout)
        finally:
            shutil.rmtree(lone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
