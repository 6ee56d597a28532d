#!/usr/bin/env python3
"""Self-tests of the benchmark harness, on the quick scale.

    python3 perfbench/test_perfbench.py

Runs every workload at --scale quick (tiny problems, 8 nodes, 10 check
seeds) in both modes and checks the output format against BENCHMARK.json,
the correctness gate, the gprof split parser, the fingerprint refusal of
compare.py, and that the benchmark fails cleanly outside a full checkout.
The first run builds perfbench_driver (about a minute).
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import gprof_split  # noqa: E402
import run  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class OutputFormat(unittest.TestCase):
    def check(self, workload, trace):
        proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace",
                     str(trace), "--scale", "quick")
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        listed = spec()["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in listed})
        for m in listed:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(result["metrics"][m["name"]]["value"], (int, float))
        if not trace:
            for m in listed:
                self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])
        self.assertIn("fingerprint: ", proc.stdout)
        return result

    def test_every_workload_both_modes(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 0)
                self.check(workload, 1)

    def test_workloads_match_benchmark_json(self):
        self.assertEqual({w["name"] for w in spec()["workloads"]}, set(run.WORKLOADS))


class Gate(unittest.TestCase):
    def test_digest_mismatch_is_a_failure(self):
        with tempfile.TemporaryDirectory() as tmp:
            store = os.path.join(tmp, "digests.json")
            with open(store, "w") as f:
                json.dump({"sor/lrc": {"digest": "vt=1 msgs= proto="}}, f)
            gate = run.Gate(store)
            rec = {"ok": True, "why": "", "digest": "vt=2 msgs= proto=", "events": 5}
            self.assertFalse(gate.record("sor/lrc", 1, rec, None))
            self.assertEqual((gate.attempted, gate.failed), (1, 1))
            # Events compare only within one instrumentation setting.
            gate2 = run.Gate(os.path.join(tmp, "none.json"))
            self.assertTrue(gate2.record("x", 1, dict(rec, events=5), None))
            self.assertTrue(gate2.record("x", 1, dict(rec, events=9), None,
                                         compare_events=False))
            self.assertFalse(gate2.record("x", 1, dict(rec, events=9), None))

    def test_failed_check_seeds_count_individually(self):
        with tempfile.TemporaryDirectory() as tmp:
            gate = run.Gate(os.path.join(tmp, "d.json"))
            rec = {"ok": False, "why": "seed 4: stale read", "digest": "d", "events": 1,
                   "failures": 3}
            gate.record("mp/hlrc", 10, rec, None)
            self.assertEqual((gate.attempted, gate.failed), (10, 3))

    def test_child_abort_is_a_failure(self):
        binary = run.ensure_built("release")
        rec, _, _, err = run.run_child([binary, "app", "--app=nope"])
        self.assertIsNone(rec)
        self.assertIn("exit 2", err)


class GprofParser(unittest.TestCase):
    SAMPLE = """Flat profile:

Each sample counts as 0.01 seconds.
  %   cumulative   self              self     total
 time   seconds   seconds    calls  ms/call  ms/call  name
 60.00      0.06     0.06      10     6.00     6.00  _ZN4hlrc1AEv
 40.00      0.10     0.04                             _ZNSt6vectorIiE9push_backEv

\t\t     Call graph

index % time    self  children    called     name
                                                 <spontaneous>
[1]    100.0    0.00    0.10                 main [1]
                0.06    0.00      10/10          _ZN4hlrc1AEv [2]
-----------------------------------------------
                0.06    0.00      10/10          main [1]
[2]     60.0    0.06    0.00      10         _ZN4hlrc1AEv [2]
                0.04    0.00       3/4           _ZNSt6vectorIiE9push_backEv [3]
-----------------------------------------------
                0.04    0.00       3/4           _ZN4hlrc1AEv [2]
                0.00    0.00       1/4           _ZN4hlrc1BEv [4]
[3]     40.0    0.04    0.00       4         _ZNSt6vectorIiE9push_backEv [3]
-----------------------------------------------
"""

    def test_parse_flat_and_callers(self):
        flat, parents = gprof_split._parse(self.SAMPLE)
        self.assertEqual(flat, {"_ZN4hlrc1AEv": 0.06, "_ZNSt6vectorIiE9push_backEv": 0.04})
        self.assertEqual(parents["_ZNSt6vectorIiE9push_backEv"],
                         {"_ZN4hlrc1AEv": 3, "_ZN4hlrc1BEv": 1})
        self.assertEqual(parents["main"], {"<spontaneous>": 1})

    def test_module_of(self):
        src = os.path.join(ROOT, "src")
        self.assertEqual(gprof_split._module_of(os.path.join(src, "proto", "lrc.cc"), src),
                         "proto")
        self.assertEqual(gprof_split._module_of(os.path.join(src, "common", "log.cc"), src),
                         "other")
        self.assertIsNone(gprof_split._module_of("/usr/include/c++/12/bits/vector.tcc", src))


class Compare(unittest.TestCase):
    def result(self, tmp, name, **fp):
        base = {"cpu": "X", "nproc": 4, "compiler": "g++ 12", "build_type": "Release",
                "commit": "a", "source_digest": "b"}
        base.update(fp)
        path = os.path.join(tmp, name)
        with open(path, "w") as f:
            json.dump({"correct": True, "attempted": 1, "failed": 0, "workload": "paper-lrc",
                       "scale": "bench", "trace": 0, "seed": 1, "fingerprint": base,
                       "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}, f)
        return path

    def compare(self, a, b):
        return subprocess.run([sys.executable, os.path.join(HERE, "compare.py"), "--base", a,
                               "--change", b], capture_output=True, text=True)

    def test_refuses_different_hosts(self):
        with tempfile.TemporaryDirectory() as tmp:
            a = self.result(tmp, "a.json")
            self.assertEqual(self.compare(a, self.result(tmp, "b.json", commit="c")).returncode, 0)
            for key, val in (("cpu", "Y"), ("nproc", 8), ("compiler", "clang"),
                             ("build_type", "RelWithDebInfo")):
                proc = self.compare(a, self.result(tmp, "c.json", **{key: val}))
                self.assertEqual(proc.returncode, 3, key)
                self.assertIn("refusing", proc.stderr)


class StrippedCheckout(unittest.TestCase):
    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper-lrc",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp,
                                  capture_output=True, text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
