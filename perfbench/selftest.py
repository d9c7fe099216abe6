"""Self-test of the benchmark: tiny workloads, metric names, rejected outputs.

    python3 perfbench/selftest.py

Runs every workload at n=200 with tracing off and on, and checks that each
metric BENCHMARK.json names is emitted with its unit.  Then it hands the
correctness checks doctored outputs (a NaN cell, an unconverged solve, ...)
and requires each to be rejected, requires a layer without calls or a bypassed
solver wrapper to stop the benchmark, and requires a directory without the
program to fail.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

import regcoreset  # noqa: E402

TINY = 200


def _bench(*args: str, cwd: str = ROOT, script: str = os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


class TinyWorkloads(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            cls.spec = json.load(fh)

    def test_every_listed_workload_and_layer_metric_is_known(self):
        self.assertLessEqual({w["name"] for w in self.spec["workloads"]}, set(run.WORKLOADS))
        self.assertEqual({m["name"] for m in self.spec["per_layer"]}, set(layers.TARGETS))

    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in run.WORKLOADS:
            for trace, listed in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = _bench("--workload", workload, "--seed", "2", "--seconds", "0",
                                  "--trace", str(trace), "--n", str(TINY))
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    line = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(line["correct"], proc.stdout.splitlines()[-2])
                    self.assertGreaterEqual(line["attempted"], 1)
                    self.assertEqual(line["failed"], 0)
                    expected = {m["name"]: m["unit"] for m in self.spec[listed]}
                    self.assertEqual({k: v["unit"] for k, v in line["metrics"].items()}, expected)
                    for name, metric in line["metrics"].items():
                        self.assertTrue(math.isfinite(metric["value"]), name)
                    diag = json.loads(proc.stdout.splitlines()[-2])
                    self.assertEqual(set(diag["environment"]),
                                     {"commit", "source_sha256", "python", "numpy", "blas",
                                      "blas_threads", "nproc", "seed"})

    def test_a_directory_without_the_program_fails(self):
        bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = _bench("--workload", "l2-tables", "--seed", "1", "--seconds", "1",
                          "--trace", "0", cwd=bare,
                          script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare)


class ChecksRejectDoctoredOutputs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.rel_config = regcoreset.ExperimentConfig(
            n=TINY, d=30, lambda_grid=(0.5,), sample_sizes=(30, 50), trials_per_cell=3,
            schemes=("ridge_leverage", "uniform"), objective_family="modified_lasso",
            master_seed=2)
        cls.rel_text = regcoreset.emit_report(
            regcoreset.run_relative_error_experiment(cls.rel_config))
        cls.sp_config = regcoreset.ExperimentConfig(
            n=TINY, d=30, lambda_grid=(0.0, 1.0, 20.0), sample_sizes=(30,),
            schemes=("uniform",), master_seed=2)
        cls.sp_text = regcoreset.emit_report(regcoreset.run_sparsity_experiment(cls.sp_config))

    def _doctored(self, text, edit):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def test_genuine_reports_pass(self):
        self.assertEqual(checks.check_report("relative", self.rel_config, self.rel_text,
                                             regcoreset), [])
        self.assertEqual(checks.check_report("sparsity", self.sp_config, self.sp_text,
                                             regcoreset), [])

    def test_report_edits_are_rejected(self):
        edits = {
            "nan cell": lambda d: d["cells"][0].__setitem__(0, math.nan),
            "negative cell": lambda d: d["cells"][1].__setitem__(1, -0.5),
            "nan trial": lambda d: d["trials"][0][0].__setitem__(0, math.nan),
            "digest": lambda d: d.__setitem__("config_digest", "0" * 64),
            "missing row": lambda d: (d["rows"].pop(), d["cells"].pop(), d["trials"].pop()),
            "renamed column": lambda d: d["cols"].__setitem__(1, "leverage"),
        }
        for name, edit in edits.items():
            with self.subTest(edit=name):
                text = self._doctored(self.rel_text, edit)
                self.assertNotEqual(
                    checks.check_report("relative", self.rel_config, text, regcoreset), [])
        self.assertNotEqual(checks.check_report("relative", self.rel_config, "{", regcoreset), [])

    def test_sparsity_invariants_are_enforced(self):
        for name, edit in {
            "ridge not zero": lambda d: d["cells"][2].__setitem__(0, 1.0),
            "lasso decreasing": lambda d: d["cells"][0].__setitem__(2, 0.0),
        }.items():
            with self.subTest(edit=name):
                text = self._doctored(self.sp_text, edit)
                self.assertNotEqual(
                    checks.check_report("sparsity", self.sp_config, text, regcoreset), [])

    def _chain(self):
        solve = {"converged": True, "objective_value": 11.4, "solution": [0.0]}
        return {
            "gen-ng": {"code": 0, "doc": None},
            "coreset": {"code": 0, "doc": {}},
            "solve-instance": {"code": 0, "doc": dict(solve)},
            "solve-coreset": {"code": 0, "doc": dict(solve)},
            "verify": {"code": 0, "doc": {"passed": True, "max_relative_deviation": 0.03}},
        }

    def test_chain_outputs_are_checked(self):
        self.assertEqual(checks.check_chain(self._chain(), 11.5), [])
        doctored = []
        for step, key, value in (("solve-instance", "converged", False),
                                 ("solve-coreset", "converged", False),
                                 ("verify", "passed", False),
                                 ("solve-instance", "objective_value", math.nan)):
            chain = copy.deepcopy(self._chain())
            chain[step]["doc"][key] = value
            doctored.append((f"{step}.{key}", chain, 11.5))
        failing = self._chain()
        failing["coreset"]["code"] = 1
        doctored.append(("exit code", failing, 11.5))
        doctored.append(("coreset solution beats the optimum", self._chain(), 11.0))
        for name, chain, at_core in doctored:
            with self.subTest(case=name):
                self.assertNotEqual(checks.check_chain(chain, at_core), [])

    def test_a_layer_without_calls_stops_the_benchmark(self):
        with contextlib.redirect_stderr(io.StringIO()), self.assertRaises(SystemExit) as raised:
            layers.layer_metrics("rlad-sizes", [])
        self.assertEqual(raised.exception.code, 3)

    def test_a_bypassed_solver_wrapper_stops_the_benchmark(self):
        import workload
        from regcoreset import experiments, solvers

        def registry_solve(family, instance, lam, coreset=False):
            return getattr(solvers, f"solve_{family}")(instance, lam)  # not via experiments

        original, experiments._solve = experiments._solve, registry_solve
        try:
            with contextlib.redirect_stderr(io.StringIO()), \
                    self.assertRaises(SystemExit) as raised:
                workload.run_experiments("l2-tables", TINY, 2, False, "")
        finally:
            experiments._solve = original
        self.assertEqual(raised.exception.code, 3)


if __name__ == "__main__":
    unittest.main()
