"""Tests of the benchmark's output check and host-time aggregation.

Run from the repository root: `python3 perfbench/test_run.py`.
"""

import importlib.util
import json
import os
import unittest

_spec = importlib.util.spec_from_file_location(
    "perfbench_run", os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

DECLARED = {"wall_s": "s", "setup_s": "s", "paper_err_pp": "pp"}


def result(**metrics):
    return {
        "correct": True,
        "attempted": 88,
        "failed": 0,
        "metrics": {n: {"value": v, "unit": DECLARED.get(n, "s")} for n, v in metrics.items()},
    }


GOOD = result(wall_s=9.2, setup_s=0.0002, paper_err_pp=4.87)


class ValidateResultLine(unittest.TestCase):
    def test_well_formed_line_passes(self):
        self.assertEqual(run.validate_result_line(json.dumps(GOOD), DECLARED), [])

    def test_malformed_line_fails(self):
        line = json.dumps(GOOD)[:-7]
        problems = run.validate_result_line(line, DECLARED)
        self.assertEqual(len(problems), 1)
        self.assertIn("not a well-formed JSON object", problems[0])
        self.assertTrue(run.validate_result_line("wall_s 9.2 s", DECLARED))

    def test_missing_metric_fails(self):
        line = json.dumps(result(wall_s=9.2, paper_err_pp=4.87))
        self.assertEqual(run.validate_result_line(line, DECLARED), ["metric setup_s missing"])

    def test_metric_twice_fails(self):
        line = json.dumps(GOOD)[:-2] + ', "wall_s": {"value": 1.0, "unit": "s"}}}'
        problems = run.validate_result_line(line, DECLARED)
        self.assertTrue(any("more than once" in p for p in problems), problems)

    def test_wrong_unit_undeclared_and_non_finite_fail(self):
        bad = result(wall_s=float("nan"), setup_s=0.1, paper_err_pp=4.87, extra=1.0)
        bad["metrics"]["setup_s"]["unit"] = "ms"
        problems = run.validate_result_line(json.dumps(bad), DECLARED)
        self.assertIn("metric extra not declared", problems)
        self.assertIn("metric setup_s has unit 'ms', declared 's'", problems)
        self.assertTrue(any(p.startswith("metric wall_s has no finite value") for p in problems))

    def test_result_keys_and_counts_checked(self):
        bad = dict(GOOD, attempted=0, extra=True)
        del bad["correct"]
        problems = run.validate_result_line(json.dumps(bad), DECLARED)
        self.assertEqual(len(problems), 3, problems)

    def test_benchmark_json_declares_every_mode(self):
        self.assertIn("setup_s", run.declared_metrics(False))
        self.assertIn("trace.coverage", run.declared_metrics(True))


class BestWall(unittest.TestCase):
    def test_best_wall_takes_each_point_fastest(self):
        def rep(wall, point_s):
            return {"metrics": {"wall_s": {"value": wall, "unit": "s"}}, "point_s": point_s}
        # Remainders 0.5 and 0.25; point fastest 1.0 and 2.0.
        reps = [rep(4.5, [1.0, 3.0]), rep(5.25, [3.0, 2.0])]
        self.assertEqual(run.best_wall(reps), 3.25)
        # Without per-point times (or with mismatched ones), the fastest wall.
        self.assertEqual(run.best_wall([rep(4.5, []), rep(4.0, [])]), 4.0)
        self.assertEqual(run.best_wall([rep(4.5, [1.0]), rep(4.0, [])]), 4.0)


if __name__ == "__main__":
    unittest.main()
