"""Tests of the benchmark itself: its checks reject wrong answers, its node
counts repeat, and it runs from a bare source tree.

    python3 -m unittest discover -s bench -p 'test_*.py'

Runs in about a minute; it needs only the standard library.
"""
from __future__ import annotations

import dataclasses
import importlib
import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import cases  # noqa: E402
import run  # noqa: E402


def reduce_records(case: cases.Case) -> list[dict]:
    pkg = run.import_package()
    report = pkg.reduce(pkg.Distribution.from_components(case.x1, case.x2), case.points)
    return cases.report_records(report)


def shifted(expected, **changes):
    return [dataclasses.replace(e, **{k: f(e) for k, f in changes.items()}) for e in expected]


class RecordChecks(unittest.TestCase):
    """Each record check passes on the program's answer and fails on a wrong one."""

    def assert_catches(self, records, expected, wrong_expected):
        self.assertEqual(cases.check_records(records, expected, "case"), [])
        self.assertNotEqual(cases.check_records(records, wrong_expected, "case"), [])

    def test_closed_forms(self):
        for case in cases.sweep_cases():
            with self.subTest(case=case.name):
                case = dataclasses.replace(case, expected=case.expected[:2])
                records = reduce_records(case)
                self.assert_catches(records, case.expected,
                                    shifted(case.expected, m=lambda e: e.m * (1 + 1e-5) + 1e-8))
                self.assert_catches(records, case.expected,
                                    shifted(case.expected, det3=lambda e: -e.det3))

    def test_point_dependent_respan(self):
        case = cases.draw_respan(random.Random(3), cases.CARTAN, 1, "respan")
        records = reduce_records(case)
        base_det3 = [cases.Expected(e.point, e.m, cases.CARTAN.det3) for e in case.expected]
        self.assert_catches(records, case.expected, base_det3)
        self.assert_catches(records, case.expected,
                            shifted(case.expected, m=lambda e: e.m + 1e-5))

    def test_rigid_motion(self):
        case = cases.draw_motion(random.Random(4), cases.CARTAN, 1, "motion")
        records = reduce_records(case)
        # M read at the moved point instead of at its preimage
        at_image = [cases.Expected(e.point, cases.CARTAN.m(*e.point), e.det3)
                    for e in case.expected]
        self.assert_catches(records, case.expected, at_image)
        self.assert_catches(records, case.expected,
                            shifted(case.expected, det3=lambda e: -e.det3))

    def test_identity_residuals_and_status(self):
        case = dataclasses.replace(cases.sweep_cases()[1], expected=cases.sweep_cases()[1].expected[:1])
        records = reduce_records(case)
        self.assertEqual(cases.check_records(records, case.expected, "c"), [])
        for key, value in (("dd_eta3", 2e-8), ("q1_minus_p2", -2e-8), ("status", "singular"),
                           ("M", None)):
            bad = [dict(records[0], **{key: value})]
            self.assertNotEqual(cases.check_records(bad, case.expected, "c"), [], key)
        self.assertNotEqual(cases.check_records([], case.expected, "c"), [])


class CliSessionChecks(unittest.TestCase):
    """The cli-session script passes in-process and each check rejects a wrong output."""

    @classmethod
    def setUpClass(cls):
        run.OUT.mkdir(exist_ok=True)
        run.import_package()
        cls.cli = importlib.import_module(f"{run.PACKAGE}.cli")
        cls.ops = {op.label: op for op in run.cli_session_round(random.Random(9))}
        run._write_specs(cls.ops.values())
        cls.outputs = {label: run.run_inprocess(cls.cli, op.argv)
                       for label, op in cls.ops.items()}

    def test_script_passes(self):
        for label, op in self.ops.items():
            with self.subTest(op=label):
                self.assertEqual(run.outcome_problems(op, *self.outputs[label]), [])

    def mutated(self, label, mutate, code=None):
        op = self.ops[label]
        got_code, out, err = self.outputs[label]
        if label == "analyze-spec":
            out = mutate(out)
        else:
            doc = json.loads(out)
            mutate(doc)
            out = json.dumps(doc)
        return run.outcome_problems(op, got_code if code is None else code, out, err)

    def test_wrong_outputs_are_caught(self):
        def set_path(path, value):
            def mutate(doc):
                target = doc
                for key in path[:-1]:
                    target = target[key]
                target[path[-1]] = value(target[path[-1]]) if callable(value) else value
            return mutate

        def bump_table_m(text):
            lines = text.splitlines()
            i = next(i for i, line in enumerate(lines) if line.startswith("record"))
            cells = lines[i].split("\t")
            cells[9] = repr(float(cells[9]) * 1.001 + 1e-6)
            lines[i] = "\t".join(cells)
            return "\n".join(lines) + "\n"

        wrong = [
            ("analyze-builtin", set_path(["records", 0, "M"], lambda m: m * 1.001 + 1e-6)),
            ("analyze-builtin", set_path(["records", 0, "det3"], lambda d: -d)),
            ("analyze-spec", bump_table_m),
            ("analyze-holonomic", set_path(["summary", "classification"], "mixed")),
            ("analyze-mixed", set_path(["summary", "classification"], "holonomic")),
            ("analyze-mixed", set_path(["records", 0, "status"], "holonomic-at-point")),
            ("compare-builtins", set_path(["verdict"], "not distinguished by this test")),
            ("compare-respan", set_path(["b", "summary", "M_max"], lambda m: m * 1.001 + 1e-6)),
            ("corpus", set_path(["result"], "fail")),
            ("corpus", set_path(["rows", 2, "classification"], "contact")),
        ]
        for label, mutate in wrong:
            with self.subTest(op=label):
                self.assertNotEqual(self.mutated(label, mutate), [])
        for label, code in (("analyze-holonomic", 0), ("analyze-mixed", 1), ("corpus", 1)):
            with self.subTest(op=label, code=code):
                self.assertNotEqual(self.mutated(label, lambda doc: None, code=code), [])


def bench_command(root: Path, *args: str):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=600)


class WholeRuns(unittest.TestCase):
    def test_node_counts_repeat_between_runs(self):
        counts = []
        for _ in range(2):
            proc = bench_command(HERE.parent, "--workload", "grid-sweep", "--seed", "5",
                                 "--seconds", "0", "--trace", "1")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            doc = json.loads(proc.stdout.splitlines()[-1])
            self.assertTrue(doc["correct"])
            counts.append({k: v["value"] for k, v in doc["metrics"].items()
                           if "nodes" in k or k.startswith("reduction.points")})
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["scalarfield.nodes.M"], 0)

    def test_runs_from_bare_tree_and_fails_without_source(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            shutil.copytree(HERE, root / "bench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = bench_command(root, "--workload", "cli-session", "--seed", "1",
                                 "--seconds", "0")
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
            shutil.copytree(HERE.parent / "src", root / "src",
                            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            proc = bench_command(root, "--workload", "cli-session", "--seed", "1",
                                 "--seconds", "0")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            doc = json.loads(proc.stdout.splitlines()[-1])
            self.assertEqual((doc["correct"], doc["failed"]), (True, 0))
            self.assertEqual(set(doc["metrics"]),
                             {"setup_s", "op_median_s", "points_per_s", "peak_rss_mb"})


if __name__ == "__main__":
    unittest.main()
