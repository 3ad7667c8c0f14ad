#!/usr/bin/env python3
"""Benchmark of cartan-contact: three workloads, checked outputs, one JSON line.

    python3 bench/run.py --workload field-batch --seed 1 --seconds 50 --trace 0

BENCHMARK.json lists field-batch and cli-session; grid-sweep runs by hand
(bench/README.md says why).

Run from the root of a source checkout; the package is imported from
``src/`` without installing it.  With ``--trace 0`` the run measures the
end-to-end metrics untraced; with ``--trace 1`` it runs the same operations
in-process through ``cli.main``, once untraced and once with spans recorded
around the package's functions, and reports the per-layer metrics.  The last
line of standard output is the result object; problems go to standard error.
Spans of a traced run are written to ``bench/out/``.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import cases
import spans as spanlib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PACKAGE = "cartan_contact"
SETUPS_PER_ROUND = 3
IMPORT_PROBES = 5
CHILD_TIMEOUT_S = 150
OUTPUTS = ("t12", "a1", "a2", "M", "dd_eta3", "q1_minus_p2")


@dataclass
class Op:
    """One operation: a ``cartan-contact`` invocation and its expected outcome.

    ``case`` is set for workloads whose operation is an in-process ``reduce``
    call; ``points`` is how many sample points get a record when it succeeds.
    """

    label: str
    argv: list[str]
    exit_code: int
    check: Callable[[str], list[str]]   # stdout -> problems
    points: int
    case: cases.Case | None = None
    files: dict = field(default_factory=dict)   # spec path -> document


def _json_check(check):
    def run(text):
        doc, problems = cases.load_json(text, "stdout")
        return problems or check(doc)
    return run


def _write_specs(ops) -> None:
    for op in ops:
        for path, doc in op.files.items():
            path.write_text(json.dumps(doc, indent=1))


def _analyze_op(workload: str, case: cases.Case, sampling_flag: list[str]) -> Op:
    path = OUT / f"{workload}-{case.name}.json"
    return Op(case.name, ["analyze", str(path), *sampling_flag, "--format", "json"], 0,
              _json_check(lambda doc: cases.check_records(cases.json_records(doc),
                                                          case.expected, case.name)),
              len(case.expected), case, {path: case.spec()})


def grid_sweep_round(rng: random.Random) -> list[Op]:
    ops = [_analyze_op("grid-sweep", c, ["--grid", json.dumps(cases.SWEEP_GRID)])
           for c in cases.sweep_cases()]
    rng.shuffle(ops)
    return ops


def field_batch_round(rng: random.Random) -> list[Op]:
    return [_analyze_op("field-batch", c, ["--points", json.dumps(c.points)])
            for c in cases.field_batch_round(rng)]


def cli_session_round(rng: random.Random) -> list[Op]:
    """The fixed script; its seeded values are drawn afresh from ``rng``."""
    heis, cartan = cases.HEISENBERG, cases.CARTAN
    grid = cases.grid_points(cases.DEFAULT_GRID)
    p = cases.box_points(rng, 1)[0]
    one = [cases.Expected(p, heis.m(*p), heis.det3)]
    # a diagonal respan keeps this invocation short, so that the CLI's own
    # cost is a large share of the median operation
    scale = [round(rng.choice((-1, 1)) * rng.uniform(0.5, 1.5), 4) for _ in range(2)]
    respan_cartan = cases.respan_case("respan-cartan", cartan,
                                      [cases.constant(c) for c in (scale[0], 0.0, 0.0, scale[1])],
                                      grid)
    few = cases.box_points(rng, 3)
    coeffs_h = [cases.constant(c) for c in (1.0 + rng.uniform(0, 0.5), rng.uniform(-0.5, 0.5),
                                            rng.uniform(-0.5, 0.5), 1.0 + rng.uniform(0, 0.5))]
    respan_heis = cases.respan_case("respan-heisenberg", heis, coeffs_h, few)
    c_mixed = round(rng.uniform(0.5, 2.0), 4)
    mixed = cases.Case("mixed", ("1", "0", "0"), ("0", "1", f"{c_mixed!r}*x^2"))
    mixed_status = ["holonomic-at-point" if x == 0.0 else "singular" for x, _, _ in grid]
    heis_grid = [cases.Expected(q, heis.m(*q), heis.det3) for q in grid]
    cartan_grid = [cases.Expected(q, cartan.m(*q), cartan.det3) for q in grid]

    paths = {name: OUT / f"cli-session-{name}.json"
             for name in ("respan-cartan", "mixed", "respan-heisenberg")}
    return [
        Op("analyze-builtin", ["analyze", "heisenberg", "--points", json.dumps([p]),
                               "--format", "json"], 0,
           _json_check(lambda d: cases.check_records(cases.json_records(d), one, "heisenberg")),
           1),
        Op("analyze-spec", ["analyze", str(paths["respan-cartan"])], 0,
           lambda text: cases.check_records(cases.table_records(text),
                                            respan_cartan.expected, "respan-cartan"),
           len(grid), files={paths["respan-cartan"]: respan_cartan.spec()}),
        Op("analyze-holonomic", ["analyze", "exercise1a", "--format", "json"], 2,
           _json_check(lambda d: cases.check_classified(
               d, "holonomic", ["holonomic-at-point"] * len(grid), [0.0] * len(grid))),
           len(grid)),
        Op("analyze-mixed", ["analyze", str(paths["mixed"]), "--format", "json"], 2,
           _json_check(lambda d: cases.check_classified(
               d, "mixed", mixed_status, [2.0 * c_mixed * x for x, _, _ in grid])),
           len(grid), files={paths["mixed"]: mixed.spec()}),
        Op("compare-builtins", ["compare", "heisenberg", "cartan", "--format", "json"], 0,
           _json_check(lambda d: cases.check_compare(d, heis_grid, cartan_grid)),
           2 * len(grid)),
        Op("compare-respan", ["compare", "heisenberg", str(paths["respan-heisenberg"]),
                              "--points", json.dumps(few), "--format", "json"], 0,
           _json_check(lambda d: cases.check_compare(
               d, [cases.Expected(q, heis.m(*q), heis.det3) for q in few],
               respan_heis.expected)),
           2 * len(few), files={paths["respan-heisenberg"]: respan_heis.spec()}),
        Op("corpus", ["corpus", "--format", "json"], 0, _json_check(cases.check_corpus),
           3 * len(grid)),
    ]


ROUNDS = {"grid-sweep": grid_sweep_round, "field-batch": field_batch_round,
          "cli-session": cli_session_round}


# -- running operations -----------------------------------------------------------


def import_package():
    """Import the package afresh from src/ (dropping any loaded copy)."""
    for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    return importlib.import_module(PACKAGE)


def setup(workload: str, seed: int):
    """Import, draw the first round's inputs, write their spec files and
    parse them; timed.  Builtins named on a command line are not parsed here."""
    t0 = time.perf_counter()
    pkg = import_package()
    rng = random.Random(seed)
    ops = ROUNDS[workload](rng)
    _write_specs(ops)
    for op in ops:
        for doc in op.files.values():
            pkg.Distribution.from_components(doc["fields"]["X1"], doc["fields"]["X2"])
    return time.perf_counter() - t0, pkg, rng, ops


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], env: dict):
    proc = subprocess.run([sys.executable, "-m", PACKAGE, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def run_inprocess(cli, argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def outcome_problems(op: Op, code, stdout: str, stderr: str) -> list[str]:
    if code != op.exit_code:
        return [f"{op.label}: exit code {code}, expected {op.exit_code}; "
                f"stderr: {stderr.strip()[-300:]}"]
    return op.check(stdout)


def reduce_problems(pkg, op: Op) -> tuple[list[str], int]:
    """The in-process operation: parse the fields and reduce at the points."""
    report = pkg.reduce(pkg.Distribution.from_components(op.case.x1, op.case.x2),
                        op.case.points)
    records = cases.report_records(report)
    return cases.check_records(records, op.case.expected, op.label), len(records)


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, run):
        """Run one operation; count it, and count it failed on any problem."""
        self.attempted += 1
        try:
            problems, value = run()
        except Exception:
            problems, value = [f"{label}: raised\n{traceback.format_exc()}"], None
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED {p}", file=sys.stderr)
        return not problems, value


def rounds(workload: str, rng, first_ops, seconds: float):
    """Yield whole rounds, stopping at the round boundary nearest to
    ``seconds`` after the first round began; at least one round."""
    start = time.perf_counter()
    ops = first_ops
    while True:
        began = time.perf_counter()
        yield ops
        now = time.perf_counter()
        if now - start + (now - began) / 2 >= seconds:
            return
        ops = ROUNDS[workload](rng)
        _write_specs(ops)


def measure(workload: str, seed: int, seconds: float) -> dict:
    """The untraced run.  Set-up is timed SETUPS_PER_ROUND times before the
    first round and again after each round, so that its median, like the
    operations, spans the whole run rather than one moment of it."""
    setup_times = []
    for _ in range(SETUPS_PER_ROUND):
        dt, pkg, rng, ops = setup(workload, seed)
        setup_times.append(dt)
    tally = Tally()
    op_times, points = [], 0
    by_label: dict[str, list[float]] = {}
    env = child_env()
    for ops in rounds(workload, rng, ops, seconds):
        for op in ops:
            if op.case is not None:
                def run(op=op):
                    return reduce_problems(pkg, op)
            else:
                def run(op=op):
                    code, out, err = run_child(op.argv, env)
                    return outcome_problems(op, code, out, err), op.points
            t0 = time.perf_counter()
            ok, n = tally.record(op.label, run)
            op_times.append(time.perf_counter() - t0)
            by_label.setdefault(op.label, []).append(op_times[-1])
            if ok:
                points += n
        setup_times += [setup(workload, seed)[0] for _ in range(SETUPS_PER_ROUND)]
    for label, times in by_label.items():
        print(f"{label}: median {statistics.median(times):.4f} s over {len(times)}"
              f" ({' '.join(f'{t:.3f}' for t in times)})",
              file=sys.stderr)
    who = resource.RUSAGE_CHILDREN if workload == "cli-session" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_median_s": (statistics.median(op_times), "s"),
        "points_per_s": (points / sum(op_times), "points/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return result(tally, metrics)


# -- traced run ---------------------------------------------------------------------


def cli_import_s(env: dict) -> float:
    """Median cumulative import time of the CLI module in a fresh interpreter."""
    samples = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               f"import {PACKAGE}.cli"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        for line in proc.stderr.splitlines():
            cells = [c.strip() for c in line.split("|")]
            if len(cells) == 3 and cells[2] == f"{PACKAGE}.cli":
                samples.append(int(cells[1]) * 1e-6)
    if not samples:
        raise RuntimeError("could not read the import time of the CLI module")
    return statistics.median(samples)


class NodeStats:
    """Node counts of the six per-point outputs of each traced reduce call."""

    def __init__(self) -> None:
        self.cache: dict[tuple, dict] = {}

    def of(self, dist, report, t12) -> dict:
        key = tuple(c.to_text() for X in (dist.X1, dist.X2) for c in X.components)
        stats = self.cache.get(key)
        if stats is None:
            roots = {"t12": t12, "a1": report.a1, "a2": report.a2, "M": report.M,
                     "dd_eta3": report.dd_eta3, "q1_minus_p2": report.q1_minus_p2}
            stats = {name: spanlib.distinct_nodes([f]) for name, f in roots.items()}
            stats["outputs"] = spanlib.distinct_nodes(roots.values())
            stats["unique_outputs"] = spanlib.structural_nodes(roots.values())
            self.cache[key] = stats
        return stats


def traced(workload: str, seed: int, seconds: float) -> dict:
    _, pkg, rng, ops = setup(workload, seed)
    cli = importlib.import_module(f"{PACKAGE}.cli")
    env = child_env()
    import_s = cli_import_s(env)
    tracer = spanlib.Tracer()
    nodes = NodeStats()
    tally = Tally()
    ratios = []
    first_round = {name: 0 for name in (*OUTPUTS, "outputs", "unique_outputs",
                                        "points_ok", "points_excluded")}
    eval_s, eval_calls, eval_node_visits = 0.0, 0, 0.0
    for round_index, ops in enumerate(rounds(workload, rng, ops, seconds)):
        for op in ops:
            def run(op=op):
                t0 = time.perf_counter()
                plain = run_inprocess(cli, op.argv)
                t1 = time.perf_counter()
                with tracer:
                    t2 = time.perf_counter()
                    seen = run_inprocess(cli, op.argv)
                    t3 = time.perf_counter()
                return (outcome_problems(op, *plain) + outcome_problems(op, *seen),
                        (t3 - t2) / (t1 - t0))
            first_span = len(tracer.spans)
            ok, ratio = tally.record(op.label, run)
            if ok:
                ratios.append(ratio)
            # node counts and evaluation cost of each reduce call of this op
            spans = tracer.spans
            for index in sorted(tracer.reduces):
                (dist, *_), report = tracer.reduces[index]
                t12 = next(tracer.torsions[i][1].t12 for i in sorted(tracer.torsions)
                           if spans[i][3] == index)
                stats = nodes.of(dist, report, t12)
                evals = [s for s in spans[first_span:]
                         if s[0] == "scalarfield.evaluate" and s[3] == index]
                eval_s += sum(end - start for _, start, end, _ in evals)
                eval_calls += len(evals)
                eval_node_visits += len(evals) / len(OUTPUTS) * sum(stats[o] for o in OUTPUTS)
                if round_index == 0:
                    for name in (*OUTPUTS, "outputs", "unique_outputs"):
                        first_round[name] += stats[name]
                    first_round["points_ok"] += report.n_ok
                    first_round["points_excluded"] += report.n_singular
            tracer.reduces.clear()
            tracer.torsions.clear()
    spans = tracer.spans
    OUT.mkdir(exist_ok=True)
    (OUT / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(spans))

    outer = spanlib.outermost_times(spans)
    under_reduce = spanlib.child_times(spans, "reduction.reduce")
    selfs = spanlib.self_times(spans)

    def per_op(seconds_total: float) -> float:
        return seconds_total / tally.attempted

    build = sum(under_reduce.get(f"reduction.{stage}", 0.0) for stage in
                ("build_adapted", "contact_torsion", "normalize_scale",
                 "absorb_translations", "extract_invariants"))
    m = {
        "scalarfield.parse_s": (per_op(outer.get("scalarfield.parse", 0.0)), "s"),
        "scalarfield.eval_ms_per_point": (1e3 * eval_s / (eval_calls / len(OUTPUTS)), "ms"),
        "scalarfield.eval_ns_per_node": (1e9 * eval_s / eval_node_visits, "ns"),
    }
    for name in OUTPUTS:
        m[f"scalarfield.nodes.{name}"] = (first_round[name], "count")
    m["scalarfield.nodes.outputs"] = (first_round["outputs"], "count")
    m["scalarfield.unique_nodes.outputs"] = (first_round["unique_outputs"], "count")
    for stage in ("classify", "build_adapted", "normalize_scale", "absorb_translations",
                  "extract_invariants"):
        m[f"reduction.{stage}_s"] = (per_op(outer.get(f"reduction.{stage}", 0.0)), "s")
    m["reduction.build_s"] = (per_op(build), "s")
    m["reduction.reduce_s"] = (per_op(outer.get("reduction.reduce", 0.0)), "s")
    m["reduction.points_ok"] = (first_round["points_ok"], "count")
    m["reduction.points_excluded"] = (first_round["points_excluded"], "count")
    m["cli.import_s"] = (import_s, "s")
    m["cli.load_spec_s"] = (per_op(outer.get("cli.load_spec", 0.0)
                                   + outer.get("cli.build_distribution", 0.0)), "s")
    m["cli.render_s"] = (per_op(sum(outer.get(f"cli.{n}", 0.0) for n in
                                    ("report_from_invariants", "report_from_classification",
                                     "_emit"))), "s")
    m["cli.process_s"] = (per_op(outer.get("cli.main", 0.0)), "s")
    for layer in ("scalarfield", "forms", "reduction", "cli"):
        m[f"self.{layer}_s"] = (per_op(sum(v for k, v in selfs.items()
                                           if k.startswith(layer + "."))), "s")
    m["trace.overhead"] = (statistics.median(ratios) - 1.0 if ratios else 0.0, "ratio")
    m["trace.spans_per_op"] = (per_op(len(spans)), "count")
    return result(tally, m)


# -- entry point ----------------------------------------------------------------------


def result(tally: Tally, metrics: dict) -> dict:
    print(f"{tally.attempted} operations, {tally.failed} failed", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(ROUNDS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {SRC / PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    run = traced if args.trace else measure
    doc = run(args.workload, args.seed, args.seconds)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
