"""Byte-exact CLI output against files recorded under ``tests/golden/``.

Each case runs the CLI in process and compares stdout and stderr with
``<case>.out`` and ``<case>.err`` byte for byte.  ``analyze heisenberg`` is
left out on purpose: its residual digits near 1e-16 depend on the shape of
the expression DAG, which a correct change may alter; cartan's residuals are
exactly 0.

``records.txt`` holds the ``SampleRecord`` lines that ``tools/records.py``
printed when it was recorded, and ``nodes.txt`` its ``nodes`` lines: the
distinct DAG nodes of each output of ``reduce`` and of their union, per
distribution.  The records must match; a correct change may lower a node
count, never raise it.  ``scaling.txt`` holds the output of
``tools/scaling.py``, the status counts of the same distributions under 2^k
scaling, which must match.
"""
from __future__ import annotations

import subprocess
import sys

import pytest

from cartan_contact.cli import main
from helpers import GOLDEN, parse_nodes

MIXED = str(GOLDEN / "mixed.json")

# (case, argv, exit code)
CASES = (
    ("analyze-cartan", ("analyze", "cartan"), 0),
    ("analyze-exercise1a", ("analyze", "exercise1a"), 2),
    ("analyze-mixed", ("analyze", MIXED), 2),
    ("compare-heisenberg-cartan", ("compare", "heisenberg", "cartan"), 0),
    ("corpus", ("corpus",), 0),
    ("analyze-cartan-points-json",
     ("analyze", "cartan", "--points", "[[1,0,0.3],[0,0.5,0.3]]", "--format", "json"), 0),
    ("compare-heisenberg-cartan-json",
     ("compare", "heisenberg", "cartan", "--format", "json"), 0),
    ("corpus-json", ("corpus", "--format", "json"), 0),
)


@pytest.mark.parametrize("case, argv, code", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(capsys, case, argv, code):
    assert main(list(argv)) == code
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / f"{case}.out").read_text()
    assert captured.err == (GOLDEN / f"{case}.err").read_text()


def run_tool(name: str) -> str:
    """The standard output of ``tools/<name>``, run as a script."""
    script = GOLDEN.parent.parent / "tools" / name
    return subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          check=True).stdout


@pytest.fixture(scope="module")
def records_output() -> list[str]:
    return run_tool("records.py").splitlines()


def test_differential_records_match_golden(records_output):
    records = [line for line in records_output if not line.startswith("nodes ")]
    assert records == (GOLDEN / "records.txt").read_text().splitlines()


def test_node_counts_do_not_rise(records_output):
    got = parse_nodes(line for line in records_output if line.startswith("nodes "))
    want = parse_nodes((GOLDEN / "nodes.txt").read_text().splitlines())
    assert [(label, list(counts)) for label, counts in got] == \
        [(label, list(bound)) for label, bound in want]
    risen = [(label, key, n, bound[key]) for (label, counts), (_, bound) in zip(got, want)
             for key, n in counts.items() if n > bound[key]]
    assert not risen, risen


def test_scaling_counts_match_golden():
    assert run_tool("scaling.py") == (GOLDEN / "scaling.txt").read_text()
