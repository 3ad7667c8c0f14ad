#!/usr/bin/env python3
"""Print the records and node counts that a behaviour-preserving change must keep.

    python3 tools/records.py > records.txt

Reduces 48 field-batch distributions (seeds 11, 31, 3 and 7, three rounds of
``bench/cases.field_batch_round`` each) at their points plus (0.1, -0.2, 0.3),
and heisenberg and cartan on the default grid, and prints the ``repr`` of
every ``SampleRecord``.  For each of those distributions, and for a constant
respan of heisenberg whose records it does not print, it prints one ``nodes``
line: the distinct node counts of the outputs ``reduce`` reports and
evaluates (``reduction.OUTPUTS``) and of their union, counted by
``bench/spans.distinct_nodes``.  Run it in two checkouts and diff
the outputs: they are deterministic, so any difference is a change in
behaviour.  Tier-1 and CI hold this script's output to two files:
``tests/golden/records.txt`` holds the record lines, which must match, and
``tests/golden/nodes.txt`` the ``nodes`` lines, whose counts must not rise.
A change that moves a record on purpose, or lowers a count, regenerates them
with

    python3 tools/records.py | grep -v '^nodes ' > tests/golden/records.txt
    python3 tools/records.py | grep '^nodes ' > tests/golden/nodes.txt

Uses the standard library only; the package is imported from ``src/`` and
``bench/cases.py`` and ``bench/spans.py`` are only read.
"""
from __future__ import annotations

import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import cases  # noqa: E402
from cartan_contact import corpus  # noqa: E402
from cartan_contact.reduction import OUTPUTS, Distribution, default_grid_points, reduce  # noqa: E402
from spans import distinct_nodes  # noqa: E402

SEEDS = (11, 31, 3, 7)
ROUNDS = 3
EXTRA_POINT = (0.1, -0.2, 0.3)
# the constant respan (a, b, c, d): X1' = a X1 + b X2, X2' = c X1 + d X2
RESPAN = (1.3, -0.4, 0.5, 1.1)


def nodes_line(label: str, rep) -> str:
    fields = [getattr(rep, key) for key in OUTPUTS]
    counts = " ".join(f"{key} {distinct_nodes([f])}" for key, f in zip(OUTPUTS, fields))
    return f"nodes {label}: {counts} union {distinct_nodes(fields)}"


def field_batch():
    """(label, distribution, points) for each of the 48 field-batch cases."""
    for seed in SEEDS:
        rng = random.Random(seed)
        for round_no in range(ROUNDS):
            for case in cases.field_batch_round(rng):
                label = f"seed={seed} round={round_no} {case.name}"
                dist = Distribution.from_components(case.x1, case.x2, name=case.name)
                yield label, dist, case.points + [EXTRA_POINT]


def main() -> int:
    for label, dist, points in field_batch():
        rep = reduce(dist, points)
        for sample in rep.samples:
            print(repr(sample))
        print(nodes_line(label, rep))
    heisenberg = corpus.distribution("heisenberg")
    a, b, c, d = RESPAN
    respan = Distribution(a * heisenberg.X1 + b * heisenberg.X2,
                          c * heisenberg.X1 + d * heisenberg.X2, name="respan")
    for dist in (heisenberg, corpus.distribution("cartan"), respan):
        rep = reduce(dist, default_grid_points())
        if dist is not respan:
            for sample in rep.samples:
                print(repr(sample))
        print(nodes_line(dist.name, rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
