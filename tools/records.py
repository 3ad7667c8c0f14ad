#!/usr/bin/env python3
"""Print the records and node counts that a behaviour-preserving change must keep.

    python3 tools/records.py > records.txt

Reduces 48 field-batch distributions (seeds 11, 31, 3 and 7, three rounds of
``bench/cases.field_batch_round`` each) at their points plus (0.1, -0.2, 0.3),
and heisenberg and cartan on the default grid.  Prints the ``repr`` of every
``SampleRecord``, and for each field-batch case the distinct node counts of M
and of the union of the six outputs ``reduce`` reports and evaluates (T312,
a1, a2, M, dd_eta3, q1_minus_p2), counted by ``bench/spans.distinct_nodes``.
Run it in two checkouts and diff the outputs: they are deterministic, so any
difference is a change in behaviour.  ``tests/golden/records.txt`` holds the
record lines, which Tier-1 and CI diff against this script's output; the
node-count lines are left out there, since a correct change may lower them.
A change that moves a record on purpose regenerates it with

    python3 tools/records.py | grep -v '^nodes ' > tests/golden/records.txt

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
from cartan_contact.reduction import Distribution, default_grid_points, reduce  # noqa: E402
from spans import distinct_nodes  # noqa: E402

SEEDS = (11, 31, 3, 7)
ROUNDS = 3
EXTRA_POINT = (0.1, -0.2, 0.3)


def main() -> int:
    for seed in SEEDS:
        rng = random.Random(seed)
        for round_no in range(ROUNDS):
            for case in cases.field_batch_round(rng):
                dist = Distribution.from_components(case.x1, case.x2, name=case.name)
                rep = reduce(dist, case.points + [EXTRA_POINT])
                for sample in rep.samples:
                    print(repr(sample))
                union = distinct_nodes([rep.T312, rep.a1, rep.a2, rep.M, rep.dd_eta3,
                                        rep.q1_minus_p2])
                print(f"nodes seed={seed} round={round_no} {case.name}: "
                      f"M {distinct_nodes([rep.M])} union {union}")
    for name in ("heisenberg", "cartan"):
        for sample in reduce(corpus.distribution(name), default_grid_points()).samples:
            print(repr(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main())
