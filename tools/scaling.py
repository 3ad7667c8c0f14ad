#!/usr/bin/env python3
"""Print the status counts of the field-batch set under 2^k scaling.

    python3 tools/scaling.py

Multiplying both generators by the constant 2^k changes neither the plane
field nor its Euclidean metric, so in exact arithmetic no status moves; in
binary floating point every product and quotient scales exactly too, until
overflow or underflow.  For each k in ``KS`` this script scales the 48
field-batch distributions of ``tools/records.py``, reduces each at its
points plus (0.1, -0.2, 0.3), and prints one line: the count of each record
status, and of each exception ``reduce`` raised, counted once per point of
the case that raised it, so every line sums to the number of records; then
``t312_off``, the number of records whose T312 is off -1 by more than 1e-6.
Run it in two checkouts and diff the outputs to see where a change moves the
dynamic range.  Tier-1 (``tests/test_golden.py``) compares the output with
``tests/golden/scaling.txt``; a change that moves a count on purpose
regenerates that file with

    python3 tools/scaling.py > tests/golden/scaling.txt

Uses the standard library only, through ``tools/records.py``.
"""
from __future__ import annotations

import sys
from collections import Counter

from records import field_batch
from cartan_contact.reduction import Distribution, reduce

KS = (-400, -300, -268, -200, -150, -132, -124, -116, -100, -80, -40, 0, 40, 80, 100, 120, 200)
STATUSES = ("ok", "singular", "holonomic-at-point")
T312_TOL = 1e-6


def scaled_line(k: int, batch) -> str:
    c = 2.0 ** k
    counts = Counter({status: 0 for status in STATUSES})
    t312_off = 0
    for dist, points in batch:
        try:
            rep = reduce(Distribution(dist.X1 * c, dist.X2 * c), points)
        except (ValueError, AssertionError) as exc:
            counts[type(exc).__name__] += len(points)
            continue
        for s in rep.samples:
            counts[s.status] += 1
            t312_off += s.T312 is not None and abs(s.T312 + 1.0) > T312_TOL
    errors = sorted(set(counts) - set(STATUSES))
    words = " ".join(f"{key} {counts[key]}" for key in STATUSES + tuple(errors))
    return f"k={k}: {words} t312_off {t312_off}"


def main() -> int:
    batch = [(dist, points) for _, dist, points in field_batch()]
    for k in KS:
        print(scaled_line(k, batch))
    return 0


if __name__ == "__main__":
    sys.exit(main())
