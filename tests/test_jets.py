"""M from ``reduce`` against M from Taylor jets (``tests/jets.py``).

The jets share no code with the package: not its expression engine, its
derivatives or its exterior calculus.  Each case is one Python function of
(x, y, z) and of a namespace holding sqrt, sin, cos and exp, so the same
text builds the package's fields and the jets.
"""
from __future__ import annotations

import math

import pytest

import jets
from cartan_contact import scalarfield
from cartan_contact.reduction import Distribution, Point, reduce

THREE_POINTS = [Point(0.3, -0.2, 0.1), Point(0.5, 0.5, 0.2), Point(-0.7, 0.9, -0.4)]


def heisenberg(x, y, z, fn):
    return (1, 0, -y), (0, 1, x)


def cartan(x, y, z, fn):
    return (1, 0, -y), (0, 1, 0)


def respan_pd(x, y, z, fn):
    # X1' = f X1 + g X2, X2' = h X1 + k X2 on heisenberg's generators
    f, g, h, k = 1 + 0.3 * x * y, 0.2 * z, -0.1 * x ** 2, 1 - 0.2 * y
    return (f, g, -f * y + g * x), (h, k, -h * y + k * x)


def se2(x, y, z, fn):
    return (fn.cos(z), fn.sin(z), 0), (0, 0, 1)


# Rodrigues: R = I + sin(t) K + (1 - cos(t)) K^2, K the cross-product matrix
# of the unit axis along (1, 2, 3), t = 0.7
_K = [[c / math.sqrt(14.0) for c in row] for row in ((0, -3, 2), (3, 0, -1), (-2, 1, 0))]
R = [[(i == j) + math.sin(0.7) * _K[i][j]
      + (1 - math.cos(0.7)) * sum(_K[i][m] * _K[m][j] for m in range(3))
      for j in range(3)] for i in range(3)]
SHIFT = (0.2, -0.1, 0.4)


def moved_heisenberg(x, y, z, fn):
    # phi(p) = R p + s pushes X forward to X'(q) = R X(R^T (q - s))
    q = (x - SHIFT[0], y - SHIFT[1], z - SHIFT[2])
    u = [sum(R[i][j] * q[i] for i in range(3)) for j in range(3)]
    return tuple(tuple(sum(R[i][j] * X[j] for j in range(3)) for i in range(3))
                 for X in ((1, 0, -u[1]), (0, 1, u[0])))


CASES = {"heisenberg": heisenberg, "cartan": cartan, "respan-pd": respan_pd,
         "se2": se2, "moved-heisenberg": moved_heisenberg}


@pytest.mark.parametrize("name", CASES)
def test_reduce_matches_jets(name):
    fields = CASES[name]
    X1, X2 = fields(*(scalarfield.as_field(v) for v in "xyz"), scalarfield)
    report = reduce(Distribution.from_components(X1, X2, name=name), THREE_POINTS)
    assert [s.status for s in report.samples] == ["ok"] * len(THREE_POINTS)
    for s in report.samples:
        want = jets.invariant_m(lambda x, y, z: fields(x, y, z, jets), s.point)
        assert abs(s.M - want) <= 1e-12 * max(1.0, abs(want)), (s.point, s.M, want)
        if name == "se2":
            assert want == pytest.approx(0.25, abs=1e-14)
