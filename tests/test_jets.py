"""M from ``reduce`` against M from Taylor jets (``tests/jets.py``).

The jets share no code with the package: not its expression engine, its
derivatives or its exterior calculus.  Each case is one Python function of
(x, y, z) and of a namespace holding sqrt, sin, cos and exp, so the same
text builds the package's fields and the jets; the hypothesis property
builds random polynomial generators the same way.
"""
from __future__ import annotations

import math

import pytest

import jets
from cartan_contact import scalarfield
from cartan_contact.reduction import DegenerateInput, Distribution, Point, classify, reduce

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


def polynomial(terms, x, y, z):
    """sum of c x^i y^j z^k over ``terms`` = [(c, (i, j, k)), ...]"""
    acc = 0
    for c, exponents in terms:
        term = c
        for base, e in zip((x, y, z), exponents):
            for _ in range(e):
                term = term * base
        acc = acc + term
    return acc


def test_random_polynomials_match_jets():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # like helpers.rand_poly_field: a constant and up to three monomials of
    # degree at most 2 in each variable, with small integer coefficients
    term = st.tuples(st.integers(-3, 3), st.tuples(*[st.integers(0, 2)] * 3))
    poly = st.tuples(st.integers(-2, 2), st.lists(term, max_size=3))
    coordinate = st.floats(-1.0, 1.0)

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=100)
    @hypothesis.given(components=st.lists(poly, min_size=6, max_size=6),
                      point=st.tuples(coordinate, coordinate, coordinate))
    def check(components, point):
        polys = [[(c, (0, 0, 0)), *terms] for c, terms in components]

        def fields(x, y, z, fn):
            values = [polynomial(terms, x, y, z) for terms in polys]
            return tuple(values[:3]), tuple(values[3:])

        # tiny or huge generators put the two sides in the underflow range
        for X in fields(*point, math):
            hypothesis.assume(0.1 <= math.hypot(*X) <= 100.0)
        X1, X2 = fields(*(scalarfield.as_field(v) for v in "xyz"), scalarfield)
        dist = Distribution.from_components(X1, X2)
        try:
            (rec,) = classify(dist, [point]).records
        except DegenerateInput:
            hypothesis.reject()
        hypothesis.assume(rec.status == "contact" and abs(rec.det3) > 1e-3 * rec.scale)
        (s,) = reduce(dist, [point]).samples
        hypothesis.assume(s.status == "ok")
        want = jets.invariant_m(lambda x, y, z: fields(x, y, z, jets), point)
        assert abs(s.M - want) <= 1e-9 * max(1.0, abs(want)), (s.M, want)
        assert abs(s.T312 + 1.0) <= 1e-9, s.T312

    check()
