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
from cartan_contact.reduction import DegenerateInput, Distribution, classify, reduce
from helpers import THREE_POINTS


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


def near_holonomic(x, y, z, fn):
    # det3 = -z: holonomic on the plane z = 0, and M grows like z^-4/4 towards it
    return (1, 1, 0), (0, y * z, 1)


@pytest.mark.parametrize("z", [
    1e-3,
    pytest.param(1e-8, marks=pytest.mark.xfail(
        strict=True, reason="FOUND 42, ROADMAP item 12: the order-3 jets lose M near "
        "the holonomic locus, 1.56e-34 against 2.5e31 at z = 1e-8")),
])
def test_jets_near_the_holonomic_locus(z):
    X1, X2 = near_holonomic(*(scalarfield.as_field(v) for v in "xyz"), scalarfield)
    (s,) = reduce(Distribution.from_components(X1, X2), [(0.0, 0.0, z)]).samples
    want = jets.invariant_m(lambda x, y, z: near_holonomic(x, y, z, jets), (0.0, 0.0, z))
    assert s.status == "ok"
    assert s.M == want


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


def test_random_polynomials_scale_covariantly():
    # the inputs of test_random_polynomials_match_jets, each reduced again
    # with both generators multiplied by 2^k, which moves no record field
    # but det3 (by 2^(4k)) and dd_eta3 (by 2^(2k)); no jets are compared
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    term = st.tuples(st.integers(-3, 3), st.tuples(*[st.integers(0, 2)] * 3))
    poly = st.tuples(st.integers(-2, 2), st.lists(term, max_size=3))
    coordinate = st.floats(-1.0, 1.0)

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=100)
    @hypothesis.given(components=st.lists(poly, min_size=6, max_size=6),
                      point=st.tuples(coordinate, coordinate, coordinate),
                      k=st.integers(-40, 40))
    def check(components, point, k):
        polys = [[(c, (0, 0, 0)), *terms] for c, terms in components]

        def fields(x, y, z):
            values = [polynomial(terms, x, y, z) for terms in polys]
            return tuple(values[:3]), tuple(values[3:])

        for X in fields(*point):
            hypothesis.assume(0.1 <= math.hypot(*X) <= 100.0)
        dist = Distribution.from_components(*fields(*(scalarfield.as_field(v) for v in "xyz")))
        try:
            (rec,) = classify(dist, [point]).records
        except DegenerateInput:
            hypothesis.reject()
        hypothesis.assume(rec.status == "contact" and abs(rec.det3) > 1e-3 * rec.scale)
        (s,) = reduce(dist, [point]).samples
        hypothesis.assume(s.status == "ok")
        c = 2.0 ** k
        (t,) = reduce(Distribution(dist.X1 * c, dist.X2 * c), [point]).samples
        same = lambda r: (r.point, r.status, r.T312, r.a1, r.a2, r.M, r.q1_minus_p2)
        assert same(t) == same(s), k
        assert (t.det3, t.dd_eta3) == (s.det3 * c ** 4, s.dd_eta3 * c ** 2), k

    check()
