"""A second derivation of M, from the Reeb field (Agrachev-Barilari).

``reduce`` and both of its other oracles (``tests/jets.py`` and
``tests/test_exact.py``) follow the Cartan reduction: Gram-Schmidt, a third
frame vector, the B2 translations; the oracles take e3 = [e1, e2], and
``reduce`` takes e3 = [X1, X2]/|X1 x X2|.  This oracle normalises by the Reeb
field instead (A. Agrachev and D. Barilari, "Sub-Riemannian structures on
3D Lie groups", J. Dyn. Control Syst. 18, 2012) and is built from
``forms`` primitives only, with nothing from ``reduction``:

* (f1, f2) is the orthonormal pair of Gram-Schmidt, F = [f2, f1], and
  nu(v) = det(f1, f2, v) / det(f1, f2, F) the contact form with nu(F) = 1;
* the Reeb field f0 = F + u f1 + w f2, with u = nu([F, f2]) and
  w = -nu([F, f1]), has nu(f0) = 1 and nu([fi, f0]) = 0;
* [fi, f0] = c1_0i f1 + c2_0i f2 by Cramer's rule, and then
  chi^2 = ((c1_02 + c2_01) / 2)^2 - c1_01 c2_02 is M, while the trace
  c1_01 + c2_02 vanishes identically, a free residual.

It checks four named distributions at the three points, and the 48
field-batch distributions of ``tools/records.py`` at their points.
"""
from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import pytest

from cartan_contact import corpus
from cartan_contact.forms import VectorField, commutator, gram_schmidt, triple_product
from cartan_contact.reduction import Distribution, reduce
from cartan_contact.scalarfield import as_field
from helpers import THREE_POINTS, respan_pd

TOL = 1e-12


def reeb_chi2_and_trace(dist: Distribution):
    """chi^2 and the trace c1_01 + c2_02, as fields, for ``dist``'s generators."""
    f1, f2 = gram_schmidt(dist.X1, dist.X2)
    F = commutator(f2, f1)
    volume = triple_product(f1, f2, F)
    u = triple_product(f1, f2, commutator(F, f2)) / volume
    w = -triple_product(f1, f2, commutator(F, f1)) / volume
    f0 = F + u * f1 + w * f2
    det = triple_product(f1, f2, f0)

    def plane_coordinates(v):
        # v = a f1 + b f2, since nu(v) = 0
        return triple_product(v, f2, f0) / det, triple_product(f1, v, f0) / det

    c1_01, c2_01 = plane_coordinates(commutator(f1, f0))
    c1_02, c2_02 = plane_coordinates(commutator(f2, f0))
    return ((c1_02 + c2_01) / 2) ** 2 - c1_01 * c2_02, c1_01 + c2_02


def motion_cartan() -> Distribution:
    """cartan pushed forward by phi(p) = R p + s, X'(q) = R X(R^T (q - s)),
    with R the rotation by 0.4 about the unit axis (2, -1, 2)/3 (Rodrigues)."""
    k = (2 / 3, -1 / 3, 2 / 3)
    K = ((0.0, -k[2], k[1]), (k[2], 0.0, -k[0]), (-k[1], k[0], 0.0))
    sin, cos = math.sin(0.4), math.cos(0.4)
    R = [[(i == j) + sin * K[i][j] + (1 - cos) * sum(K[i][m] * K[m][j] for m in range(3))
          for j in range(3)] for i in range(3)]
    shift = (0.3, 0.1, -0.2)
    q = [as_field(c) for c in "xyz"]
    u = [sum((R[i][j] * (q[i] - shift[i]) for i in range(3)), as_field(0)) for j in range(3)]

    def push(X):
        return VectorField(*(sum((R[i][j] * X[j] for j in range(3)), as_field(0))
                             for i in range(3)))

    # cartan's generators (1, 0, -y) and (0, 1, 0), at u = R^T (q - s)
    return Distribution(push((1, 0, -u[1])), push((0, 1, 0)), name="motion-cartan")


CASES = {"heisenberg": lambda: corpus.distribution("heisenberg"),
         "cartan": lambda: corpus.distribution("cartan"),
         "respan-pd": respan_pd,
         "motion-cartan": motion_cartan}


def field_batch():
    """(label, distribution, points) of ``tools/records.py``'s field-batch set."""
    path = Path(__file__).resolve().parent.parent / "tools" / "records.py"
    spec = importlib.util.spec_from_file_location("records", path)
    records = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(records)
    return list(records.field_batch())


FIELD_BATCH = field_batch()


def assert_chi2_is_m(dist: Distribution, points):
    chi2, trace = reeb_chi2_and_trace(dist)
    report = reduce(dist, points)
    assert report.n_ok == len(points)
    for s in report.samples:
        memo: dict = {}
        got = chi2.evaluate(s.point, memo)
        assert abs(got - s.M) <= TOL * abs(s.M), (s.point, got, s.M)
        assert abs(trace.evaluate(s.point, memo)) <= TOL, s.point


@pytest.mark.parametrize("name", CASES)
def test_reeb_chi2_is_m(name):
    assert_chi2_is_m(CASES[name](), THREE_POINTS)


@pytest.mark.parametrize("dist, points", [c[1:] for c in FIELD_BATCH],
                         ids=[c[0] for c in FIELD_BATCH])
def test_field_batch_reeb_chi2_is_m(dist, points):
    assert_chi2_is_m(dist, points)
