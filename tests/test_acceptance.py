"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run as ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the lines
while passing).  Every tolerance is pinned here, not configurable.

Criterion 3 asserts the contact-torsion magnitudes 2 (heisenberg) and 1
(cartan).  They belong to the coframe dual to the generators' own frame
(X1, X2, d/dz): there (d eta3)(X1, X2) = -eta3([X1, X2]) = -det(X1, X2,
[X1, X2]), the det3 that classify reports, since det(X1, X2, d/dz) = 1 for
both examples (for heisenberg eta3 = dz + y dx - x dy, so d eta3 = -2 dx^dy).
The stage-B0 adapted section is a different coframe: its frame is completed
by e3 = [e1, e2], so duality forces (d eta3)(e1, e2) = -eta3([e1, e2]) =
-eta3(e3) = -1 for every contact plane field.  Criterion 3 checks that
identity too, since reduce takes stage B0 to B1 by the exact scale -1 that
it implies, instead of dividing eta3 by this t12.
"""
from __future__ import annotations

import math
import random
import time

import pytest

from cartan_contact import corpus
from cartan_contact.cli import main as cli_main
from cartan_contact.forms import (
    Frame,
    VectorField,
    exterior_derivative,
    exterior_derivative2,
    commutator,
    dual_coframe,
    gram_schmidt,
    pairing_matrix,
    structure_coefficients,
)
from cartan_contact.reduction import (
    Distribution,
    HolonomicError,
    Point,
    absorb_translations,
    adapted_from_orthonormal,
    build_adapted,
    classify,
    compare,
    contact_torsion,
    default_grid_points,
    extract_invariants,
    normalize_scale,
    reduce,
)
from helpers import fd_partial, rand_points, rand_poly_vector, rand_smooth_field


GRID = default_grid_points()
INV_SQRT2 = 1.0 / math.sqrt(2.0)


def m_heisenberg(p) -> float:
    r = p.x * p.x + p.y * p.y
    return 2.25 * r * r / (1.0 + r) ** 4


def m_cartan(p) -> float:
    return 0.25 * (2.0 * p.y * p.y - 1.0) ** 2 / (1.0 + p.y * p.y) ** 4


def announce(number: int, ok: bool, description: str, detail: str = "") -> bool:
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    return ok


@pytest.fixture(scope="module")
def heisenberg():
    return corpus.distribution("heisenberg")


@pytest.fixture(scope="module")
def cartan():
    return corpus.distribution("cartan")


@pytest.fixture(scope="module")
def heisenberg_report(heisenberg):
    start = time.perf_counter()
    report = reduce(heisenberg, GRID)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def cartan_points():
    return GRID + [Point(0.0, INV_SQRT2, 0.3), Point(0.0, -INV_SQRT2, 0.3)]


@pytest.fixture(scope="module")
def cartan_report(cartan, cartan_points):
    return reduce(cartan, cartan_points)


@pytest.fixture(scope="module")
def stages(heisenberg, cartan):
    out = {}
    for dist in (heisenberg, cartan):
        b0 = build_adapted(dist)
        b1 = normalize_scale(b0)
        b2 = absorb_translations(b1)
        out[dist.name] = (b0, b1, b2)
    return out


def test_criterion_1_heisenberg_invariant_regression(heisenberg_report):
    report, elapsed = heisenberg_report
    worst = 0.0
    for s in report.ok_samples():
        want = m_heisenberg(s.point)
        err = abs(s.M - want)
        limit = 1e-9 if want == 0.0 else 1e-6 * abs(want)
        worst = max(worst, err / max(limit, 1e-300))
        assert err <= limit, f"M mismatch at {s.point}: {s.M} vs {want}"
    assert report.n_ok == 25
    ok = worst <= 1.0 and elapsed < 5.0
    announce(1, ok, "heisenberg M matches closed form on the 5x5 grid",
             f"worst error {worst:.2e} of budget, runtime {elapsed:.2f}s")
    assert elapsed < 5.0
    # the pinned reference value at (1, 0)
    at_ref = [s.M for s in report.ok_samples() if (s.point.x, s.point.y) == (1.0, 0.0)]
    assert at_ref and at_ref[0] == pytest.approx(0.140625, rel=1e-6)


def test_criterion_2_cartan_invariant_regression(cartan_report):
    report = cartan_report
    for s in report.ok_samples():
        want = m_cartan(s.point)
        limit = 1e-9 if want == 0.0 else 1e-6 * abs(want)
        # the closed form at y = 1/sqrt(2) is not exactly 0 in floats
        if abs(want) < 1e-9:
            limit = 1e-9
        assert abs(s.M - want) <= limit, f"M mismatch at {s.point}"
    by_point = {(s.point.x, s.point.y): s.M for s in report.ok_samples()}
    assert by_point[(0.0, 0.0)] == pytest.approx(0.25, rel=1e-6)
    assert abs(by_point[(0.0, INV_SQRT2)]) <= 1e-9
    assert abs(by_point[(0.0, -INV_SQRT2)]) <= 1e-9
    announce(2, True, "cartan M matches closed form incl. zeros at y = +/-1/sqrt(2)")


def test_criterion_3_contact_torsion_magnitudes(heisenberg, cartan, stages):
    failures, details = [], []
    for dist, want in ((heisenberg, 2.0), (cartan, 1.0)):
        name = dist.name
        # (a) the coframe dual to (X1, X2, d/dz) has t12 = -det3 = -want
        frame = Frame(dist.X1, dist.X2, VectorField(0, 0, 1))
        t12 = structure_coefficients(dual_coframe(frame), frame)[2][2]
        values = [t12.evaluate(p) for p in GRID]
        det3 = [r.det3 for r in classify(dist, GRID).records]
        # (b) the stage-B0 section has t12 = -1 by duality against e3 = [e1, e2]
        b0 = contact_torsion(stages[name][0]).t12
        b0_values = [b0.evaluate(p) for p in GRID]
        checks = (
            ("(X1, X2, d/dz) torsion spread", max(values) - min(values)),
            (f"|(X1, X2, d/dz) torsion| - {want:g}",
             max(abs(abs(v) - want) for v in values)),
            ("(X1, X2, d/dz) torsion + det3",
             max(abs(v + d) for v, d in zip(values, det3))),
            ("B0 torsion spread", max(b0_values) - min(b0_values)),
            ("B0 torsion + 1", max(abs(v + 1.0) for v in b0_values)),
        )
        failures += [f"{name}: {what} is {err:.3g}" for what, err in checks
                     if not err <= 1e-9]
        details.append(f"{name}: |T312| = {abs(values[0]):g} on (X1, X2, d/dz), "
                       f"B0 T312 = {b0_values[0]:g}")
    announce(3, not failures, "torsion magnitudes 2 and 1 on (X1, X2, d/dz), "
                              "equal to -det3; stage-B0 torsion -1",
             "; ".join(details))
    assert not failures, "; ".join(failures)


def test_criterion_4_holonomic_rejection(capsys):
    dist = corpus.distribution("exercise1a")
    cls = classify(dist, GRID)
    assert cls.kind == "holonomic"
    assert len(cls.records) == 25
    assert all(r.status == "holonomic" for r in cls.records)
    with pytest.raises(HolonomicError):
        reduce(dist, GRID)
    code = cli_main(["analyze", "exercise1a"])
    out = capsys.readouterr()
    assert code == 2 and "holonomic" in out.out + out.err
    announce(4, True, "holonomic generators rejected at all 25 grid points, exit 2")


def test_criterion_5_commutator_oracle(heisenberg, cartan):
    rng = random.Random(5)
    points = rand_points(rng, 10)
    worst = 0.0
    for dist, want in ((heisenberg, (0.0, 0.0, 2.0)), (cartan, (0.0, 0.0, 1.0))):
        bracket = commutator(dist.X1, dist.X2)
        for p in points:
            got = bracket.at(p)
            worst = max(worst, max(abs(g - w) for g, w in zip(got, want)))
            assert got == pytest.approx(want, abs=1e-12)
    announce(5, True, "commutators equal (0,0,2) and (0,0,1)",
             f"worst deviation {worst:.1e}")


def test_criterion_6_property_suite(stages):
    rng = random.Random(6)
    sample = rand_points(rng, 6)

    # d o d = 0 for every pipeline 1-form, both examples, all stages
    worst_dd = 0.0
    for name in ("heisenberg", "cartan"):
        for stage in stages[name]:
            for eta in stage.coframe.forms:
                dd = exterior_derivative2(exterior_derivative(eta))
                for p in sample:
                    worst_dd = max(worst_dd, abs(dd.evaluate(p)))
    assert worst_dd <= 1e-8, f"d o d residual {worst_dd:.2e}"

    # frame/coframe duality at every stage
    worst_dual = 0.0
    for name in ("heisenberg", "cartan"):
        for stage in stages[name]:
            pairing = pairing_matrix(stage.coframe, stage.frame)
            for p in sample:
                for i in range(3):
                    for j in range(3):
                        got = pairing[i][j].evaluate(p)
                        worst_dual = max(worst_dual, abs(got - (1.0 if i == j else 0.0)))
    assert worst_dual <= 1e-9, f"duality residual {worst_dual:.2e}"

    # symbolic vs finite-difference derivatives on 20 random smooth fields
    worst_fd = 0.0
    for _ in range(20):
        f = rand_smooth_field(rng)
        for p in rand_points(rng, 20):
            for k in range(3):
                sym = f.diff(k).evaluate(p)
                rel = abs(sym - fd_partial(f, p, k)) / max(1.0, abs(sym))
                worst_fd = max(worst_fd, rel)
    assert worst_fd <= 1e-5, f"finite-difference residual {worst_fd:.2e}"

    # Jacobi identity for random polynomial fields
    worst_jac = 0.0
    for _ in range(3):
        X, Y, Z = (rand_poly_vector(rng) for _ in range(3))
        total = (commutator(X, commutator(Y, Z))
                 + commutator(Y, commutator(Z, X))
                 + commutator(Z, commutator(X, Y)))
        for p in sample:
            worst_jac = max(worst_jac, max(abs(v) for v in total.at(p)))
    assert worst_jac <= 1e-8, f"Jacobi residual {worst_jac:.2e}"

    # Q1 - P2 residual at every ok point of both reductions
    worst_q = 0.0
    for name in ("heisenberg", "cartan"):
        inv = extract_invariants(stages[name][2])
        for p in GRID:
            worst_q = max(worst_q, abs(inv.q1_minus_p2.evaluate(p)))
    assert worst_q <= 1e-8, f"q1 - p2 residual {worst_q:.2e}"

    announce(6, True, "property suite (d o d, duality, finite differences, "
                      "Jacobi, q1 - p2)",
             f"residuals {worst_dd:.1e}/{worst_dual:.1e}/{worst_fd:.1e}/"
             f"{worst_jac:.1e}/{worst_q:.1e}")


def test_criterion_7_invariance_suite(heisenberg, heisenberg_report):
    rng = random.Random(7)
    base = {s.point: s.M for s in heisenberg_report[0].ok_samples()}

    worst_respan = 0.0
    for trial in range(10):
        while True:
            a, b, c, d = (rng.uniform(-2.0, 2.0) for _ in range(4))
            if a * d - b * c > 0.2:
                break
        respanned = Distribution(
            a * heisenberg.X1 + b * heisenberg.X2,
            c * heisenberg.X1 + d * heisenberg.X2,
            name=f"respan{trial}",
        )
        rep = reduce(respanned, GRID)
        for s in rep.ok_samples():
            want = base[s.point]
            rel = abs(s.M - want) / max(1.0, abs(want))
            worst_respan = max(worst_respan, rel)
            assert rel <= 1e-6, f"respan {trial} at {s.point}"

    worst_rot = 0.0
    e1, e2 = gram_schmidt(heisenberg.X1, heisenberg.X2)
    for theta in (0.7, 2.1):
        c, s = math.cos(theta), math.sin(theta)
        A = adapted_from_orthonormal(c * e1 + s * e2, (-s) * e1 + c * e2)
        inv = extract_invariants(absorb_translations(normalize_scale(A)))
        for point, want in base.items():
            rel = abs(inv.M.evaluate(point) - want) / max(1.0, abs(want))
            worst_rot = max(worst_rot, rel)
            assert rel <= 1e-6, f"rotation {theta} at {point}"

    announce(7, True, "M invariant under respans and constant frame rotations",
             f"worst rel deviation {max(worst_respan, worst_rot):.1e}")


def test_criterion_8_comparison_verdicts(heisenberg, cartan):
    distinguished = compare(heisenberg, cartan, GRID)
    assert distinguished.verdict == "distinguished"
    same = compare(heisenberg, heisenberg, GRID)
    assert same.verdict == "not distinguished by this test"
    announce(8, True, "compare(heisenberg, cartan) distinguished; "
                      "self-comparison not distinguished")
