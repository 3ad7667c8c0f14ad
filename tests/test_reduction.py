"""Reduction pipeline: classification, stages, invariants, comparison."""
from __future__ import annotations

import math
import random

import numpy as np
import pytest

from cartan_contact.forms import (
    Coframe,
    Frame,
    OneForm,
    VectorField,
    exterior_derivative,
    gram_schmidt,
    pairing_matrix,
    wedge,
    wedge21,
)
from cartan_contact.reduction import (
    AdaptedCoframe,
    ConsistencyError,
    DegenerateInput,
    Distribution,
    HolonomicError,
    MixedTypeError,
    Point,
    absorb_translations,
    adapted_from_orthonormal,
    build_adapted,
    classify,
    compare,
    contact_torsion,
    default_grid_points,
    extract_invariants,
    grid_axis,
    normalize_scale,
    reduce,
)
from cartan_contact import corpus, reduction, replace
from cartan_contact.scalarfield import as_field
from helpers import rand_points, reachable

ORIGIN = Point(0.0, 0.0, 0.0)
THREE_POINTS = [Point(0.3, -0.2, 0.1), Point(0.5, 0.5, 0.2), Point(-0.7, 0.9, -0.4)]

M_HEISENBERG = lambda x, y, z: 2.25 * (x * x + y * y) ** 2 / (1 + x * x + y * y) ** 4
M_CARTAN = lambda x, y, z: 0.25 * (2 * y * y - 1) ** 2 / (1 + y * y) ** 4


def respan_pd(dist):
    """X1' = f X1 + g X2, X2' = h X1 + k X2 with point-dependent f, g, h, k."""
    f, g, h, k = (as_field(t) for t in ("1 + 0.3*x*y", "0.2*z", "-0.1*x^2", "1 - 0.2*y"))
    return Distribution(f * dist.X1 + g * dist.X2, h * dist.X1 + k * dist.X2, name="respan-pd")


def full_pipeline(dist):
    b0 = build_adapted(dist)
    b1 = normalize_scale(b0)
    b2 = absorb_translations(b1)
    return b0, b1, b2, extract_invariants(b2)


class TestGrid:
    def test_axis_expansion(self):
        assert grid_axis(-1.0, 1.0, 5) == [-1.0, -0.5, 0.0, 0.5, 1.0]
        assert grid_axis(0.3, 0.3, 1) == [0.3]
        assert grid_axis(2.0, 5.0, 2) == [2.0, 5.0]

    def test_axis_ends_at_hi(self):
        # lo + (n - 1) * step misses hi on many of these, e.g. (0.1, 1.0, 11)
        for lo, hi in ((0.1, 1.0), (-0.7, 0.3), (0.0, 0.9), (-1.0, 1e-3)):
            for n in range(2, 30):
                axis = grid_axis(lo, hi, n)
                assert (len(axis), axis[0], axis[-1]) == (n, lo, hi)

    def test_axis_needs_positive_count(self):
        with pytest.raises(ValueError):
            grid_axis(0.0, 1.0, 0)

    def test_default_grid_row_major(self):
        pts = default_grid_points()
        assert len(pts) == 25
        assert pts[0] == Point(-1.0, -1.0, 0.3)
        assert pts[1] == Point(-1.0, -0.5, 0.3)
        assert pts[5] == Point(-0.5, -1.0, 0.3)
        assert pts[-1] == Point(1.0, 1.0, 0.3)


class TestClassify:
    def test_heisenberg_contact_everywhere(self, heisenberg, grid):
        cls = classify(heisenberg, grid)
        assert cls.kind == "contact"
        for rec in cls.records:
            assert rec.status == "contact"
            assert rec.det3 == pytest.approx(2.0, abs=1e-12)

    def test_exercise1a_holonomic_everywhere(self, exercise1a, grid):
        cls = classify(exercise1a, grid)
        assert cls.kind == "holonomic"
        assert all(r.status == "holonomic" for r in cls.records)

    def test_cartan_contact(self, cartan, grid):
        cls = classify(cartan, grid)
        assert cls.kind == "contact"
        for rec in cls.records:
            assert rec.det3 == pytest.approx(1.0, abs=1e-12)

    def test_mixed_detected(self, mixed_distribution, grid):
        cls = classify(mixed_distribution, grid)
        assert cls.kind == "mixed"
        statuses = {r.point.x: r.status for r in cls.records}
        assert statuses[-0.5] == "holonomic"
        assert statuses[1.0] == "contact"

    def test_dependent_generators_rejected(self, grid):
        X = VectorField("1", "x", "0")
        dep = Distribution(X, 3 * X)
        with pytest.raises(DegenerateInput):
            classify(dep, grid)

    def test_empty_points_rejected(self, heisenberg):
        with pytest.raises(ValueError):
            classify(heisenberg, [])

    def test_undefined_points_do_not_flip_kind(self):
        # generator component 1/sqrt(1+x) is undefined on x = -1; the
        # classification is decided by the points where it is defined
        dist = Distribution(VectorField("1", "0", "-y/sqrt(1+x)"),
                            VectorField("0", "1", "x"))
        cls = classify(dist, default_grid_points())
        assert cls.kind == "contact"
        undefined = [r for r in cls.records if r.status == "undefined"]
        assert len(undefined) == 5  # the x = -1 row
        assert all(r.point.x == -1.0 for r in undefined)


class TestBuildAdapted:
    def test_heisenberg_origin_coframe(self, heisenberg):
        A = build_adapted(heisenberg)
        assert A.stage == "B0"
        assert A.coframe.eta1.at(ORIGIN) == pytest.approx((1, 0, 0), abs=1e-12)
        assert A.coframe.eta2.at(ORIGIN) == pytest.approx((0, 1, 0), abs=1e-12)
        assert A.coframe.eta3.at(ORIGIN) == pytest.approx((0, 0, 0.5), abs=1e-12)

    def test_b0_invariants_hold(self, heisenberg, rng):
        A = build_adapted(heisenberg)
        eta3 = A.coframe.eta3
        ann1, ann2 = eta3(heisenberg.X1), eta3(heisenberg.X2)
        # metric condition: <W, W> = eta1(W)^2 + eta2(W)^2 for W in the plane
        w_coef = [rng.uniform(-2, 2) for _ in range(2)]
        W = w_coef[0] * heisenberg.X1 + w_coef[1] * heisenberg.X2
        lhs = sum(c * c for c in W.components)
        e1w, e2w = A.coframe.eta1(W), A.coframe.eta2(W)
        rhs = e1w * e1w + e2w * e2w
        for p in rand_points(rng, 10):
            assert abs(ann1.evaluate(p)) <= 1e-9
            assert abs(ann2.evaluate(p)) <= 1e-9
            assert lhs.evaluate(p) == pytest.approx(rhs.evaluate(p), rel=1e-9)

    def test_cartan_annihilator_direction(self, cartan, rng):
        # the annihilator of span{(1,0,-y), (0,1,0)} is proportional to y dx + dz
        A = build_adapted(cartan)
        cx, cy, cz = A.coframe.eta3.components
        for p in rand_points(rng, 10):
            y = p[1]
            vx, vy, vz = cx.evaluate(p), cy.evaluate(p), cz.evaluate(p)
            assert abs(vy) <= 1e-9
            assert vx == pytest.approx(y * vz, abs=1e-9)

    @pytest.mark.parametrize("case, points, expected", [
        ("heisenberg", None, None),
        ("cartan", None, None),
        ("exercise1a", None, HolonomicError),
        ("mixed_distribution", None, MixedTypeError),
        (Distribution(VectorField("1", "x", "0"), VectorField("3", "3*x", "0")),
         None, DegenerateInput),
        (Distribution(VectorField("x", "0", "0"), VectorField("0", "1", "0")),
         [ORIGIN], DegenerateInput),
        (Distribution(VectorField("1", "0", "-y/sqrt(1+x)"), VectorField("0", "1", "x")),
         None, None),
    ], ids=["heisenberg", "cartan", "exercise1a", "mixed", "dependent",
            "vanishing-first", "undefined-row"])
    def test_accepts_what_reduce_accepts(self, case, points, expected, request):
        # reduce is the one gate; build_adapted verifies nothing
        dist = request.getfixturevalue(case) if isinstance(case, str) else case
        points = default_grid_points() if points is None else points
        assert build_adapted(dist).stage == "B0"
        try:
            reduce(dist, points)
            outcome = None
        except Exception as exc:
            outcome = type(exc)
        assert outcome is expected

    def test_duality_after_build(self, cartan, rng):
        A = build_adapted(cartan)
        pairing = pairing_matrix(A.coframe, A.frame)
        for p in rand_points(rng, 5):
            got = np.array([[f.evaluate(p) for f in row] for row in pairing])
            assert got == pytest.approx(np.eye(3), abs=1e-9)


class TestContactTorsion:
    def test_heisenberg_b0_values(self, heisenberg, grid):
        A = build_adapted(heisenberg)
        t = contact_torsion(A)
        for p in grid:
            assert abs(t.t12.evaluate(p)) == pytest.approx(1.0, abs=1e-9)
            assert t.t12.evaluate(p) == pytest.approx(-1.0, abs=1e-9)

    def test_cartan_b0_magnitude_one(self, cartan, grid):
        A = build_adapted(cartan)
        t = contact_torsion(A)
        for p in grid:
            assert abs(t.t12.evaluate(p)) == pytest.approx(1.0, abs=1e-9)

    def test_wedge_identity(self, heisenberg, rng):
        # d(eta3) ^ eta3 = t12 * eta1^eta2^eta3
        A = build_adapted(heisenberg)
        t12 = contact_torsion(A).t12
        d3 = exterior_derivative(A.coframe.eta3)
        lhs = wedge21(d3, A.coframe.eta3)
        vol = wedge21(wedge(A.coframe.eta1, A.coframe.eta2), A.coframe.eta3)
        for p in rand_points(rng, 6):
            assert lhs(p) == pytest.approx(t12.evaluate(p) * vol(p), rel=1e-9)

    def test_closed_coframe_has_zero_torsion(self):
        A = AdaptedCoframe(
            Coframe(OneForm(1, 0, 0), OneForm(0, 1, 0), OneForm(0, 0, 1)),
            Frame(VectorField(1, 0, 0), VectorField(0, 1, 0), VectorField(0, 0, 1)),
            "B0",
        )
        t = contact_torsion(A)
        for f in (t.t23, t.t31, t.t12):
            assert f.evaluate(ORIGIN) == 0.0


def _shear_coframe():
    """Hand-built contact-like pair with literal unit torsion: eta3 = x dy + dz."""
    coframe = Coframe(OneForm(1, 0, 0), OneForm(0, 1, 0), OneForm(0, "x", 1))
    frame = Frame(VectorField(1, 0, 0), VectorField(0, 1, "-x"), VectorField(0, 0, 1))
    return AdaptedCoframe(coframe, frame, "B0")


class TestNormalizeScale:
    def test_heisenberg_unit_torsion_after(self, heisenberg, rng):
        A = build_adapted(heisenberg)
        B = normalize_scale(A)
        assert B.stage == "B1"
        c312 = contact_torsion(B).t12
        for p in rand_points(rng, 10):
            assert c312.evaluate(p) == pytest.approx(1.0, abs=1e-9)

    def test_cartan_unit_torsion_after(self, cartan, rng):
        B = normalize_scale(build_adapted(cartan))
        c312 = contact_torsion(B).t12
        for p in rand_points(rng, 10):
            assert c312.evaluate(p) == pytest.approx(1.0, abs=1e-9)

    def test_duality_preserved(self, heisenberg, rng):
        B = normalize_scale(build_adapted(heisenberg))
        pairing = pairing_matrix(B.coframe, B.frame)
        for p in rand_points(rng, 5):
            got = np.array([[f.evaluate(p) for f in row] for row in pairing])
            assert got == pytest.approx(np.eye(3), abs=1e-9)

    def test_already_normalised_is_fixed_point(self):
        A = _shear_coframe()
        assert contact_torsion(A).t12.evaluate(ORIGIN) == 1.0
        B = normalize_scale(A)
        for old, new in zip(A.coframe.eta3.components, B.coframe.eta3.components):
            assert old is new
        for old, new in zip(A.frame.e3.components, B.frame.e3.components):
            assert old is new

    def test_stage_guard(self, heisenberg):
        A = build_adapted(heisenberg)
        B = normalize_scale(A)
        with pytest.raises(ValueError):
            normalize_scale(B)


class TestAbsorbTranslations:
    def test_post_state_is_canonical(self, heisenberg, rng):
        _, _, b2, _ = full_pipeline(heisenberg)
        assert b2.stage == "B2"
        t = contact_torsion(b2)
        for p in rand_points(rng, 10):
            assert abs(t.t23.evaluate(p)) <= 1e-8
            assert abs(t.t31.evaluate(p)) <= 1e-8
            assert t.t12.evaluate(p) == pytest.approx(1.0, abs=1e-9)

    def test_cartan_post_state(self, cartan, rng):
        _, _, b2, _ = full_pipeline(cartan)
        t = contact_torsion(b2)
        for p in rand_points(rng, 10):
            assert abs(t.t23.evaluate(p)) <= 1e-8
            assert abs(t.t31.evaluate(p)) <= 1e-8
            assert t.t12.evaluate(p) == pytest.approx(1.0, abs=1e-9)

    def test_duality_preserved(self, cartan, rng):
        _, _, b2, _ = full_pipeline(cartan)
        pairing = pairing_matrix(b2.coframe, b2.frame)
        for p in rand_points(rng, 5):
            got = np.array([[f.evaluate(p) for f in row] for row in pairing])
            assert got == pytest.approx(np.eye(3), abs=1e-9)

    def test_translation_free_input_is_fixed_point(self):
        A = _shear_coframe()
        B1 = normalize_scale(A)
        t = contact_torsion(B1)
        assert t.t23.evaluate(ORIGIN) == 0.0 and t.t31.evaluate(ORIGIN) == 0.0
        B2 = absorb_translations(B1)
        for old, new in zip(B1.coframe.eta1.components, B2.coframe.eta1.components):
            assert old is new
        for old, new in zip(B1.coframe.eta2.components, B2.coframe.eta2.components):
            assert old is new

    def test_stage_guard(self, heisenberg):
        A = build_adapted(heisenberg)
        with pytest.raises(ValueError):
            absorb_translations(A)


class TestExtractInvariants:
    def test_stage_guard(self, heisenberg):
        b0 = build_adapted(heisenberg)
        with pytest.raises(ValueError):
            extract_invariants(b0)

    def test_heisenberg_reference_point(self, heisenberg):
        *_, inv = full_pipeline(heisenberg)
        assert inv.M.evaluate((1, 0, 0.3)) == pytest.approx(9 / 64, rel=1e-6)

    def test_heisenberg_vanishes_on_axis(self, heisenberg):
        *_, inv = full_pipeline(heisenberg)
        for z in (-2.0, 0.0, 0.3, 5.0):
            assert abs(inv.M.evaluate((0, 0, z))) <= 1e-9

    def test_cartan_reference_point(self, cartan):
        *_, inv = full_pipeline(cartan)
        assert inv.M.evaluate((0.2, 0, -1)) == pytest.approx(0.25, rel=1e-6)

    def test_m_is_sum_of_squares(self, heisenberg, rng):
        *_, inv = full_pipeline(heisenberg)
        for p in rand_points(rng, 10):
            a1, a2, m = inv.a1.evaluate(p), inv.a2.evaluate(p), inv.M.evaluate(p)
            assert m >= 0.0
            assert m == pytest.approx(a1 * a1 + a2 * a2, abs=1e-12)

    def test_exactness_residuals(self, heisenberg, rng):
        *_, inv = full_pipeline(heisenberg)
        for p in rand_points(rng, 10):
            assert abs(inv.q1_minus_p2.evaluate(p)) <= 1e-8
            assert abs(inv.dd_eta3.evaluate(p)) <= 1e-8

    @pytest.mark.parametrize("name", ["heisenberg", "cartan"])
    def test_final_structure_equations_reconstruct(self, name, request, rng):
        # with alpha = A1 eta1 + A2 eta2 + A3 eta3:
        #   d eta1 = alpha^eta2 + a1 eta2^eta3 + a2 eta3^eta1
        #   d eta2 = -alpha^eta1 + a2 eta2^eta3 - a1 eta3^eta1
        dist = request.getfixturevalue(name)
        _, _, b2, inv = full_pipeline(dist)
        eta1, eta2, eta3 = b2.coframe.forms
        alpha = OneForm(*(
            inv.A1 * c1 + inv.A2 * c2 + inv.A3 * c3
            for c1, c2, c3 in zip(eta1.components, eta2.components, eta3.components)
        ))
        w23, w31 = wedge(eta2, eta3), wedge(eta3, eta1)
        d1 = exterior_derivative(eta1)
        d2 = exterior_derivative(eta2)
        r1 = wedge(alpha, eta2) + w23 * inv.a1 + w31 * inv.a2 - d1
        r2 = (-1) * wedge(alpha, eta1) + w23 * inv.a2 - w31 * inv.a1 - d2
        for p in rand_points(rng, 6):
            assert r1.at(p) == pytest.approx((0, 0, 0), abs=1e-8)
            assert r2.at(p) == pytest.approx((0, 0, 0), abs=1e-8)


class TestReduce:
    def test_heisenberg_grid_regression(self, heisenberg, grid):
        rep = reduce(heisenberg, grid)
        assert rep.classification.kind == "contact"
        assert rep.n_ok == 25
        for s in rep.ok_samples():
            want = M_HEISENBERG(s.point.x, s.point.y, s.point.z)
            tol = max(1e-6 * abs(want), 1e-9)
            assert abs(s.M - want) <= tol

    def test_cartan_grid_regression(self, cartan, grid):
        rep = reduce(cartan, grid)
        for s in rep.ok_samples():
            want = M_CARTAN(s.point.x, s.point.y, s.point.z)
            assert abs(s.M - want) <= max(1e-6 * abs(want), 1e-9)

    def test_holonomic_raises(self, exercise1a, grid):
        with pytest.raises(HolonomicError) as err:
            reduce(exercise1a, grid)
        assert "holonomic" in str(err.value)
        assert err.value.classification.kind == "holonomic"
        # a one-shot iterator is classified like a list, not taken as empty
        with pytest.raises(HolonomicError, match="planes integrate"):
            reduce(exercise1a, iter(default_grid_points()))

    def test_mixed_raises(self, mixed_distribution, grid):
        with pytest.raises(MixedTypeError):
            reduce(mixed_distribution, grid)

    def test_singular_points_excluded(self):
        dist = Distribution(VectorField("1", "0", "-y*sqrt(1+x)"),
                            VectorField("0", "1", "x"))
        rep = reduce(dist, default_grid_points())
        assert rep.n_ok == 20
        assert rep.n_singular == 5
        singular = [s for s in rep.samples if s.status == "singular"]
        assert all(s.point.x == -1.0 for s in singular)
        assert all(s.M is None for s in singular)

    def test_no_ok_point_has_no_m_range(self):
        dist = Distribution(VectorField("1", "0", "-y*sqrt(1+x)"),
                            VectorField("0", "1", "x"))
        rep = reduce(dist, [Point(-1.0, 0.0, 0.3), Point(-1.0, 0.5, 0.3)])
        assert rep.n_ok == 0 and rep.m_range() is None

    def test_sample_records_carry_diagnostics(self, heisenberg, grid):
        rep = reduce(heisenberg, grid)
        s = rep.samples[0]
        assert s.det3 == pytest.approx(2.0, abs=1e-12)
        assert s.T312 == pytest.approx(-1.0, abs=1e-9)
        assert abs(s.dd_eta3) <= 1e-8
        assert abs(s.q1_minus_p2) <= 1e-8

    def test_point_coercion(self, heisenberg):
        rep = reduce(heisenberg, [(1.0, 0.0, 0.3)])
        assert rep.samples[0].point == Point(1.0, 0.0, 0.3)
        assert rep.samples[0].M == pytest.approx(9 / 64, rel=1e-6)

    def test_near_holonomic_band(self):
        # det3 = 3e8 everywhere, but |[X1, X2]| grows with x: |det3| / scale
        # is 1, 3.3e-9 and 3.3e-7, all above classify's 1e-9, and only
        # (1, 0, 0) is at or below reduce's per-point 1e-8
        dist = Distribution.from_components(("1", "0", "0"), ("0", "1", "300000000*x"))
        points = [Point(0.0, 0.0, 0.0), Point(1.0, 0.0, 0.0), Point(0.01, 0.0, 0.0)]
        cls = classify(dist, points)
        assert [r.status for r in cls.records] == ["contact"] * 3
        ratios = [abs(r.det3) / r.scale for r in cls.records]
        assert ratios == pytest.approx([1.0, 1 / 3 * 1e-8, 1 / 3 * 1e-6], rel=1e-6)
        rep = reduce(dist, points)
        assert [s.status for s in rep.samples] == ["ok", "holonomic-at-point", "ok"]
        band = rep.samples[1]
        assert band.det3 == pytest.approx(3e8, rel=1e-12)
        assert band.T312 is None and band.M is None

    def test_broken_identity_raises_consistency(self, heisenberg, monkeypatch):
        build = reduction._frame_invariants
        broken = lambda D: replace(build(D), q1_minus_p2=as_field(1))
        monkeypatch.setattr(reduction, "_frame_invariants", broken)
        with pytest.raises(ConsistencyError):
            reduce(heisenberg, [(1.0, 0.0, 0.3)])

    def test_singular_record_carries_t312_when_evaluated(self):
        # the derivatives of sqrt(x) overflow near x = 0: at 1e-100 only the
        # outputs, which take one derivative more than T312, overflow; at
        # 1e-250 T312 overflows too
        dist = Distribution.from_components(("1", "0", "-y"), ("0", "1", "sqrt(x)"))
        rep = reduce(dist, [(1.0, 0.0, 0.0), (1e-100, 0.0, 0.0), (1e-250, 0.0, 0.0)])
        assert [s.status for s in rep.samples] == ["ok", "singular", "singular"]
        assert rep.samples[1].T312 == pytest.approx(-1.0, abs=1e-9)
        assert rep.samples[2].T312 is None
        for s in rep.samples[1:]:
            assert s.det3 is not None
            assert (s.a1, s.a2, s.M, s.dd_eta3, s.q1_minus_p2) == (None,) * 5


class TestUnitTorsionIdentity:
    """reduce applies t12 = -1 exactly instead of dividing by the symbolic
    t12, and evaluates each point's outputs over one shared memo."""

    RESPAN = (1.3, -0.4, 0.5, 1.1)

    def cases(self):
        heisenberg = corpus.distribution("heisenberg")
        a, b, c, d = self.RESPAN
        respan = Distribution(a * heisenberg.X1 + b * heisenberg.X2,
                              c * heisenberg.X1 + d * heisenberg.X2, name="respan")
        return [heisenberg, corpus.distribution("cartan"), respan]

    # ids without the bound, so lowering a bound does not rename the test
    @pytest.mark.parametrize("name, bound", [("heisenberg", 361), ("cartan", 61)],
                             ids=["heisenberg", "cartan"])
    def test_m_node_count_bound(self, name, bound):
        # dividing by t12 gave 7923 (heisenberg) and 681 (cartan) nodes,
        # applying t12 = -1 before interning 1936 and 262, interning with a
        # twin per sqrt derivative 1551 (heisenberg), and the coordinate
        # coframe with one twin per node 1527 and 218
        rep = reduce(corpus.distribution(name), [ORIGIN])
        assert len(reachable(rep.M)) <= bound

    # distinct nodes of each output and of their union, as counted when these
    # bounds were set; a change may lower them, never raise them
    NODE_BOUNDS = {
        "heisenberg": {"t12": 1, "a1": 348, "a2": 190, "M": 361,
                       "dd_eta3": 1, "q1_minus_p2": 252, "union": 383},
        "cartan": {"t12": 1, "a1": 60, "a2": 1, "M": 61,
                   "dd_eta3": 1, "q1_minus_p2": 1, "union": 63},
        "respan": {"t12": 1, "a1": 654, "a2": 586, "M": 669,
                   "dd_eta3": 1, "q1_minus_p2": 644, "union": 682},
    }

    @pytest.mark.parametrize("name", list(NODE_BOUNDS))
    def test_output_node_count_bounds(self, name):
        dist = next(d for d in self.cases() if d.name == name)
        rep = reduce(dist, [ORIGIN])
        outputs = {"t12": rep.T312, "a1": rep.a1, "a2": rep.a2, "M": rep.M,
                   "dd_eta3": rep.dd_eta3, "q1_minus_p2": rep.q1_minus_p2}
        counts = {key: len(reachable(f)) for key, f in outputs.items()}
        counts["union"] = len(reachable(*outputs.values()))
        over = {key: (n, self.NODE_BOUNDS[name][key]) for key, n in counts.items()
                if n > self.NODE_BOUNDS[name][key]}
        assert not over, over

    def test_t312_is_minus_one_at_ok_points(self, grid):
        for dist in self.cases():
            rep = reduce(dist, grid)
            assert rep.n_ok == len(grid)
            for s in rep.ok_samples():
                assert abs(s.T312 + 1.0) <= 1e-9, (dist.name, s.point)

    def test_t312_is_the_generator_frame_t12(self, heisenberg, grid):
        # T312 is t12 of the section the outputs reduce on, (X1, X2, [X1, X2])
        # and its dual coframe, bit for bit; where the generators' brackets
        # are constant it folds to -1, so respan-pd is the case that shows it
        dist = respan_pd(heisenberg)
        t12 = contact_torsion(adapted_from_orthonormal(dist.X1, dist.X2)).t12
        rep = reduce(dist, THREE_POINTS + grid)
        assert rep.n_ok == len(THREE_POINTS + grid)
        for s in rep.ok_samples():
            assert s.T312.hex() == t12.evaluate(s.point).hex(), s.point

    def test_m_matches_division_by_t12(self, grid):
        # full_pipeline derives the outputs from the coordinate coframe, reduce
        # from the generator frame's structure functions: a second derivation.
        # Both sections share the frame (e1, e2), so a1 and a2 compare too.
        for dist in self.cases():
            coordinate = full_pipeline(dist)[3]
            rep = reduce(dist, grid)
            for s in rep.ok_samples():
                memo = {}
                want = coordinate.M.evaluate(s.point, memo)
                # the floor covers round-off where M vanishes (the z-axis)
                assert abs(s.M - want) <= max(1e-12 * abs(want), 1e-15), (dist.name, s.point)
                for key in ("a1", "a2", "A1", "A2", "A3"):
                    got = getattr(rep, key).evaluate(s.point)
                    want = getattr(coordinate, key).evaluate(s.point, memo)
                    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (dist.name, key, s.point)
                assert abs(s.dd_eta3) <= 1e-12 and abs(s.q1_minus_p2) <= 1e-12, (dist.name, s.point)

    def test_shared_memo_is_bit_identical(self, grid):
        for dist in self.cases():
            rep = reduce(dist, grid)
            outputs = (rep.T312, rep.a1, rep.a2, rep.M, rep.dd_eta3, rep.q1_minus_p2)
            for s in rep.samples:
                memo = {}
                shared = [f.evaluate(s.point, memo) for f in outputs]
                fresh = [f.evaluate(s.point) for f in outputs]
                assert shared == fresh
                assert [s.T312, s.a1, s.a2, s.M, s.dd_eta3, s.q1_minus_p2] == fresh


class TestInvariance:
    def test_respan_invariance(self, heisenberg, grid):
        rng = random.Random(7)
        base = reduce(heisenberg, grid)
        base_m = {s.point: s.M for s in base.ok_samples()}
        for trial in range(10):
            while True:
                a, b, c, d = (rng.uniform(-2, 2) for _ in range(4))
                if a * d - b * c > 0.2:
                    break
            respanned = Distribution(
                a * heisenberg.X1 + b * heisenberg.X2,
                c * heisenberg.X1 + d * heisenberg.X2,
                name=f"respan-{trial}",
            )
            rep = reduce(respanned, grid)
            for s in rep.ok_samples():
                want = base_m[s.point]
                assert abs(s.M - want) <= 1e-6 * max(1.0, abs(want)), (
                    f"respan {trial} at {s.point}")

    def test_rotation_invariance(self, heisenberg, grid):
        rng = random.Random(11)
        base = reduce(heisenberg, grid)
        base_m = {s.point: s.M for s in base.ok_samples()}
        e1, e2 = gram_schmidt(heisenberg.X1, heisenberg.X2)
        for _ in range(3):
            theta = rng.uniform(0.1, 3.0)
            c, s = math.cos(theta), math.sin(theta)
            r1 = c * e1 + s * e2
            r2 = (-s) * e1 + c * e2
            A = adapted_from_orthonormal(r1, r2)
            inv = extract_invariants(absorb_translations(normalize_scale(A)))
            for point, want in base_m.items():
                got = inv.M.evaluate(point)
                assert abs(got - want) <= 1e-6 * max(1.0, abs(want))

    @staticmethod
    def assert_same_m(got, want):
        assert [s.status for s in got.samples] == ["ok"] * len(got.samples)
        assert [s.status for s in want.samples] == ["ok"] * len(want.samples)
        for s, w in zip(got.samples, want.samples):
            assert abs(s.M - w.M) <= 1e-12 * max(1.0, abs(w.M)), (s.point, w.point)

    def test_point_dependent_respan_invariance(self, heisenberg):
        self.assert_same_m(reduce(respan_pd(heisenberg), THREE_POINTS),
                           reduce(heisenberg, THREE_POINTS))

    def test_rigid_motion_invariance(self, heisenberg):
        # phi(p) = R p + s pushes X forward to X'(q) = R X(R^T (q - s)), so
        # M' at phi(p) equals M at p
        # Rodrigues: R = I + sin(t) K + (1 - cos(t)) K^2, K the cross-product
        # matrix of the unit axis along (1, 2, 3), t = 0.7
        n = math.sqrt(14.0)
        k1, k2, k3 = 1 / n, 2 / n, 3 / n
        K = ((0.0, -k3, k2), (k3, 0.0, -k1), (-k2, k1, 0.0))
        sin, cos = math.sin(0.7), math.cos(0.7)
        R = [[(i == j) + sin * K[i][j] + (1 - cos) * sum(K[i][m] * K[m][j] for m in range(3))
              for j in range(3)] for i in range(3)]
        shift = (0.2, -0.1, 0.4)
        q = [as_field(c) for c in "xyz"]
        u = [sum((R[i][j] * (q[i] - shift[i]) for i in range(3)), as_field(0)) for j in range(3)]
        # heisenberg's generators (1, 0, -y) and (0, 1, x), at u = R^T (q - s)
        X1, X2 = (1, 0, -u[1]), (0, 1, u[0])

        def push(X):
            return VectorField(*(sum((R[i][j] * X[j] for j in range(3)), as_field(0))
                                 for i in range(3)))

        moved = Distribution(push(X1), push(X2), name="motion")
        images = [Point(*(sum(R[i][j] * c for j, c in enumerate(p)) + shift[i] for i in range(3)))
                  for p in THREE_POINTS]
        self.assert_same_m(reduce(moved, images), reduce(heisenberg, THREE_POINTS))


class TestCompare:
    def test_heisenberg_vs_cartan_distinguished(self, heisenberg, cartan, grid):
        result = compare(heisenberg, cartan, grid)
        assert result.verdict == "distinguished"
        # frozen from exhaustive evaluation of the two closed forms on the grid
        assert result.report_a.m_range() == pytest.approx((0.0, 9 / 64), abs=1e-9)
        assert result.report_b.m_range() == pytest.approx((1 / 64, 0.25), abs=1e-9)

    def test_self_comparison_not_distinguished(self, heisenberg, grid):
        result = compare(heisenberg, heisenberg, grid)
        assert result.verdict == "not distinguished by this test"

    def test_respanned_not_distinguished(self, heisenberg, grid):
        respanned = Distribution(heisenberg.X1 + heisenberg.X2, heisenberg.X2,
                                 name="respanned")
        result = compare(heisenberg, respanned, grid)
        assert result.verdict == "not distinguished by this test"
        base = {s.point: s.M for s in result.report_a.ok_samples()}
        for s in result.report_b.ok_samples():
            assert abs(s.M - base[s.point]) <= 1e-6 * max(1.0, abs(base[s.point]))

    def test_identity_tol_reaches_both_sides(self, heisenberg, cartan, grid):
        result = compare(heisenberg, cartan, grid, identity_tol=1e-30)
        for report, dist in ((result.report_a, heisenberg), (result.report_b, cartan)):
            alone = reduce(dist, grid, identity_tol=1e-30)
            assert [s.status for s in report.samples] == [s.status for s in alone.samples]
        assert result.report_a.n_ok < len(grid)

    def test_zero_invariant_distinguishes(self, heisenberg):
        # along the z-axis the Heisenberg invariant vanishes identically while
        # the Cartan one does not: the zero clause fires even though the value
        # sets intersect at 0 is impossible here (ranges would both hold 0)
        axis_points = [Point(0.0, 0.0, z) for z in (-1.0, 0.0, 1.0)]
        cartan_like = Distribution(VectorField("1", "0", "-y"), VectorField("0", "1", "0"))
        result = compare(heisenberg, cartan_like, axis_points)
        assert result.verdict == "distinguished"


class TestPackage:
    def test_every_public_name_is_reexported(self):
        import cartan_contact
        from cartan_contact import forms, scalarfield
        for module in (scalarfield, forms, reduction):
            for name in module.__all__:
                assert getattr(cartan_contact, name) is getattr(module, name), name

    def test_unknown_builtin(self):
        with pytest.raises(KeyError, match="unknown builtin 'nope'; available: heisenberg"):
            corpus.get("nope")
