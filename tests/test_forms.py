"""Exterior-calculus kernel: brackets, frames, duality, wedge, d."""
from __future__ import annotations

import operator

import numpy as np
import pytest

from cartan_contact.forms import (
    Coframe,
    Frame,
    OneForm,
    TwoForm,
    VectorField,
    apply_two_form,
    commutator,
    complete_frame,
    differential,
    dot,
    dual_coframe,
    exterior_derivative,
    exterior_derivative2,
    gram_schmidt,
    norm,
    pairing_matrix,
    structure_coefficients,
    triple_product,
    wedge,
)
from cartan_contact.scalarfield import Const, parse
from helpers import fd_commutator, rand_points, rand_poly_field, rand_poly_vector

ORIGIN = (0.0, 0.0, 0.0)

DX = OneForm(1, 0, 0)
DY = OneForm(0, 1, 0)
DZ = OneForm(0, 0, 1)
D_DX = VectorField(1, 0, 0)
D_DY = VectorField(0, 1, 0)
D_DZ = VectorField(0, 0, 1)


class TestCommutator:
    def test_heisenberg_generators(self, heisenberg, rng):
        br = commutator(heisenberg.X1, heisenberg.X2)
        for p in rand_points(rng, 10):
            got = br.at(p)
            assert got == pytest.approx((0.0, 0.0, 2.0), abs=1e-12)

    def test_cartan_generators(self, cartan, rng):
        br = commutator(cartan.X1, cartan.X2)
        for p in rand_points(rng, 10):
            assert br.at(p) == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)

    def test_coordinate_graph_pair_commutes(self, exercise1a, rng):
        br = commutator(exercise1a.X1, exercise1a.X2)
        for p in rand_points(rng, 5):
            assert br.at(p) == pytest.approx((0.0, 0.0, 0.0), abs=1e-14)

    def test_antisymmetry_with_self(self, rng):
        X = rand_poly_vector(rng)
        br = commutator(X, X)
        for p in rand_points(rng, 5):
            assert br.at(p) == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)

    def test_antisymmetry_pairwise(self, rng):
        X, Y = rand_poly_vector(rng), rand_poly_vector(rng)
        ab = commutator(X, Y)
        ba = commutator(Y, X)
        for p in rand_points(rng, 5):
            got, want = ab.at(p), ba.at(p)
            assert got == pytest.approx([-w for w in want], abs=1e-10)

    def test_bilinear_over_constants(self, rng):
        X, Y, Z = (rand_poly_vector(rng) for _ in range(3))
        lhs = commutator(2 * X + 3 * Y, Z)
        rhs_a, rhs_b = commutator(X, Z), commutator(Y, Z)
        for p in rand_points(rng, 5):
            want = [2 * a + 3 * b for a, b in zip(rhs_a.at(p), rhs_b.at(p))]
            assert lhs.at(p) == pytest.approx(want, abs=1e-9)

    def test_finite_difference_oracle(self, rng):
        X, Y = rand_poly_vector(rng), rand_poly_vector(rng)
        br = commutator(X, Y)
        for p in rand_points(rng, 5):
            fd = fd_commutator(X, Y, p)
            sym = br.at(p)
            for g, w in zip(sym, fd):
                assert abs(g - w) <= 1e-6 * max(1.0, abs(g))

    def test_jacobi_identity(self, rng):
        X, Y, Z = (rand_poly_vector(rng) for _ in range(3))
        total = (commutator(X, commutator(Y, Z))
                 + commutator(Y, commutator(Z, X))
                 + commutator(Z, commutator(X, Y)))
        for p in rand_points(rng, 5):
            assert total.at(p) == pytest.approx((0.0, 0.0, 0.0), abs=1e-8)


class TestGramSchmidt:
    def test_heisenberg_at_origin(self, heisenberg):
        e1, e2 = gram_schmidt(heisenberg.X1, heisenberg.X2)
        assert e1.at(ORIGIN) == pytest.approx((1, 0, 0), abs=1e-15)
        assert e2.at(ORIGIN) == pytest.approx((0, 1, 0), abs=1e-15)

    def test_heisenberg_first_leg_at_unit_y(self, heisenberg):
        e1, _ = gram_schmidt(heisenberg.X1, heisenberg.X2)
        s = 1.0 / 2.0 ** 0.5
        assert e1.at((0, 1, 0)) == pytest.approx((s, 0.0, -s), rel=1e-15)

    def test_axis_aligned(self):
        e1, e2 = gram_schmidt(VectorField(2, 0, 0), VectorField(1, 3, 0))
        assert e1.at(ORIGIN) == pytest.approx((1, 0, 0), abs=0)
        assert e2.at(ORIGIN) == pytest.approx((0, 1, 0), abs=0)

    def test_orthonormality(self, heisenberg, rng):
        e1, e2 = gram_schmidt(heisenberg.X1, heisenberg.X2)
        g11, g12, g22 = dot(e1, e1), dot(e1, e2), dot(e2, e2)
        for p in rand_points(rng, 10):
            assert abs(g11.evaluate(p) - 1) <= 1e-12
            assert abs(g22.evaluate(p) - 1) <= 1e-12
            assert abs(g12.evaluate(p)) <= 1e-12

    def test_span_and_orientation_preserved(self, heisenberg, rng):
        X1, X2 = heisenberg.X1, heisenberg.X2
        e1, e2 = gram_schmidt(X1, X2)
        # e1 ~ X1 up to positive scale; (e1, e2) and (X1, X2) same in-plane orientation
        pos = dot(e1, X1)
        cross_e = triple_product(e1, e2, commutator(X1, X2))
        cross_x = triple_product(X1, X2, commutator(X1, X2))
        for p in rand_points(rng, 5):
            assert pos.evaluate(p) > 0
            assert cross_e.evaluate(p) * cross_x.evaluate(p) > 0


class TestCompleteFrameAndDual:
    def test_heisenberg_third_leg_at_origin(self, heisenberg):
        e1, e2 = gram_schmidt(heisenberg.X1, heisenberg.X2)
        F = complete_frame(e1, e2)
        assert F.e3.at(ORIGIN) == pytest.approx((0.0, 0.0, 2.0), abs=1e-12)
        # independent finite-difference oracle for the completed leg
        fd = fd_commutator(e1, e2, ORIGIN)
        assert fd == pytest.approx((0.0, 0.0, 2.0), abs=1e-6)

    def test_commuting_pair_degenerates(self):
        F = complete_frame(D_DX, D_DY)  # built unchecked, with e3 = 0
        assert F.e3.at(ORIGIN) == (0.0, 0.0, 0.0)

    def test_cartan_determinant_magnitude_at_origin(self, cartan):
        e1, e2 = gram_schmidt(cartan.X1, cartan.X2)
        F = complete_frame(e1, e2)
        det = triple_product(*F.fields).evaluate(ORIGIN)
        oracle = np.linalg.det(np.array([e.at(ORIGIN) for e in F.fields]))
        assert abs(det) == pytest.approx(1.0, abs=1e-12)
        assert det == pytest.approx(oracle, rel=1e-12)

    def test_identity_frame_dualises_to_coordinate_coframe(self):
        C = dual_coframe(Frame(D_DX, D_DY, D_DZ))
        assert C.eta1.at(ORIGIN) == (1.0, 0.0, 0.0)
        assert C.eta2.at(ORIGIN) == (0.0, 1.0, 0.0)
        assert C.eta3.at(ORIGIN) == (0.0, 0.0, 1.0)

    def test_heisenberg_dual_at_origin(self, heisenberg):
        e1, e2 = gram_schmidt(heisenberg.X1, heisenberg.X2)
        F = complete_frame(e1, e2)
        C = dual_coframe(F)
        assert C.eta3.at(ORIGIN) == pytest.approx((0.0, 0.0, 0.5), abs=1e-12)

    def test_dual_matches_numpy_inverse(self, heisenberg, rng):
        e1, e2 = gram_schmidt(heisenberg.X1, heisenberg.X2)
        F = complete_frame(e1, e2)
        C = dual_coframe(F)
        for p in rand_points(rng, 5):
            E = np.array([e.at(p) for e in F.fields])
            H = np.array([eta.at(p) for eta in C.forms])
            assert H == pytest.approx(np.linalg.inv(E.T), rel=1e-9, abs=1e-9)

    def test_pairing_is_identity(self, heisenberg, rng):
        e1, e2 = gram_schmidt(heisenberg.X1, heisenberg.X2)
        F = complete_frame(e1, e2)
        C = dual_coframe(F)
        pairing = pairing_matrix(C, F)
        eye = np.eye(3)
        for p in rand_points(rng, 5):
            got = np.array([[f.evaluate(p) for f in row] for row in pairing])
            assert got == pytest.approx(eye, abs=1e-9)


class TestExteriorDerivative:
    def test_d_of_x_dy(self):
        d = exterior_derivative(OneForm(0, "x", 0))
        assert d.at(ORIGIN) == (0.0, 0.0, 1.0)

    def test_unnormalised_contact_form(self):
        # d(y dx - x dy + dz) = -2 dx^dy
        d = exterior_derivative(OneForm("y", "-x", 1))
        for p in [(0, 0, 0), (1, -2, 3)]:
            assert d.at(p) == (0.0, 0.0, -2.0)

    def test_dd_vanishes_on_random_polynomials(self, rng):
        for _ in range(5):
            omega = OneForm(*(rand_poly_field(rng) for _ in range(3)))
            dd = exterior_derivative2(exterior_derivative(omega))
            for p in rand_points(rng, 5):
                assert abs(dd(p)) <= 1e-8

    def test_leibniz_for_function_times_form(self, rng):
        f = rand_poly_field(rng)
        alpha = OneForm(*(rand_poly_field(rng) for _ in range(3)))
        lhs = exterior_derivative(alpha * f)
        df_wedge = wedge(differential(f), alpha)
        f_dalpha = exterior_derivative(alpha) * f
        for p in rand_points(rng, 5):
            want = [a + b for a, b in zip(df_wedge.at(p), f_dalpha.at(p))]
            assert lhs.at(p) == pytest.approx(want, abs=1e-9)


class TestWedge:
    def test_parallel_forms_vanish(self):
        w = wedge(DX, DX)
        assert w.at(ORIGIN) == (0.0, 0.0, 0.0)

    def test_dx_dy_is_third_basis_element(self):
        assert wedge(DX, DY).at(ORIGIN) == (0.0, 0.0, 1.0)

    def test_cyclic_orientation(self):
        vol = dot(TwoForm(1, 0, 0), DX)  # (dy^dz)^dx = +dx^dy^dz
        assert vol(ORIGIN) == 1.0

    def test_antisymmetry(self, rng):
        a = OneForm(*(rand_poly_field(rng) for _ in range(3)))
        b = OneForm(*(rand_poly_field(rng) for _ in range(3)))
        ab, ba = wedge(a, b), wedge(b, a)
        for p in rand_points(rng, 5):
            assert ab.at(p) == pytest.approx([-v for v in ba.at(p)], abs=1e-10)


class TestApplyTwoForm:
    def test_basis_pairing(self):
        w = wedge(DX, DY)
        assert apply_two_form(w, D_DX, D_DY).evaluate(ORIGIN) == 1.0

    def test_vanishes_on_repeated_argument(self, rng):
        w = TwoForm(*(rand_poly_field(rng) for _ in range(3)))
        X = rand_poly_vector(rng)
        v = apply_two_form(w, X, X)
        for p in rand_points(rng, 5):
            assert abs(v.evaluate(p)) <= 1e-10

    def test_bilinearity(self):
        w = wedge(DX, DY)
        combined = VectorField(1, 1, 0)  # d/dx + d/dy
        assert apply_two_form(w, combined, D_DY).evaluate(ORIGIN) == 1.0

    def test_matches_pairing_formula(self, rng):
        a = OneForm(*(rand_poly_field(rng) for _ in range(3)))
        b = OneForm(*(rand_poly_field(rng) for _ in range(3)))
        X, Y = rand_poly_vector(rng), rand_poly_vector(rng)
        lhs = apply_two_form(wedge(a, b), X, Y)
        rhs = dot(a, X) * dot(b, Y) - dot(a, Y) * dot(b, X)
        for p in rand_points(rng, 5):
            assert lhs.evaluate(p) == pytest.approx(rhs.evaluate(p), abs=1e-9)


class TestStructureCoefficients:
    def test_coordinate_coframe_is_flat(self):
        C = Coframe(DX, DY, DZ)
        F = Frame(D_DX, D_DY, D_DZ)
        for row in structure_coefficients(C, F):
            for c in row:
                assert isinstance(c, Const) and c.value == 0.0

    def test_reconstruction(self, heisenberg, rng):
        e1, e2 = gram_schmidt(heisenberg.X1, heisenberg.X2)
        F = complete_frame(e1, e2)
        C = dual_coframe(F)
        rows = structure_coefficients(C, F)
        basis = (wedge(C.eta2, C.eta3), wedge(C.eta3, C.eta1), wedge(C.eta1, C.eta2))
        for i, eta in enumerate(C.forms):
            d = exterior_derivative(eta)
            for p in rand_points(rng, 4):
                want = d.at(p)
                got = [0.0, 0.0, 0.0]
                for c, w in zip(rows[i], basis):
                    cv = c.evaluate(p)
                    for k, bv in enumerate(w.at(p)):
                        got[k] += cv * bv
                assert got == pytest.approx(want, abs=1e-9)

    def test_third_row_is_torsion_slice(self, cartan, rng):
        # the eta^1^eta^2 coefficient of d(eta^3) is -1 whenever the frame is
        # completed by the commutator: d(eta^3)(e1,e2) = -eta^3([e1,e2]) = -1
        e1, e2 = gram_schmidt(cartan.X1, cartan.X2)
        F = complete_frame(e1, e2)
        C = dual_coframe(F)
        rows = structure_coefficients(C, F)
        for p in rand_points(rng, 6):
            assert rows[2][2].evaluate(p) == pytest.approx(-1.0, abs=1e-9)


class TestScalarHelpers:
    def test_norm_matches_components(self, rng):
        X = rand_poly_vector(rng)
        n = norm(X)
        for p in rand_points(rng, 5):
            want = sum(c * c for c in X.at(p)) ** 0.5
            assert n.evaluate(p) == pytest.approx(want, rel=1e-12)

    def test_triple_product_matches_numpy(self, rng):
        X, Y, Z = (rand_poly_vector(rng) for _ in range(3))
        det = triple_product(X, Y, Z)
        for p in rand_points(rng, 5):
            want = np.linalg.det(np.array([X.at(p), Y.at(p), Z.at(p)]))
            assert det.evaluate(p) == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_component_counts_enforced(self):
        with pytest.raises(TypeError):
            VectorField(parse("1"), parse("2"))  # type: ignore[call-arg]

    @pytest.mark.parametrize("op", [operator.add, operator.sub])
    def test_vector_and_form_do_not_combine(self, op):
        with pytest.raises(TypeError):
            op(D_DX, DX)

    def test_three_form_single_coefficient(self):
        vol = dot(TwoForm("x", 0, 0), DX)
        assert vol((2, 0, 0)) == 2.0
