"""Exterior calculus on R^3 with symbolic coefficient fields.

Vector fields and differential forms carry :class:`~cartan_contact.scalarfield.ScalarField`
coefficients in the coordinate bases:

* vector fields in (d/dx, d/dy, d/dz),
* 1-forms in (dx, dy, dz),
* 2-forms in the cyclic basis (dy^dz, dz^dx, dx^dy),
* 3-forms as their dx^dy^dz coefficient, a plain ScalarField.

The cyclic order is fixed once, in the cross product ``_cross`` behind
:func:`triple_product`, the dual coframe, :func:`wedge` and
:func:`apply_two_form`.

All objects are immutable and all operations are pure; coefficients are never
canonicalised symbolically, so identities (d o d = 0, duality, Leibniz) are
checked numerically at sample points.
"""
from __future__ import annotations

from ._record import Record
from .scalarfield import ScalarField, as_field, sqrt

__all__ = [
    "VectorField",
    "OneForm",
    "TwoForm",
    "Frame",
    "Coframe",
    "commutator",
    "dot",
    "norm",
    "gram_schmidt",
    "complete_frame",
    "dual_coframe",
    "differential",
    "exterior_derivative",
    "exterior_derivative2",
    "wedge",
    "apply_two_form",
    "structure_coefficients",
    "pairing_matrix",
    "triple_product",
]

_AXES = ("x", "y", "z")


class _Triple:
    """Shared plumbing for the three-component geometric objects."""

    __slots__ = ("components",)

    def __init__(self, c1, c2, c3) -> None:
        self.components = (as_field(c1), as_field(c2), as_field(c3))

    def at(self, point) -> tuple[float, float, float]:
        """Evaluate all components at a point."""
        return tuple(c.evaluate(point) for c in self.components)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(*(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(*(a - b for a, b in zip(self.components, other.components)))

    def __mul__(self, scalar):
        f = as_field(scalar)
        return type(self)(*(c * f for c in self.components))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        f = as_field(scalar)
        return type(self)(*(c / f for c in self.components))

    def __repr__(self):
        inner = ", ".join(c._short_text(limit=24) for c in self.components)
        return f"{type(self).__name__}({inner})"


class VectorField(_Triple):
    """Vector field with components in the coordinate frame (d/dx, d/dy, d/dz)."""

    __slots__ = ()


class OneForm(_Triple):
    """1-form with coefficients of (dx, dy, dz)."""

    __slots__ = ()


class TwoForm(_Triple):
    """2-form with coefficients of the cyclic basis (dy^dz, dz^dx, dx^dy)."""

    __slots__ = ()


def dot(X: VectorField, Y: VectorField) -> ScalarField:
    """Ambient Euclidean scalar product: the componentwise pairing of two triples."""
    u, v, w = X.components
    a, b, c = Y.components
    return u * a + v * b + w * c


def norm(X: VectorField) -> ScalarField:
    return sqrt(dot(X, X))


def _cross(X, Y, kind=VectorField):
    """X x Y as a ``kind`` triple, in the cyclic order (23, 31, 12)."""
    x1, x2, x3 = X.components
    y1, y2, y3 = Y.components
    return kind(x2 * y3 - x3 * y2, x3 * y1 - x1 * y3, x1 * y2 - x2 * y1)


def triple_product(X: VectorField, Y: VectorField, Z: VectorField) -> ScalarField:
    """det of the 3x3 component matrix with rows X, Y, Z: X . (Y x Z)."""
    return dot(X, _cross(Y, Z))


def commutator(X: VectorField, Y: VectorField) -> VectorField:
    """Lie bracket [X, Y]^i = X^s dY^i/dx^s - Y^s dX^i/dx^s."""
    out = []
    for i in range(3):
        yi = Y.components[i]
        xi = X.components[i]
        acc = as_field(0)
        for s, axis in enumerate(_AXES):
            acc = acc + X.components[s] * yi.diff(axis) - Y.components[s] * xi.diff(axis)
        out.append(acc)
    return VectorField(*out)


def gram_schmidt(X1: VectorField, X2: VectorField):
    """Orthonormalise (X1, X2) under the ambient Euclidean product.

    Returns (e1, e2) with e1 = X1/|X1| and e2 the normalised component of X2
    orthogonal to e1; spans and in-plane orientation are preserved.  Nothing
    is verified here: :func:`~cartan_contact.reduction.classify` rejects
    points where the generators are dependent.
    """
    e1 = X1 / norm(X1)
    u2 = X2 - dot(X2, e1) * e1
    return e1, u2 / norm(u2)


class Frame(Record):
    """Ordered triple of vector fields; nondegenerate where det != 0."""

    e1: VectorField
    e2: VectorField
    e3: VectorField

    @property
    def fields(self) -> tuple[VectorField, VectorField, VectorField]:
        return (self.e1, self.e2, self.e3)


class Coframe(Record):
    """Ordered triple of 1-forms, dual to a frame via the 3x3 pairing."""

    eta1: OneForm
    eta2: OneForm
    eta3: OneForm

    @property
    def forms(self) -> tuple[OneForm, OneForm, OneForm]:
        return (self.eta1, self.eta2, self.eta3)


def complete_frame(e1: VectorField, e2: VectorField) -> Frame:
    """Complete an orthonormal pair to a frame with e3 = [e1, e2].

    The commutator sign is exactly e3 = +[e1, e2]; the frame degenerates
    where the pair's span is holonomic.
    """
    return Frame(e1, e2, commutator(e1, e2))


def dual_coframe(F: Frame) -> Coframe:
    """Coframe (eta^1, eta^2, eta^3) with eta^i(e_j) = delta^i_j.

    Computed symbolically as eta^i = (e_j x e_k) / det for (i, j, k) cyclic,
    det = e1 . (e2 x e3).  No pivoting and no check: the coframe is undefined
    where det vanishes, and :func:`~cartan_contact.reduction.classify` is
    where a distribution's degeneracy is decided.
    """
    e1, e2, e3 = F.fields
    eta1 = _cross(e2, e3, OneForm)
    det = dot(e1, eta1)
    return Coframe(eta1 / det, _cross(e3, e1, OneForm) / det,
                   _cross(e1, e2, OneForm) / det)


def differential(f) -> OneForm:
    """Exterior derivative of a 0-form: df = f_x dx + f_y dy + f_z dz."""
    f = as_field(f)
    return OneForm(f.diff("x"), f.diff("y"), f.diff("z"))


def exterior_derivative(omega: OneForm) -> TwoForm:
    """d of a 1-form, assembled from coordinate partials of the coefficients."""
    p, q, r = omega.components
    return TwoForm(
        r.diff("y") - q.diff("z"),
        p.diff("z") - r.diff("x"),
        q.diff("x") - p.diff("y"),
    )


def exterior_derivative2(omega: TwoForm) -> ScalarField:
    """d of a 2-form, as its dx^dy^dz coefficient."""
    a, b, c = omega.components
    return a.diff("x") + b.diff("y") + c.diff("z")


def wedge(alpha: OneForm, beta: OneForm) -> TwoForm:
    """Wedge of two 1-forms in the cyclic 2-form basis."""
    return _cross(alpha, beta, TwoForm)


def apply_two_form(omega: TwoForm, X: VectorField, Y: VectorField) -> ScalarField:
    """omega(X, Y); antisymmetric, and equals a(X)b(Y) - a(Y)b(X) for omega = a^b."""
    return dot(omega, _cross(X, Y))


def _row(eta: OneForm, F: Frame):
    """(c_23, c_31, c_12) with c_ab = (d eta)(e_a, e_b) = eta([e_b, e_a]) on
    F = (e1, e2, e3), the frame dual to the coframe that holds eta."""
    e1, e2, e3 = F.fields
    return dot(eta, commutator(e3, e2)), dot(eta, commutator(e1, e3)), dot(eta, commutator(e2, e1))


def structure_coefficients(C: Coframe, F: Frame):
    """Expansion coefficients of d(eta^i) in the coframe 2-form basis.

    F must be the frame dual to C.  Returns rows c^i = (c^i_23, c^i_31, c^i_12)
    with c^i_ab = eta^i([e_b, e_a]) = (d eta^i)(e_a, e_b), so that
    d eta^i = c^i_23 eta^2^eta^3 + c^i_31 eta^3^eta^1 + c^i_12 eta^1^eta^2.
    """
    return tuple(_row(eta, F) for eta in C.forms)


def pairing_matrix(C: Coframe, F: Frame):
    """3x3 ScalarField table eta^i(e_j); identity exactly when C, F are dual."""
    return tuple(tuple(dot(eta, e) for e in F.fields) for eta in C.forms)
