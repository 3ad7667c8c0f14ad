"""Truncated Taylor jets in (x, y, z), and the invariant M computed on them.

A :class:`Jet` holds the Taylor coefficients of a function at one point, one
per monomial x^i y^j z^k of total degree at most its order (Griewank &
Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 13).  Sums and
products keep the lower order of their operands, a partial derivative lowers
the order by one, and sqrt, sin, cos and exp are power series at the
constant term.  :func:`invariant_m` redoes the reduction of a contact plane
field on jets of order 3 and reads M off the order-0 result.

This is an oracle for the package: it uses the standard library only and
imports nothing from ``cartan_contact``.
"""
from __future__ import annotations

import math

ORDER = 3
# exponent triples of total degree at most ORDER, by degree
MONOMIALS = [(i, j, d - i - j) for d in range(ORDER + 1)
             for i in range(d, -1, -1) for j in range(d - i, -1, -1)]
DEGREE = [sum(m) for m in MONOMIALS]
_INDEX = {m: n for n, m in enumerate(MONOMIALS)}
# (a, b, a + b) for each pair of monomials whose product is kept
_PRODUCTS = [(a, b, _INDEX[tuple(map(sum, zip(ma, mb)))])
             for a, ma in enumerate(MONOMIALS) for b, mb in enumerate(MONOMIALS)
             if DEGREE[a] + DEGREE[b] <= ORDER]


class Jet:
    """Taylor coefficients up to ``order``, indexed like :data:`MONOMIALS`."""

    __slots__ = ("c", "order")

    def __init__(self, c, order: int) -> None:
        self.c = [v if DEGREE[n] <= order else 0.0 for n, v in enumerate(c)]
        self.order = order

    @property
    def value(self) -> float:
        return self.c[0]

    def __add__(self, other):
        other = jet(other)
        return Jet([a + b for a, b in zip(self.c, other.c)], min(self.order, other.order))

    __radd__ = __add__

    def __neg__(self):
        return Jet([-a for a in self.c], self.order)

    def __sub__(self, other):
        return self + -jet(other)

    def __rsub__(self, other):
        return jet(other) - self

    def __mul__(self, other):
        other = jet(other)
        order = min(self.order, other.order)
        c = [0.0] * len(MONOMIALS)
        for a, b, ab in _PRODUCTS:
            if DEGREE[ab] <= order:
                c[ab] += self.c[a] * other.c[b]
        return Jet(c, order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * reciprocal(jet(other))

    def __rtruediv__(self, other):
        return jet(other) * reciprocal(self)

    def __pow__(self, n: int):
        result = jet(1.0)
        for _ in range(n):
            result = result * self
        return result

    def diff(self, axis: int) -> "Jet":
        """The partial derivative along x, y or z (axis 0, 1 or 2)."""
        c = [0.0] * len(MONOMIALS)
        for n, m in enumerate(MONOMIALS):
            if m[axis] and DEGREE[n] <= self.order:
                lower = list(m)
                lower[axis] -= 1
                c[_INDEX[tuple(lower)]] += m[axis] * self.c[n]
        return Jet(c, self.order - 1)


def jet(v) -> Jet:
    """``v`` itself if a jet, else the constant ``v``, exact to every order."""
    if isinstance(v, Jet):
        return v
    return Jet([float(v)] + [0.0] * (len(MONOMIALS) - 1), ORDER)


def variables(point) -> tuple[Jet, Jet, Jet]:
    """The coordinate functions x, y, z as jets at ``point``."""
    out = []
    for axis, v in enumerate(point):
        c = [0.0] * len(MONOMIALS)
        c[0] = float(v)
        c[_INDEX[tuple(int(k == axis) for k in range(3))]] = 1.0
        out.append(Jet(c, ORDER))
    return tuple(out)


def _series(u: Jet, taylor) -> Jet:
    """f(u) from f's Taylor coefficients ``taylor[m]`` = f^(m)(u0) / m!."""
    h = Jet([0.0] + u.c[1:], u.order)
    result = jet(taylor[u.order])
    for m in range(u.order - 1, -1, -1):
        result = result * h + taylor[m]
    return Jet(result.c, u.order)


def reciprocal(u: Jet) -> Jet:
    u0 = u.value
    return _series(u, [(-1) ** m / u0 ** (m + 1) for m in range(u.order + 1)])


def sqrt(u: Jet) -> Jet:
    u0 = u.value
    taylor, binom = [], 1.0
    for m in range(u.order + 1):
        taylor.append(binom * u0 ** (0.5 - m))
        binom *= (0.5 - m) / (m + 1)
    return _series(u, taylor)


def exp(u: Jet) -> Jet:
    e = math.exp(u.value)
    return _series(u, [e / math.factorial(m) for m in range(u.order + 1)])


def _sin_cos(u: Jet, shift: int) -> Jet:
    # the m-th derivative of sin is sin shifted by m quarter turns
    s, c = math.sin(u.value), math.cos(u.value)
    cycle = (s, c, -s, -c)
    return _series(u, [cycle[(m + shift) % 4] / math.factorial(m)
                       for m in range(u.order + 1)])


def sin(u: Jet) -> Jet:
    return _sin_cos(u, 0)


def cos(u: Jet) -> Jet:
    return _sin_cos(u, 1)


# -- vector calculus on triples of jets ---------------------------------------


def _dot(u, v) -> Jet:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _scale(s, u):
    return tuple(s * a for a in u)


def _plus(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _bracket(u, v):
    """[u, v]^k = u(v^k) - v(u^k)."""
    return tuple(sum((u[j] * v[k].diff(j) - v[j] * u[k].diff(j) for j in range(3)), jet(0))
                 for k in range(3))


def _coframe(e1, e2, e3):
    """The dual of the frame (e1, e2, e3): adjugate rows over the determinant."""
    det = _dot(e1, _cross(e2, e3))
    return tuple(_scale(1 / det, _cross(a, b)) for a, b in ((e2, e3), (e3, e1), (e1, e2)))


def _structure(frame, coframe):
    """Row i holds c^i_ab = -eta^i([e_a, e_b]) for (a, b) = (2, 3), (3, 1), (1, 2)."""
    e1, e2, e3 = frame
    brackets = [_bracket(e2, e3), _bracket(e3, e1), _bracket(e1, e2)]
    return [[-_dot(eta, br) for br in brackets] for eta in coframe]


def invariant_m(fields, point) -> float:
    """M = a1^2 + a2^2 at ``point`` of the plane field span{X1, X2}.

    ``fields(x, y, z)`` returns (X1, X2), each a triple of jets or numbers.
    Gram-Schmidt gives (e1, e2) and e3 = [e1, e2] completes the stage-B0
    frame; flipping e3 and eta^3 makes c^3_12 = 1 (stage B1); moving e3 by
    t23 e1 + t31 e2 kills c^3_23 and c^3_31 (stage B2), where a1 = (P1 - Q2)/2
    and a2 = Q1 in d eta^i = P_i eta^2^eta^3 + Q_i eta^3^eta^1 + ...
    """
    X1, X2 = ([jet(c) for c in X] for X in fields(*variables(point)))
    e1 = _scale(1 / sqrt(_dot(X1, X1)), X1)
    w = _plus(X2, _scale(-_dot(X2, e1), e1))
    e2 = _scale(1 / sqrt(_dot(w, w)), w)
    e3 = _bracket(e1, e2)
    eta1, eta2, eta3 = _coframe(e1, e2, e3)
    e3, eta3 = _scale(-1, e3), _scale(-1, eta3)
    t23, t31, _ = _structure((e1, e2, e3), (eta1, eta2, eta3))[2]
    e3 = _plus(e3, _plus(_scale(t23, e1), _scale(t31, e2)))
    eta1 = _plus(eta1, _scale(-t23, eta3))
    eta2 = _plus(eta2, _scale(-t31, eta3))
    (p1, q1, _r1), (_p2, q2, _r2), _ = _structure((e1, e2, e3), (eta1, eta2, eta3))
    a1 = (p1 - q2) / 2
    return (a1 * a1 + q1 * q1).value
