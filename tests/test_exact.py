"""M from ``reduce`` against M derived exactly in sympy.

sympy redoes the coordinate path on exact expressions: Gram-Schmidt, e3 =
[e1, e2] flipped to stage B1, the dual coframe by cross products over the
determinant, the translations (t23, t31) that give stage B2, and P_i, Q_i as
-theta^i of the B2 frame's brackets, so no exterior derivative and none of the
package's formulas.  M is evaluated at 50 digits, at points given as decimal
strings.  Each derivative is taken node by node through a memo, with sympy's
``fdiff`` for the functions: ``sympy.diff`` walks the whole expression tree
on every call, which made these builds 10 to 15 times slower, and
``evalf(subs=...)`` took minutes where ``value`` takes milliseconds.  A
point-dependent respan
still takes about 3 s to build and 1 s per point, so respans are left to
``tests/test_jets.py``.
"""
from __future__ import annotations

import pytest

sp = pytest.importorskip("sympy")

from cartan_contact.reduction import Distribution, reduce  # noqa: E402

XYZ = sp.symbols("x y z")
THREE_POINTS = [("0.3", "-0.2", "0.1"), ("0.5", "0.5", "0.2"), ("-0.7", "0.9", "-0.4")]

# (X1, X2, points); at the last case a1 is -2.7e11, and 1000000*(-0.7)
# rounds to -700000 in floats, the product at the decimal point
CASES = {
    "heisenberg": (("1", "0", "-y"), ("0", "1", "x"), THREE_POINTS),
    "cartan": (("1", "0", "-y"), ("0", "1", "0"), THREE_POINTS),
    "large-coefficient": (("1", "0", "-y"), ("0", "1", "x + sin(1000000*y)"),
                          [("0.5", "-0.7", "0.3")]),
}


def exact_m(x1, x2):
    """M = a1^2 + a2^2 as a sympy expression in x, y, z."""
    memo = {}

    def d(e, s):
        if (e, s) not in memo:
            if e.is_Symbol or e.is_Number:
                r = sp.S.One if e == s else sp.S.Zero
            elif e.is_Add:
                r = sp.Add(*(d(a, s) for a in e.args))
            elif e.is_Mul:
                a = e.args
                r = sp.Add(*(sp.Mul(*a[:i], d(f, s), *a[i + 1:]) for i, f in enumerate(a)))
            elif e.is_Pow:
                b, n = e.args
                r = n * b ** (n - 1) * d(b, s)
            else:
                r = e.fdiff() * d(e.args[0], s)
            memo[e, s] = r
        return memo[e, s]

    def bracket(V, W):
        along = lambda U, f: sp.Add(*(U[k] * d(f, s) for k, s in enumerate(XYZ)))
        return sp.Matrix([along(V, W[i]) - along(W, V[i]) for i in range(3)])

    X1, X2 = (sp.Matrix([sp.sympify(c, locals=dict(zip("xyz", XYZ))) for c in X])
              for X in (x1, x2))
    e1 = X1 / sp.sqrt(X1.dot(X1))
    u2 = X2 - X2.dot(e1) * e1
    e2 = u2 / sp.sqrt(u2.dot(u2))
    e3 = -bracket(e1, e2)
    eta = sp.Matrix.vstack(e2.cross(e3).T, e3.cross(e1).T, e1.cross(e2).T) / e1.dot(e2.cross(e3))
    t23 = -(eta[2, :] * bracket(e2, e3))[0]
    t31 = -(eta[2, :] * bracket(e3, e1))[0]
    f3 = e3 + t23 * e1 + t31 * e2
    theta1, theta2 = eta[0, :] - t23 * eta[2, :], eta[1, :] - t31 * eta[2, :]
    b23, b31 = bracket(e2, f3), bracket(f3, e1)
    p1, q1 = -(theta1 * b23)[0], -(theta1 * b31)[0]
    q2 = -(theta2 * b31)[0]
    a1 = (p1 - q2) / 2
    return a1 ** 2 + q1 ** 2


def value(e, env, memo):
    """e at the point ``env``, each distinct subexpression evaluated once."""
    if e not in memo:
        memo[e] = env[e] if e.is_Symbol else e if e.is_Number else \
            e.func(*(value(a, env, memo) for a in e.args))
    return memo[e]


@pytest.mark.parametrize("name", CASES)
def test_reduce_matches_exact_m(name):
    x1, x2, points = CASES[name]
    m = exact_m(x1, x2)
    report = reduce(Distribution.from_components(x1, x2, name=name),
                    [tuple(float(c) for c in p) for p in points])
    assert [s.status for s in report.samples] == ["ok"] * len(points)
    for s, p in zip(report.samples, points):
        env = {v: sp.Float(sp.Rational(c), 50) for v, c in zip(XYZ, p)}
        want = float(value(m, env, {}))
        assert abs(s.M - want) <= 1e-12 * max(1.0, abs(want)), (p, s.M, want)
