"""Shared numeric utilities for the test suite.

Finite-difference oracles are kept independent of the symbolic derivative
path: they only ever call ``evaluate``.
"""
from __future__ import annotations

import random
from pathlib import Path

from cartan_contact import corpus
from cartan_contact import scalarfield as sf
from cartan_contact.forms import VectorField
from cartan_contact.reduction import Distribution, Point

GOLDEN = Path(__file__).parent / "golden"

# "the three points" of the suite and of ROADMAP.md
THREE_POINTS = [Point(0.3, -0.2, 0.1), Point(0.5, 0.5, 0.2), Point(-0.7, 0.9, -0.4)]


def respan_pd() -> Distribution:
    """"respan-pd": heisenberg's generators respanned point by point,
    X1' = f X1 + g X2, X2' = h X1 + k X2."""
    heisenberg = corpus.distribution("heisenberg")
    X1, X2 = heisenberg.X1, heisenberg.X2
    f, g, h, k = (sf.as_field(t) for t in ("1 + 0.3*x*y", "0.2*z", "-0.1*x^2", "1 - 0.2*y"))
    return Distribution(f * X1 + g * X2, h * X1 + k * X2, name="respan-pd")


def fd_partial(f, p, k, h=1e-5):
    """Central-difference partial along axis k; oracle for symbolic diff."""
    hi = list(p)
    lo = list(p)
    hi[k] += h
    lo[k] -= h
    return (f.evaluate(hi) - f.evaluate(lo)) / (2.0 * h)


def fd_commutator(X, Y, p, h=1e-5):
    """[X, Y](p) from finite-difference Jacobians; oracle for the bracket."""
    out = []
    for i in range(3):
        acc = 0.0
        for s in range(3):
            acc += X.components[s].evaluate(p) * fd_partial(Y.components[i], p, s, h)
            acc -= Y.components[s].evaluate(p) * fd_partial(X.components[i], p, s, h)
        out.append(acc)
    return out


def rand_points(rng: random.Random, n: int, lo=-1.0, hi=1.0):
    return [tuple(rng.uniform(lo, hi) for _ in range(3)) for _ in range(n)]


def rand_smooth_field(rng: random.Random, depth: int = 3):
    """Random field smooth and defined on all of [-2, 2]^3.

    Divisions only ever see denominators >= 2 and square roots arguments
    >= 1, so every sample point is interior to the domain.
    """
    if depth == 0 or rng.random() < 0.25:
        which = rng.randrange(5)
        if which <= 1:
            return sf.as_field(round(rng.uniform(-2.0, 2.0), 3))
        return sf._COORDS[which - 2]
    op = rng.randrange(8)
    a = rand_smooth_field(rng, depth - 1)
    if op == 0:
        return a + rand_smooth_field(rng, depth - 1)
    if op == 1:
        return a - rand_smooth_field(rng, depth - 1)
    if op == 2:
        return a * rand_smooth_field(rng, depth - 1)
    if op == 3:
        return sf.sin(a)
    if op == 4:
        return sf.cos(a)
    if op == 5:
        return sf.sqrt(1 + a * a)
    if op == 6:
        return sf.exp(a * 0.25)
    return a / (2 + rand_smooth_field(rng, depth - 1) ** 2)


def rand_poly_field(rng: random.Random, terms: int = 3):
    """Random polynomial with small integer coefficients; float-exact algebra."""
    x, y, z = sf._COORDS
    acc = sf.as_field(rng.randint(-2, 2))
    for _ in range(terms):
        term = sf.as_field(rng.randint(-3, 3))
        for base in (x, y, z):
            e = rng.randint(0, 2)
            if e:
                term = term * base ** e
        acc = acc + term
    return acc


def rand_poly_vector(rng: random.Random) -> VectorField:
    return VectorField(*(rand_poly_field(rng) for _ in range(3)))


def parse_nodes(lines) -> list[tuple[str, dict[str, int]]]:
    """``nodes <label>: <output> <count> ...`` lines as (label, counts) pairs."""
    out = []
    for line in lines:
        label, counts = line.removeprefix("nodes ").split(": ")
        words = counts.split()
        out.append((label, {key: int(n) for key, n in zip(words[::2], words[1::2])}))
    return out


def reachable(*roots) -> set:
    """The distinct node objects reachable from any of ``roots``."""
    seen, stack = set(), list(roots)
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(node._children)
    return seen


def dag_shape(*roots) -> tuple:
    """The DAG below ``roots`` up to node identity: each distinct node once,
    children first, as its class, its own data and its children's positions,
    then the roots' positions.  Equal shapes mean the same nodes, sharing
    included."""
    index, shape = {}, []
    stack = [(root, False) for root in reversed(roots)]
    while stack:
        node, ready = stack.pop()
        if node in index:
            continue
        if not ready:
            stack.append((node, True))
            stack.extend((kid, False) for kid in reversed(node._children))
            continue
        index[node] = len(shape)
        own = tuple(getattr(node, name, None) for name in ("value", "index", "fn", "exponent"))
        shape.append((type(node).__name__, own, tuple(index[kid] for kid in node._children)))
    return tuple(shape), tuple(index[root] for root in roots)


def count_walks(monkeypatch) -> list:
    """The point of each ScalarField.evaluate call, recorded while ``monkeypatch`` lasts."""
    calls = []
    walk = sf.ScalarField.evaluate

    def counted(self, point, memo=None):
        calls.append(point)
        return walk(self, point, memo)

    monkeypatch.setattr(sf.ScalarField, "evaluate", counted)
    return calls
