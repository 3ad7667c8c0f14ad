"""Replay an expression DAG at one point in 60-digit ``decimal`` arithmetic.

A float is an exact decimal, so a DAG of the four operations, integer powers
and square roots can be evaluated at a binary point to 60 correct digits,
with no underflow or overflow before 10^-999999 or 10^999999.  The replay
shares the DAG with the code under test: it measures how far a float value is
from the exact value of the expression that produced it, a rounding oracle
and not a formula oracle.  ``sin``, ``cos`` and ``exp`` are refused.

Needs nothing beside the package but the standard library.
"""
from __future__ import annotations

from decimal import Context, Decimal

from cartan_contact import scalarfield as sf

CONTEXT = Context(prec=60, Emin=-999999, Emax=999999)


def _call(node, a: Decimal) -> Decimal:
    if node.fn != "sqrt":
        raise ValueError(f"the decimal replay refuses {node.fn}")
    return CONTEXT.sqrt(a)


_OPS = {
    sf.Add: lambda node, a, b: CONTEXT.add(a, b),
    sf.Sub: lambda node, a, b: CONTEXT.subtract(a, b),
    sf.Mul: lambda node, a, b: CONTEXT.multiply(a, b),
    sf.Div: lambda node, a, b: CONTEXT.divide(a, b),
    sf.Neg: lambda node, a: CONTEXT.minus(a),
    sf.Pow: lambda node, a: CONTEXT.power(a, node.exponent),
    sf.Call: _call,
}


def replay(roots, point) -> list[Decimal]:
    """The values of ``roots`` at ``point``, each node computed once, in
    post order: ``Var`` is the ``Decimal`` coordinate, ``Const`` is
    ``Decimal(value)``, and every operation is rounded to 60 digits."""
    coords = [Decimal(float(c)) for c in point]
    values: dict = {}
    for root in roots:
        stack = [root]
        while stack:
            node = stack[-1]
            if node in values:
                stack.pop()
                continue
            pending = [k for k in node._children if k not in values]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            if isinstance(node, sf.Const):
                values[node] = Decimal(node.value)
            elif isinstance(node, sf.Var):
                values[node] = coords[node.index]
            else:
                values[node] = _OPS[type(node)](node, *(values[k] for k in node._children))
    return [values[r] for r in roots]
