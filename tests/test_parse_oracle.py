"""The parser against Python's own: random expressions in the grammar must
evaluate exactly as Python evaluates the same text with ``^`` read as ``**``.

Python gives ``**``, unary ``-``, ``* /`` and ``+ -`` the precedence and
associativity of this grammar, so the oracle shares no code with the parser.
"""
from __future__ import annotations

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from cartan_contact.scalarfield import DomainError, parse  # noqa: E402

# precedence of an expression's text, as the grammar binds it
ADD, MUL, UNARY, POW, ATOM = range(1, 6)

# float literals only, so Python never computes in exact integers; integer
# literals appear only as exponents
LITERALS = ["0.5", "1.0", "2.0", "2.5", "3.0", "0.125", "1e-3", "1.5e1", ".75", "4.",
            "10.0"]
COORDS = ["x", "y", "z", "x1", "x2", "x3"]
EXPONENTS = [["0"], ["1"], ["2"], ["3"], ["-", "1"], ["-", "2"], ["2", "^", "1"],
             ["(", "1", "+", "1", ")"]]
PYTHON_NAMES = {"sqrt": math.sqrt, "sin": math.sin, "cos": math.cos, "exp": math.exp}


@st.composite
def expressions(draw, depth=4):
    """(tokens, precedence) of a random expression, parenthesised where its
    structure needs it and now and then where it does not."""

    def operand(need):
        tokens, prec = draw(expressions(depth - 1))
        if prec < need or draw(st.integers(0, 7)) == 0:
            return ["(", *tokens, ")"]
        return tokens

    def square_plus_two():
        # 2 + u^2 >= 2: safe as a denominator and under sqrt
        return ["2.0", "+", *operand(ATOM), "^", "2"]

    form = draw(st.integers(0, 9)) if depth > 0 else draw(st.integers(0, 1))
    if form == 0:
        return [draw(st.sampled_from(LITERALS))], ATOM
    if form == 1:
        return [draw(st.sampled_from(COORDS))], ATOM
    if form == 2:
        return [*operand(ADD), draw(st.sampled_from("+-")), *operand(MUL)], ADD
    if form == 3:
        return [*operand(MUL), "*", *operand(UNARY)], MUL
    if form == 4:
        return [*operand(MUL), "/", "(", *square_plus_two(), ")"], MUL
    if form == 5:
        return ["-", *operand(UNARY)], UNARY
    if form == 6:
        return [*operand(ATOM), "^", *draw(st.sampled_from(EXPONENTS))], POW
    if form == 7:
        return [draw(st.sampled_from(["sin", "cos"])), "(", *operand(0), ")"], ATOM
    if form == 8:
        return ["sqrt", "(", *square_plus_two(), ")"], ATOM
    return ["exp", "(", draw(st.sampled_from(["sin", "cos"])), "(", *operand(0), ")", ")"], ATOM


@st.composite
def texts(draw):
    tokens, _ = draw(expressions())
    spaces = draw(st.lists(st.sampled_from(["", "", " ", "  ", "\t"]),
                           min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    return spaces[0] + "".join(t + s for t, s in zip(tokens, spaces[1:]))


coordinates = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=250, deadline=None)
@given(texts(), st.tuples(coordinates, coordinates, coordinates))
def test_parse_matches_python(text, point):
    x, y, z = point
    names = {**PYTHON_NAMES, "x": x, "y": y, "z": z, "x1": x, "x2": y, "x3": z}
    try:
        expected = eval(text.replace("^", "**"), {"__builtins__": {}}, names)
    except (ArithmeticError, ValueError):
        expected = math.nan
    # where Python fails the field may fail too, or fold the failing part away
    assume(math.isfinite(expected))
    try:
        value = parse(text).evaluate(point)
    except DomainError as exc:
        pytest.fail(f"{text!r} at {point}: {exc}; Python gives {expected!r}")
    assert value == expected, f"{text!r} at {point}"
