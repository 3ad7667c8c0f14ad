"""Expression core: parsing, printing, differentiation, evaluation."""
from __future__ import annotations

import math
import random

import pytest

from cartan_contact.scalarfield import (
    Const,
    DomainError,
    ExpressionSyntaxError,
    Point,
    ScalarField,
    UnknownIdentifier,
    as_field,
    differentiate,
    evaluate,
    parse,
)
from helpers import fd_partial, rand_points, rand_smooth_field


ORIGIN = (0.0, 0.0, 0.0)


class TestParse:
    def test_literal_reading(self):
        assert parse("-y").evaluate((0, 1, 0)) == -1.0

    def test_sqrt_of_sum(self):
        assert parse("sqrt(1+y^2)").evaluate((0, 1, 0)) == pytest.approx(
            1.4142135623730951, abs=0)

    def test_plain_arithmetic(self):
        assert parse("2+3*x^2+3*y^2").evaluate((1, 1, 0)) == 8.0

    def test_precedence_power_over_unary_minus(self):
        # ^ binds tighter than unary minus
        assert parse("-x^2").evaluate((2, 0, 0)) == -4.0
        assert parse("(-x)^2").evaluate((2, 0, 0)) == 4.0

    def test_precedence_mul_over_add(self):
        assert parse("2+3*4").evaluate(ORIGIN) == 14.0
        assert parse("(2+3)*4").evaluate(ORIGIN) == 20.0

    def test_left_associative_sub_div(self):
        assert parse("8-3-2").evaluate(ORIGIN) == 3.0
        assert parse("16/4/2").evaluate(ORIGIN) == 2.0

    def test_power_right_associative(self):
        assert parse("2^3^2").evaluate(ORIGIN) == 512.0

    def test_negative_and_folded_exponents(self):
        assert parse("2^-2").evaluate(ORIGIN) == 0.25
        assert parse("x^(1+1)").evaluate((3, 0, 0)) == 9.0

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("x^0.5")
        with pytest.raises(ExpressionSyntaxError):
            parse("x^y")

    def test_coordinate_aliases(self):
        f = parse("x1 + 2*x2 + 3*x3")
        g = parse("x + 2*y + 3*z")
        for p in [(1, 2, 3), (-1, 0.5, 4)]:
            assert f.evaluate(p) == g.evaluate(p)

    def test_float_literals(self):
        assert parse("0.5 + 1.25e1").evaluate(ORIGIN) == 13.0

    def test_empty_input(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("")
        with pytest.raises(ExpressionSyntaxError):
            parse("   ")

    def test_unknown_identifier_offset(self):
        with pytest.raises(UnknownIdentifier) as err:
            parse("x + w")
        assert err.value.offset == 4
        assert err.value.name == "w"

    def test_unknown_function_call(self):
        with pytest.raises(UnknownIdentifier):
            parse("foo(x)")

    def test_function_requires_parentheses(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("sqrt 2")

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse("1 + 2 3")
        assert err.value.offset == 6

    def test_dangling_operator(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("x +")

    def test_unbalanced_parens(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("(1+2")

    def test_unexpected_character(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse("1 $ 2")
        assert err.value.offset == 2

    def test_non_ascii_identifier(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse("α + 1")
        assert err.value.offset == 0

    @pytest.mark.parametrize("text, printed", [
        ("(" * 1000 + "x" + ")" * 1000, "x"),
        ("sqrt(" * 1000 + "x" + ")" * 1000, "sqrt(" * 1000 + "x" + ")" * 1000),
        ("-" * 1000 + "x", "x"),  # an even chain of minuses folds away
    ], ids=["parentheses", "sqrt", "minus"])
    def test_deep_nesting_parses(self, text, printed):
        f = parse(text)
        assert f.to_text() == printed
        assert f.evaluate((1.0, 0.0, 0.0)) == 1.0

    def test_100k_levels_without_recursion(self):
        assert parse("(" * 100_000 + "x" + ")" * 100_000).to_text() == "x"
        f = parse("sqrt(" * 100_000 + "x" + ")" * 100_000)
        assert f.evaluate((1.0, 0.0, 0.0)) == 1.0
        assert f.diff("x") is f.diff("x")
        # each level halves the derivative at x = 1
        assert parse("sqrt(" * 1000 + "x" + ")" * 1000).diff("x").evaluate(
            (1.0, 0.0, 0.0)) == 2.0 ** -1000

    @pytest.mark.parametrize("text", [
        "1e308 + 1e308", "1e308*10 - y", "1e308*10 - 1e308*10", "-1e308 - 1e308",
        "1e308/1e-308", "-(1e308*10)", "sqrt(1e308*10)", "1/0",
    ])
    def test_folding_stays_finite(self, text):
        # a fold that would leave the finite floats keeps its node instead
        f = parse(text)
        assert parse(f.to_text()).to_text() == f.to_text()
        with pytest.raises(DomainError):
            f.evaluate(ORIGIN)

    def test_non_finite_constant_refused(self):
        # no expression text spells inf or nan, so no field holds one
        with pytest.raises(ValueError, match="finite"):
            parse("x") + math.inf
        with pytest.raises(ValueError, match="finite"):
            as_field(float("nan"))
        with pytest.raises(ValueError, match="finite"):
            as_field(10 ** 400)

    @pytest.mark.parametrize("text, message, offset", [
        ("x^y + 1", "exponent must be an integer literal", 2),
        ("2*(x^-y", "exponent must be an integer literal", 5),
        ("(x y", "expected ')'", 3),
        ("sqrt(x", "expected ')'", 6),
        ("sqrt x", "expected '(' after 'sqrt'", 5),
        ("(x))", "unexpected trailing input ')'", 3),
        ("x * )", "unexpected token ')'", 4),
        ("-(", "unexpected end of input", 2),
        ("1e999", "bad numeric literal '1e999'", 0),
    ])
    def test_error_messages_and_offsets(self, text, message, offset):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse(text)
        assert str(err.value) == f"{message} (byte {offset})"

    def test_150_levels_parse(self):
        assert parse("(" * 150 + "x" + ")" * 150).to_text() == "x"
        assert parse("sqrt(" * 150 + "x" + ")" * 150).evaluate((1.0, 0.0, 0.0)) == 1.0


class TestEvaluate:
    def test_unit_normaliser(self):
        assert parse("1/sqrt(1+y^2)").evaluate(ORIGIN) == 1.0

    def test_division_by_zero(self):
        with pytest.raises(DomainError) as err:
            parse("x/y").evaluate((1, 0, 0))
        assert err.value.point == (1.0, 0.0, 0.0)
        assert "division by zero" in str(err.value)
        assert "x/y" in err.value.where

    def test_halved_normaliser_value(self):
        assert parse("y/(2*sqrt(1+y^2))").evaluate((0, 1, 0)) == pytest.approx(
            0.3535533905932738, rel=1e-15)

    def test_sqrt_of_negative(self):
        with pytest.raises(DomainError) as err:
            parse("sqrt(x)").evaluate((-4, 0, 0))
        assert "square root" in str(err.value)

    def test_zero_to_negative_power(self):
        with pytest.raises(DomainError):
            parse("x^-1").evaluate(ORIGIN)

    def test_overflow_is_a_domain_error(self):
        with pytest.raises(DomainError):
            parse("exp(x)").evaluate((1000, 0, 0))

    def test_deterministic(self, rng):
        f = rand_smooth_field(rng)
        p = (0.25, -0.75, 0.5)
        assert f.evaluate(p) == f.evaluate(p)

    def test_shared_memo_matches_fresh_evaluation(self, rng):
        f = rand_smooth_field(rng)
        fields = [f, f.diff("x"), f.diff("x").diff("y"), f * f.diff("z")]
        for p in rand_points(rng, 5):
            memo = {}
            assert [g.evaluate(p, memo) for g in fields] == [g.evaluate(p) for g in fields]
            assert f in memo

    @pytest.mark.parametrize("text, point", [
        ("1/x + 1/y", ORIGIN),
        ("sqrt(x) + 1/y", (-1.0, 0.0, 0.0)),
    ])
    def test_last_child_evaluated_first(self, text, point):
        # of several undefined sub-expressions, the one reached first is reported
        with pytest.raises(DomainError) as err:
            parse(text).evaluate(point)
        assert err.value.where == "1/y"

    def test_memo_after_failed_evaluation(self):
        f = parse("sin(x)*exp(z/4) + x*y*z/(2 + z^2)")
        fields = [f, f.diff("x"), f.diff("x").diff("y"), f * f.diff("z")]
        # the last child is walked first, so the product completes before 1/y fails
        failing = parse("1/y") + fields[1] * fields[3]
        for p in [(0.3, 0.0, -0.5), (-1.2, 0.0, 0.7)]:
            memo = {}
            with pytest.raises(DomainError) as err:
                failing.evaluate(p, memo)
            assert err.value.where == "1/y"
            assert fields[3] in memo and failing not in memo
            # the memo holds completed nodes only, each with its own value
            stack, seen = [failing], set()
            while stack:
                node = stack.pop()
                if id(node) not in seen:
                    seen.add(id(node))
                    stack.extend(node._children)
                    if node in memo:
                        assert memo[node] == node.evaluate(p)
            assert [g.evaluate(p, memo) for g in fields] == [g.evaluate(p) for g in fields]

    def test_memo_keys_nodes_by_identity(self):
        # evaluate keys its memo by node, so a structural __eq__ or __hash__
        # on any node class would merge the entries of equal-looking nodes
        classes = [ScalarField]
        for cls in classes:
            classes.extend(cls.__subclasses__())
            assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__, cls
        f, g = parse("x + 1"), parse("x + 1")
        memo = {}
        assert f.evaluate((1, 0, 0), memo) == g.evaluate((1, 0, 0), memo) == 2.0
        assert f in memo and g in memo and f != g

    def test_accepts_point_and_tuple(self):
        f = parse("x + y*z")
        assert f.evaluate(Point(1, 2, 3)) == f.evaluate((1, 2, 3)) == 7.0

    def test_call_is_evaluate(self):
        f = parse("x - 2*y")
        assert f((1, 2, 0)) == f.evaluate((1, 2, 0)) == -3.0

    def test_power_overflow_is_a_domain_error(self):
        with pytest.raises(DomainError) as err:
            parse("x^400").evaluate((10, 0, 0))
        assert err.value.reason == "overflow" and err.value.where == "x^400"

    def test_point_must_be_three_numbers(self):
        with pytest.raises(ValueError, match="point coordinates must be numbers, got 'a'"):
            Point("a", 0, 0)
        with pytest.raises(ValueError, match="expected 3 coordinates, got 2"):
            parse("x").evaluate((1, 2))

    def test_point_requires_finite_coordinates(self):
        with pytest.raises(ValueError):
            Point(math.nan, 0, 0)
        with pytest.raises(ValueError):
            Point(0, math.inf, 0)


class TestDifferentiate:
    def test_product_of_coordinates(self, rng):
        d = parse("x*y").diff("x")
        for p in rand_points(rng, 5):
            assert d.evaluate(p) == p[1]

    def test_chain_rule_sqrt(self):
        d = parse("sqrt(1+y^2)").diff("y")
        assert d.evaluate((0, 1, 0)) == pytest.approx(0.7071067811865476, rel=1e-15)

    def test_constant_slope(self):
        d = parse("-y").diff("y")
        assert isinstance(d, Const)
        assert d.value == -1.0

    def test_absent_coordinate(self):
        d = parse("x*y").diff("z")
        assert isinstance(d, Const) and d.value == 0.0

    def test_alias_and_index_forms(self):
        f = parse("x*y^2")
        assert f.diff("x2").evaluate((1, 3, 0)) == f.diff(1).evaluate((1, 3, 0)) == 6.0

    @pytest.mark.parametrize("var, message", [
        (3, "coordinate index out of range: 3"),
        ("w", "unknown coordinate 'w'"),
    ])
    def test_unknown_coordinate_refused(self, var, message):
        with pytest.raises(ValueError, match=message):
            parse("x*y").diff(var)

    def test_quotient_rule(self, rng):
        f = parse("x/(2+y^2)")
        d = f.diff("y")
        for p in rand_points(rng, 5):
            want = -2.0 * p[1] * p[0] / (2 + p[1] ** 2) ** 2
            assert d.evaluate(p) == pytest.approx(want, rel=1e-12)

    def test_trig_and_exp(self, rng):
        f = parse("sin(x)*cos(y) + exp(z)")
        for p in rand_points(rng, 5):
            assert f.diff("x").evaluate(p) == pytest.approx(
                math.cos(p[0]) * math.cos(p[1]), rel=1e-12)
            assert f.diff("z").evaluate(p) == pytest.approx(math.exp(p[2]), rel=1e-12)

    def test_derivative_cache_returns_same_object(self):
        f = parse("sin(x*y)")
        assert f.diff("x") is f.diff("x")

    def test_long_sum_without_recursion(self):
        # the parsed sum nests 2000 Add nodes deep, past the interpreter's
        # recursion limit; d/dx sum(x*y*i) = y * 2000*2001/2
        f = parse(" + ".join(f"x*y*{i}" for i in range(1, 2001)))
        assert f.diff("x").evaluate((0.5, 0.25, 0.0)) == 0.25 * 2001000

    def test_finite_difference_agreement(self, rng):
        # 20 random smooth fields, 20 random points, all three axes
        for _ in range(20):
            f = rand_smooth_field(rng)
            ds = [f.diff(k) for k in range(3)]
            for p in rand_points(rng, 20):
                for k in range(3):
                    sym = ds[k].evaluate(p)
                    fd = fd_partial(f, p, k)
                    assert abs(sym - fd) <= 1e-5 * max(1.0, abs(sym)), (
                        f"{f!r} axis {k} at {p}: {sym} vs {fd}")

    def test_linearity(self, rng):
        f = rand_smooth_field(rng)
        g = rand_smooth_field(rng)
        a, b = 1.5, -2.25
        d = (a * f + b * g).diff("y")
        df, dg = f.diff("y"), g.diff("y")
        for p in rand_points(rng, 10):
            want = a * df.evaluate(p) + b * dg.evaluate(p)
            assert abs(d.evaluate(p) - want) <= 1e-12 * max(1.0, abs(want))

    def test_leibniz(self, rng):
        f = rand_smooth_field(rng)
        g = rand_smooth_field(rng)
        d = (f * g).diff("x")
        for p in rand_points(rng, 10):
            want = f.diff("x").evaluate(p) * g.evaluate(p) + f.evaluate(p) * g.diff("x").evaluate(p)
            assert abs(d.evaluate(p) - want) <= 1e-12 * max(1.0, abs(want))


class TestPrinting:
    ROUND_TRIP_CASES = [
        "-y",
        "sqrt(1+y^2)",
        "2+3*x^2+3*y^2",
        "x - (y - z)",
        "(x+y)*(x-y)",
        "x/(y+2)/(z+3)",
        "-(x*y) + x*-0.5",
        "2^3^2 + x^-2",
        "sin(cos(exp(x*y)))",
        "x*y/(2+sqrt(1+z^2))",
    ]

    @pytest.mark.parametrize("text", ROUND_TRIP_CASES)
    def test_round_trip_evaluates_identically(self, text, rng):
        f = parse(text)
        g = parse(f.to_text())
        for p in rand_points(rng, 10, lo=0.5, hi=2.0):
            assert f.evaluate(p) == g.evaluate(p)  # identical operations: exact

    def test_round_trip_random_fields(self, rng):
        for _ in range(25):
            f = rand_smooth_field(rng)
            g = parse(f.to_text())
            for p in rand_points(rng, 5):
                assert f.evaluate(p) == g.evaluate(p)

    def test_long_sum_round_trip(self):
        # printing, like parsing and differentiation, walks the 2000 Add
        # nodes without recursion
        text = " + ".join(f"x*y*{i}" for i in range(1, 2001))
        f = parse(text)
        assert f.to_text() == "x*y" + text[len("x*y*1"):] == str(f)  # x*y*1 folds
        assert parse(f.to_text()).evaluate((0.5, 0.25, 0.0)) == f.evaluate((0.5, 0.25, 0.0))
        assert repr(f) == "ScalarField('... + ... + ...*... + ...*...*1999 + x*y*2000')"

    def test_canonical_names(self):
        assert parse("x1+x2+x3").to_text() == "x + y + z"

    def test_derivatives_stay_in_grammar(self, rng):
        for _ in range(10):
            f = rand_smooth_field(rng)
            d = f.diff("x")
            g = parse(d.to_text())
            for p in rand_points(rng, 3):
                assert d.evaluate(p) == g.evaluate(p)


class TestSimplification:
    def test_neutral_elements_fold(self):
        x = parse("x")
        assert (x + 0).to_text() == "x"
        assert (x * 1).to_text() == "x"
        assert (x * 0).to_text() == "0"
        assert (0 + x).to_text() == "x"

    def test_reflected_operators(self):
        x = parse("x")
        assert (1 - x).to_text() == "1 - x"
        assert (2 / x).to_text() == "2/x"
        assert (1 - x).evaluate((4, 0, 0)) == -3.0 and (2 / x).evaluate((4, 0, 0)) == 0.5

    def test_constants_fold(self):
        assert parse("2*3 + 4").to_text() == "10"

    def test_module_level_wrappers(self):
        f = parse("x^2")
        assert evaluate(f, (3, 0, 0)) == 9.0
        assert evaluate(differentiate(f, "x"), (3, 0, 0)) == 6.0


def reference_value(f, p, memo=None):
    """Value of ``f`` at ``p`` by plain recursion over the node types; shares
    no code with :meth:`ScalarField.evaluate` and its ``_eval`` methods."""
    memo = {} if memo is None else memo
    if id(f) in memo:
        return memo[id(f)]
    kind = type(f).__name__
    if kind == "Const":
        value = f.value
    elif kind == "Var":
        value = p[f.index]
    else:
        kids = [reference_value(c, p, memo) for c in f._children]
        if kind == "Add":
            value = kids[0] + kids[1]
        elif kind == "Sub":
            value = kids[0] - kids[1]
        elif kind == "Mul":
            value = kids[0] * kids[1]
        elif kind == "Div":
            value = kids[0] / kids[1]
        elif kind == "Neg":
            value = -kids[0]
        elif kind == "Pow":
            value = kids[0] ** f.exponent
        else:
            value = {"sqrt": math.sqrt, "sin": math.sin, "cos": math.cos,
                     "exp": math.exp}[f.fn](kids[0])
    memo[id(f)] = value
    return value


class TestEvaluateProperty:
    def test_matches_recursive_reference(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        coordinate = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(seed=st.integers(0, 2 ** 32 - 1),
                          point=st.tuples(coordinate, coordinate, coordinate),
                          axes=st.tuples(st.integers(0, 2), st.integers(0, 2)))
        def check(seed, point, axes):
            f = rand_smooth_field(random.Random(seed))
            first = f.diff(axes[0])
            for g in (f, first, first.diff(axes[1])):
                assert g.evaluate(point) == reference_value(g, point)

        check()
