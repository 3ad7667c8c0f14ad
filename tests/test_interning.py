"""The intern table of ``scalarfield`` and the cycle-free derivatives.

``reduce``, ``build_adapted``, ``contact_torsion`` and ``extract_invariants``
build, and ``Distribution.from_components`` parses, inside an intern table
that memoises the smart constructors; the table is dropped when the
outermost of them returns or raises.  Interning only shares nodes, so every
value and every ``DomainError`` of the fields ``reduce`` reports, its T312
among them, must be the one the same pipeline gives without a table.  The
derivatives of ``sqrt`` and ``exp`` hold one twin of their node, not the
node, so a reduction leaves no reference cycle.
"""
from __future__ import annotations

import contextlib
import gc
import sys
import threading

import pytest

from cartan_contact import cli, corpus, reduction, scalarfield
from cartan_contact.reduction import (
    DegenerateInput,
    Distribution,
    HolonomicError,
    Point,
    absorb_translations,
    build_adapted,
    contact_torsion,
    extract_invariants,
    normalize_scale,
    reduce,
)
from cartan_contact.scalarfield import DomainError, as_field, exp, parse, sqrt
from helpers import THREE_POINTS, dag_shape, reachable, respan_pd

# det3 = exp(x) + 1, nowhere zero
EXP_CASE = (("1", "0", "-y"), ("0", "1", "exp(x)"))
OUTPUTS = ("T312", "a1", "a2", "M", "A1", "A2", "A3", "dd_eta3", "q1_minus_p2")


class TestNoCycles:
    @pytest.mark.parametrize("fn", [sqrt, exp])
    def test_derivative_holds_a_twin_not_the_node(self, fn):
        f = fn(parse("x*y + 1"))
        df, dy = f.diff("x"), f.diff("y")
        assert df is f.diff("x")
        assert f not in reachable(df, dy)
        twins = {n for n in reachable(df, dy) if type(n) is type(f) and n.fn == f.fn}
        assert len(twins) == 1 and twins.pop()._children == f._children

    @pytest.mark.parametrize("components", [None, EXP_CASE], ids=["heisenberg", "exp"])
    def test_reduce_leaves_nothing_for_the_collector(self, components):
        if components is None:
            dist = corpus.distribution("heisenberg")
        else:
            dist = Distribution.from_components(*components)
        gc.collect()
        flags = gc.get_debug()
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        try:
            report = reduce(dist, THREE_POINTS)
            assert report.n_ok == 3
            del report, dist
            gc.collect()
            leaked = len(gc.garbage)
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert leaked == 0


class TestNeutralElements:
    @pytest.mark.parametrize("build, want", [
        (lambda f: f + 0, "f"), (lambda f: 0 + f, "f"), (lambda f: f - 0, "f"),
        (lambda f: f * 1, "f"), (lambda f: 1 * f, "f"), (lambda f: f * 0, "zero"),
        (lambda f: f / 1, "f")], ids=["f+0", "0+f", "f-0", "f*1", "1*f", "f*0", "f/1"])
    def test_return_before_the_table(self, build, want):
        f = parse("x*y")
        with scalarfield._interning():
            size = len(scalarfield._table)
            got = build(f)
            assert len(scalarfield._table) == size
        assert got is (f if want == "f" else scalarfield._ZERO)


class TestOneWalkGradient:
    TEXT = "sqrt(x*y + z^2)/(1 + exp(x*z)) - sin(y)^3*cos(x - z) + (x*y)^3"

    def test_first_axis_fills_all_three(self):
        with scalarfield._interning():
            f = parse(self.TEXT)
            dx = f.diff("x")
            size = len(scalarfield._table)
            dy, dz = f.diff("y"), f.diff("z")
            assert len(scalarfield._table) == size
            assert (dx, dy, dz) == (f.diff("x"), f.diff("y"), f.diff("z"))

    def test_axis_order_gives_identical_nodes(self):
        shapes = []
        for axes in ("xyz", "zyx"):
            with scalarfield._interning():
                f = parse(self.TEXT)
                partials = {axis: f.diff(axis) for axis in axes}
                shapes.append(dag_shape(f, *(partials[axis] for axis in "xyz")))
        assert shapes[0] == shapes[1]

    def test_power_coefficient_shared_across_axes(self):
        f = parse("(x*y)^3")
        with scalarfield._interning():
            dx, dy = f.diff("x"), f.diff("y")
        # 3*(x*y)^2*y and 3*(x*y)^2*x: one coefficient, one Const 3
        assert dx._children[0] is dy._children[0]
        assert dx._children[0].to_text() == "3*(x*y)^2"
        assert len(reachable(dx, dy)) == 8


class TestSharingRule:
    """``parse`` returns the module's coordinate nodes; every constant comes
    from ``_const``, so 0 and 1 are the module's ``_ZERO`` and ``_ONE`` and,
    in a table, any other value is one Const, however it was made; and a
    distribution's six components are parsed in one table."""

    TEXT = "sqrt(x*y + 2)/(1 + exp(x*z)) - 2*y^3"

    def test_coordinates_are_module_nodes(self):
        assert parse("x") is parse("x1")
        assert parse("y") is parse("x2") and parse("z") is parse("x3")
        with scalarfield._interning():
            assert parse("x") is parse("x1")
        assert parse("x").diff("x") is scalarfield._ONE

    def test_table_shares_parsed_structure_and_literals(self):
        def consts(f):
            return [n for n in reachable(f) if type(n) is scalarfield.Const]

        assert len(consts(parse("2*x - 2*y"))) == 2   # no table, no sharing
        with scalarfield._interning():
            left, right = parse("x*y + x*y")._children
            assert left is right
            assert len(consts(parse("2*x - 2*y"))) == 1
            assert parse(self.TEXT) is parse(self.TEXT)

    def test_one_constant_per_value(self):
        x = parse("x")
        assert as_field(2) is not as_field(2)   # no table, no sharing
        with scalarfield._interning():
            two = parse("2")
            assert as_field(2) is as_field(2.0) is two
            assert x / 2 is x / 2.0
            assert parse("1 + 1") is as_field(1) + 1 is two
            assert as_field(0) is as_field(-0.0) is scalarfield._ZERO
            assert as_field(1) is scalarfield._ONE
        assert as_field(-0.0) is scalarfield._ZERO and as_field(1.0) is scalarfield._ONE

    @pytest.mark.parametrize("bad, error, offset", [
        ("x + w", scalarfield.UnknownIdentifier, 4),
        ("x +", scalarfield.ExpressionSyntaxError, 3)])
    def test_from_components_names_the_bad_component(self, bad, error, offset):
        with pytest.raises(error) as info:
            Distribution.from_components(("1", "0", "-y"), ("0", bad, "x"))
        assert type(info.value) is error
        assert (info.value.component, info.value.offset) == ("X2[1]", offset)
        assert scalarfield._table is None

    def test_distribution_components_share_one_table(self):
        x1, x2 = ("x*y", "0", "1"), ("0", "x*y", "1")
        spec = cli.InputSpec(name="shared", x1=x1, x2=x2, points=THREE_POINTS,
                             tol_identity=1e-8, tol_regression=1e-6)
        for dist in (Distribution.from_components(x1, x2), cli.build_distribution(spec)):
            (a, _, one), (_, b, other) = dist.X1.components, dist.X2.components
            assert a is b and one is other
        assert scalarfield._table is None


class TestScope:
    def test_table_shares_only_while_open(self):
        x, y = parse("x"), parse("y")
        assert (x * y) is not (x * y)
        with scalarfield._interning():
            assert (x * y) is (x * y)
            assert (x - y) is not (y - x)     # operands keep their order
            with scalarfield._interning():    # a nested block reuses the table
                assert sqrt(x) is sqrt(x)
            assert scalarfield._table is not None
        assert scalarfield._table is None
        assert (x * y) is not (x * y)

    def test_table_dropped_on_return_and_on_raise(self, heisenberg, exercise1a):
        reduce(heisenberg, THREE_POINTS)
        assert scalarfield._table is None
        with pytest.raises(HolonomicError):
            reduce(exercise1a, THREE_POINTS)
        assert scalarfield._table is None
        parallel = Distribution.from_components(("1", "0", "0"), ("2", "0", "0"))
        with pytest.raises(DegenerateInput):
            reduce(parallel, THREE_POINTS)
        assert scalarfield._table is None
        contact_torsion(build_adapted(heisenberg))
        assert scalarfield._table is None
        extract_invariants(absorb_translations(normalize_scale(build_adapted(heisenberg))))
        assert scalarfield._table is None

    def test_threads_sharing_the_table_get_the_records_of_one(self):
        # each thread reduces its own parsed fields, since differentiation of
        # shared nodes is for one thread at a time; the tables they open and
        # drop interleave
        builders = {"heisenberg": lambda: corpus.distribution("heisenberg"),
                    "cartan": lambda: corpus.distribution("cartan"),
                    "exp": lambda: Distribution.from_components(*EXP_CASE),
                    "respan-pd": respan_pd}
        want = {name: reduce(build(), THREE_POINTS).samples for name, build in builders.items()}
        got, errors = {}, []

        def work(name):
            try:
                got[name] = [reduce(builders[name](), THREE_POINTS).samples for _ in range(2)]
            except Exception as err:    # reported by the main thread
                errors.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(name,)) for name in builders]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert got == {name: [samples, samples] for name, samples in want.items()}
        assert scalarfield._table is None

    def test_repeated_reduce_gives_equal_records(self, heisenberg):
        first = reduce(heisenberg, THREE_POINTS)
        second = reduce(heisenberg, THREE_POINTS)
        assert first.samples == second.samples
        assert first.classification == second.classification


def _values(fields: dict, point) -> dict:
    """Each field's value at ``point`` as hex, or its DomainError's reason and where."""
    out = {}
    for key, f in fields.items():
        try:
            out[key] = f.evaluate(point).hex()
        except DomainError as err:
            out[key] = (err.reason, err.where)
    return out


def _outputs(dist: Distribution, points) -> tuple[dict, list]:
    report = reduce(dist, points)
    return {key: getattr(report, key) for key in OUTPUTS}, report.samples


class TestInterningChangesNoResult:
    # the outputs of sqrt(x) overflow at 1e-100 and 1e-250: DomainErrors to compare
    SQRT_CASE = (("1", "0", "-y"), ("0", "1", "sqrt(x)"))
    SQRT_POINTS = [Point(1.0, 0.0, 0.0), Point(1e-100, 0.0, 0.0), Point(1e-250, 0.0, 0.0)]

    def cases(self):
        return [(corpus.distribution("heisenberg"), THREE_POINTS),
                (corpus.distribution("cartan"), THREE_POINTS),
                (respan_pd(), THREE_POINTS),
                (Distribution.from_components(*EXP_CASE), THREE_POINTS),
                (Distribution.from_components(*self.SQRT_CASE), self.SQRT_POINTS)]

    def test_bit_identical_to_the_pipeline_without_a_table(self, monkeypatch):
        interned = [_outputs(dist, points) for dist, points in self.cases()]
        monkeypatch.setattr(reduction, "_interning", contextlib.nullcontext)
        plain = [_outputs(dist, points) for dist, points in self.cases()]
        errors = 0
        for (dist, points), (f_in, s_in), (f_pl, s_pl) in zip(self.cases(), interned, plain):
            assert len(reachable(f_in["M"])) < len(reachable(f_pl["M"])), dist.name
            assert s_in == s_pl, dist.name
            for p in points:
                got, want = _values(f_in, p), _values(f_pl, p)
                assert got == want, (dist.name, p)
                errors += sum(isinstance(v, tuple) for v in got.values())
        assert errors > 0
