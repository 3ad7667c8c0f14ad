"""Symbolic scalar fields on R^3.

A :class:`ScalarField` is an immutable expression tree over numeric literals,
the coordinates x, y, z (aliases x1, x2, x3), the binary operators ``+ - * /``,
integer powers ``^``, unary negation, and the functions ``sqrt``, ``sin``,
``cos``, ``exp``.  Fields can be parsed from text, combined with the usual
Python operators, differentiated exactly, printed back to the same grammar,
and evaluated in 64-bit floating point.

Simplification is deliberately limited to constant folding and
neutral-element elimination (``u+0``, ``u*1``, ``u*0``); correctness is
defined by numeric evaluation, never by canonical form.  Constants are
finite: a non-finite Python number is refused with ``ValueError``.
Nodes are shared by one rule, given under :class:`ScalarField`, and each
caches its three partial derivatives: in an intern table a structure built
twice is one node (hash-consing, Filliatre & Conchon 2006), and printing
and evaluation order do not change.  The derivatives of ``sqrt`` and
``exp`` reuse their value through one twin node each, made past the table,
so no node reaches itself through its derivative cache and reference
counting alone frees a DAG.

Differentiation and evaluation are each one post-order walk over the shared
nodes.  Differentiation gives a node all three partials at once (vector
forward mode), calling its ``_diff`` per axis on its children's partials;
evaluation applies its operation ``_fn`` (a C-level callable but for
``Pow``) to its children's values.  Over several points,
``_evaluate_points`` walks the first and replays the walk's completion order
at the others.  Parsing, differentiation, evaluation and printing all work
with explicit stacks, so neither long sums nor deep nesting need recursion.
"""
from __future__ import annotations

import math
import operator
from itertools import takewhile

from ._record import Record

__all__ = [
    "ScalarField",
    "Point",
    "parse",
    "as_field",
    "sqrt",
    "sin",
    "cos",
    "exp",
    "ExpressionSyntaxError",
    "UnknownIdentifier",
    "DomainError",
]

_COORD_NAMES = ("x", "y", "z")
_COORD_INDEX = {"x": 0, "y": 1, "z": 2, "x1": 0, "x2": 1, "x3": 2}
_FUNCTIONS = {"sqrt": math.sqrt, "sin": math.sin, "cos": math.cos, "exp": math.exp}

# precedence levels, shared by the printer and the parser's binding powers
_P_ADD, _P_MUL, _P_UNARY, _P_POW, _P_ATOM = 1, 2, 3, 4, 5


class ExpressionSyntaxError(ValueError):
    """Malformed expression text; ``offset`` is the byte offset of the problem."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class UnknownIdentifier(ExpressionSyntaxError):
    """An identifier outside x, y, z, x1, x2, x3, sqrt, sin, cos, exp."""

    def __init__(self, name: str, offset: int) -> None:
        ExpressionSyntaxError.__init__(self, f"unknown identifier {name!r}", offset)
        self.name = name


class DomainError(ArithmeticError):
    """Evaluation left the field's domain (zero division, sqrt of a negative, overflow).

    Carries the offending ``point`` and a short description of the
    sub-expression that failed.
    """

    def __init__(self, reason: str, point: tuple[float, float, float], where: str) -> None:
        super().__init__(f"{reason} in '{where}' at point {point}")
        self.reason = reason
        self.point = point
        self.where = where


class Point(Record):
    """A point of R^3 with finite coordinates."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        for c in (self.x, self.y, self.z):
            try:
                finite = math.isfinite(c)
            except TypeError:
                raise ValueError(f"point coordinates must be numbers, got {c!r}") from None
            if not finite:
                raise ValueError(f"point coordinates must be finite, got {c!r}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (float(self.x), float(self.y), float(self.z))

    def __iter__(self):
        return iter(self.as_tuple())


def _point_tuple(p) -> tuple[float, float, float]:
    if not isinstance(p, Point):
        t = tuple(float(c) for c in p)
        if len(t) != 3:
            raise ValueError(f"expected 3 coordinates, got {len(t)}")
        p = Point(*t)
    return p.as_tuple()


def _coord_key(var) -> int:
    if type(var) is int:   # not a bool, though bool is an int
        if var in (0, 1, 2):
            return var
        raise ValueError(f"coordinate index out of range: {var}")
    try:
        return _COORD_INDEX[var]
    except KeyError:
        raise ValueError(f"unknown coordinate {var!r}; expected one of x, y, z") from None


class ScalarField:
    """Base class for symbolic expression nodes.

    The sharing rule: ``parse`` returns three module-level nodes for x, y
    and z, born with their partials; every constant comes from ``_const``,
    which returns ``_ZERO`` for a zero of either sign (a constant zero has no
    sign) and ``_ONE`` for 1; while an intern table is open, every other
    constant is memoised by value, and every smart constructor's node by
    class and operands in order.  The table is one per process, opened by the
    outermost scope (a distribution's parse, a build) and dropped when it
    ends; any thread may build while it is open, or while another thread
    opens or drops it, because it only memoises pure constructors: a hit
    returns a node of the structure a miss would build.

    Instances are immutable after construction apart from the tuple of
    three partial derivatives that :meth:`diff` caches on first use.
    Evaluation mutates no node, so several threads may evaluate shared
    nodes; differentiation is not guarded by a lock, so differentiate shared
    nodes from one thread at a time.

    No node class defines ``__eq__`` or ``__hash__``: nodes compare and hash
    by identity, which is what lets :meth:`evaluate` key its memo by node.
    Two structurally equal nodes are distinct keys, so a structural
    ``__eq__`` would merge their memo entries.
    """

    __slots__ = ("_derivs",)   # every constructor sets it, to None

    _children: tuple = ()
    _prec = _P_ATOM
    _kid_prec: tuple = ()   # minimum precedence of each child's printed text

    # -- arithmetic closure -------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else _add(self, other)

    def __radd__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else _add(other, self)

    def __sub__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else _sub(self, other)

    def __rsub__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else _sub(other, self)

    def __mul__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else _mul(self, other)

    def __rmul__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else _mul(other, self)

    def __truediv__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else _div(self, other)

    def __rtruediv__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else _div(other, self)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("exponents must be Python ints")
        return _pow(self, n)

    def __neg__(self):
        return _neg(self)

    # -- differentiation ----------------------------------------------------

    def diff(self, var) -> "ScalarField":
        """Exact symbolic partial derivative with respect to x, y or z.

        Each node caches all three partials, as one tuple.  One post-order
        walk with an explicit stack fills that tuple on every node that has
        none yet: each node's ``_diff`` runs once per axis and reads its
        children's tuples, so deep expressions (long sums, say) need no
        recursion, no node is differentiated twice, and later calls along
        any axis only read the cache.
        """
        k = _coord_key(var)
        stack = [self]
        push, pop = stack.append, stack.pop
        while stack:
            node = pop()
            if node._derivs is not None:
                continue
            kids = node._children
            if not kids:
                dk = ()
            elif len(kids) == 2:
                a, b = kids
                da = a._derivs
                db = b._derivs
                if da is None or db is None:
                    push(node)
                    if da is None:
                        push(a)
                    if db is None:
                        push(b)
                    continue
                dk = (da, db)
            else:
                da = kids[0]._derivs
                if da is None:
                    push(node)
                    push(kids[0])
                    continue
                dk = (da,)
            d = node._diff
            node._derivs = (d(0, dk), d(1, dk), d(2, dk))
        return self._derivs[k]

    def _diff(self, k: int, dk: tuple) -> "ScalarField":
        """This node's derivative along axis ``k``, given ``dk``, the
        derivative tuples of its children: ``dk[i][k]`` is child i's."""
        raise NotImplementedError

    # -- evaluation ---------------------------------------------------------

    def __call__(self, point) -> float:
        return self.evaluate(point)

    def evaluate(self, point, memo: dict | None = None) -> float:
        """Value at ``point``; raises :class:`DomainError` where undefined.

        One post-order walk with an explicit stack and a memo over shared
        subtrees, so large derived expressions evaluate in time linear in
        distinct nodes.  A node's missing children are pushed with the last
        on top, and its ``_fn`` runs once, when all of them have values; of
        several undefined sub-expressions, the first reached in that order is
        the one reported.  ``memo`` lets several calls at the same point
        share that memoisation: pass one empty dict to the evaluations of all
        fields wanted at a point, and a subtree they share is computed once.
        It maps each completed node to its value, also after a
        :class:`DomainError`, and serves one point only.
        """
        pt = _point_tuple(point)
        if memo is None:
            memo = {}
        get, isfinite = memo.get, math.isfinite
        stack = [self]
        push, pop = stack.append, stack.pop
        try:
            while stack:
                node = pop()
                if node in memo:
                    continue
                kids = node._children
                if not kids:
                    value = node._eval(pt)
                elif len(kids) == 2:
                    a, b = kids
                    va = get(a)
                    vb = get(b)
                    if va is None or vb is None:
                        push(node)
                        if va is None:
                            push(a)
                        if vb is None:
                            push(b)
                        continue
                    value = node._fn(va, vb)
                else:
                    va = get(kids[0])
                    if va is None:
                        push(node)
                        push(kids[0])
                        continue
                    value = node._fn(va)
                if not isfinite(value):
                    raise _failure(node, None, pt)
                memo[node] = value
        except _FAILURES as exc:
            raise _failure(node, exc, pt) from None
        return memo[self]

    def _eval(self, pt: tuple) -> float:
        """A leaf's value; an operator node's is its ``_fn`` of its children's."""
        raise NotImplementedError

    # -- printing -----------------------------------------------------------

    def to_text(self) -> str:
        """Render back to the expression grammar; parses to an equivalent field."""
        return _print(self, -1)

    def _text(self, kids: tuple) -> str:
        """This node's text, given its children's texts, each already in
        parentheses where its precedence is below the slot's ``_kid_prec``."""
        raise NotImplementedError

    def _short_text(self, depth: int = 4, limit: int = 80) -> str:
        # depth-capped sketch: diagnostics only, cheap even for huge trees
        text = _print(self, depth)
        if len(text) > limit:
            return text[: limit - 3] + "..."
        return text

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"ScalarField({self._short_text()!r})"


class Const(ScalarField):
    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        self._derivs = None
        self.value = float(value)

    @property
    def _prec(self):  # negative literals print like a unary minus
        return _P_ATOM if self.value >= 0 else _P_UNARY

    def _diff(self, k, dk):
        return _ZERO

    def _eval(self, pt):
        return self.value

    def _text(self, kids):
        v = self.value
        if abs(v) < 1e16 and v == int(v):  # false for inf and nan
            return str(int(v))
        return repr(v)


class Var(ScalarField):
    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self._derivs = tuple(_ONE if k == index else _ZERO for k in range(3))
        self.index = index

    def _eval(self, pt):
        return pt[self.index]

    def _text(self, kids):
        return _COORD_NAMES[self.index]


class _Binary(ScalarField):
    __slots__ = ("_children",)

    def __init__(self, a: ScalarField, b: ScalarField) -> None:
        self._derivs = None
        self._children = (a, b)

    def _text(self, kids):
        return f"{kids[0]}{self._op}{kids[1]}"


class Add(_Binary):
    __slots__ = ()
    _prec = _P_ADD
    _op = " + "
    _kid_prec = (_P_ADD, _P_MUL)
    _fn = operator.add

    def _diff(self, k, dk):
        return _add(dk[0][k], dk[1][k])


class Sub(_Binary):
    __slots__ = ()
    _prec = _P_ADD
    _op = " - "
    _kid_prec = (_P_ADD, _P_MUL)
    _fn = operator.sub

    def _diff(self, k, dk):
        return _sub(dk[0][k], dk[1][k])


class Mul(_Binary):
    __slots__ = ()
    _prec = _P_MUL
    _op = "*"
    _kid_prec = (_P_MUL, _P_POW)
    _fn = operator.mul

    def _diff(self, k, dk):
        a, b = self._children
        return _add(_mul(dk[0][k], b), _mul(a, dk[1][k]))


class Div(_Binary):
    __slots__ = ()
    _prec = _P_MUL
    _op = "/"
    _kid_prec = (_P_MUL, _P_POW)
    _fn = operator.truediv

    def _diff(self, k, dk):
        a, b = self._children
        return _sub(_div(dk[0][k], b), _div(_mul(a, dk[1][k]), _mul(b, b)))


class Neg(ScalarField):
    __slots__ = ("_children",)
    _prec = _P_UNARY
    _kid_prec = (_P_UNARY,)
    _fn = operator.neg

    def __init__(self, a: ScalarField) -> None:
        self._derivs = None
        self._children = (a,)

    def _diff(self, k, dk):
        return _neg(dk[0][k])

    def _text(self, kids):
        return f"-{kids[0]}"


class Pow(ScalarField):
    """Integer power u^n, the only power form the grammar admits; while a
    table is open its three partials share one coefficient node n*u^(n-1)."""

    __slots__ = ("_children", "exponent")
    _prec = _P_POW
    _kid_prec = (_P_ATOM,)

    def __init__(self, base: ScalarField, exponent: int) -> None:
        self._derivs = None
        self._children = (base,)
        self.exponent = exponent

    def _diff(self, k, dk):
        u, n = self._children[0], self.exponent
        return _mul(_mul(_const(n), _pow(u, n - 1)), dk[0][k])

    def _fn(self, v):
        return v ** self.exponent

    def _text(self, kids):
        return f"{kids[0]}^{self.exponent}"


class Call(ScalarField):
    __slots__ = ("_children", "fn", "_fn", "_twin")
    _prec = _P_ATOM
    _kid_prec = (_P_ADD,)

    def __init__(self, fn: str, arg: ScalarField) -> None:
        self._derivs = None
        self._children = (arg,)
        self.fn = fn
        self._fn = _FUNCTIONS[fn]
        self._twin = None

    def _diff(self, k, dk):
        u = self._children[0]
        du = dk[0][k]
        if self.fn == "sin":
            return _mul(_call("cos", u), du)
        if self.fn == "cos":
            return _neg(_mul(_call("sin", u), du))
        # sqrt and exp reuse their own value through one twin per node, made
        # past the intern table: a derivative holding this node would close a cycle
        twin = self._twin
        if twin is None:
            twin = self._twin = Call(self.fn, u)
        if self.fn == "sqrt":
            return _div(du, _mul(_const(2), twin))
        return _mul(twin, du)  # exp

    def _text(self, kids):
        return f"{self.fn}({kids[0]})"


# on finite operands only these operations raise, and only these exceptions
_REASONS = {
    (Div, ZeroDivisionError): "division by zero",
    (Pow, ZeroDivisionError): "zero raised to a negative power",
    (Pow, OverflowError): "overflow",
    (Call, ValueError): "square root of a negative number",
    (Call, OverflowError): "overflow",
}
_FAILURES = (ZeroDivisionError, OverflowError, ValueError)


def _failure(node, exc, pt) -> DomainError:
    """``node``'s error at ``pt``: its ``_fn`` raised ``exc``, or gave a non-finite value."""
    reason = "non-finite result" if exc is None else _REASONS[type(node), type(exc)]
    return DomainError(reason, pt, node._short_text())


def _evaluate_points(roots, points):
    """Yield, per point, the values of ``roots`` and the DomainError or None:
    ``[f.evaluate(p, memo) for f in roots]`` with a fresh memo, or what it
    completes before it raises.

    The first point whose walk completes leaves its memo's keys as a tape,
    children before parents in completion order.  That order does not depend
    on values until a failure, so each later point replays the tape in one
    loop with the walk's finiteness check, giving the same bits and error.
    """
    tape = None
    isfinite = math.isfinite
    for point in points:
        values, error = [], None
        if tape is None:
            memo: dict = {}
            try:
                for root in roots:
                    values.append(root.evaluate(point, memo))
                tape = list(memo)
            except DomainError as exc:
                error = exc
            del memo   # only the tape outlives the walk
            yield values, error
            continue
        pt = _point_tuple(point)
        vals: dict = {}
        for node in tape:
            kids = node._children
            try:
                if not kids:
                    value = node._eval(pt)
                elif len(kids) == 2:
                    value = node._fn(vals[kids[0]], vals[kids[1]])
                else:
                    value = node._fn(vals[kids[0]])
            except _FAILURES as exc:
                error = _failure(node, exc, pt)
                break
            if not isfinite(value):
                error = _failure(node, None, pt)
                break
            vals[node] = value
        yield [vals[r] for r in takewhile(vals.__contains__, roots)], error


_ZERO = Const(0.0)
_ONE = Const(1.0)
_COORDS = (Var(0), Var(1), Var(2))


def _print(root: ScalarField, depth: int) -> str:
    """Text of ``root``, subtrees below ``depth`` levels shown as ``...``;
    a negative depth never reaches 0, so nothing is cut.

    Walks the tree in post-order with an explicit stack, so deep expressions
    need no recursion.  Only the texts of children waiting for their parent
    are held; texts are not shared between repeated subtrees, whose
    combined size can be far larger than the DAG.
    """
    texts: list[str] = []
    stack = [(root, depth, False)]
    while stack:
        node, d, ready = stack.pop()
        kids = node._children
        if d == 0:
            texts.append("...")
        elif not kids:
            texts.append(node._text(()))
        elif ready:
            # nodes have one or two children; the last one's text is on top
            prec = node._kid_prec
            b = texts.pop()
            if kids[-1]._prec < prec[-1]:
                b = f"({b})"
            if len(kids) == 1:
                texts.append(node._text((b,)))
                continue
            a = texts.pop()
            if kids[0]._prec < prec[0]:
                a = f"({a})"
            texts.append(node._text((a, b)))
        else:
            stack.append((node, d, True))
            for k in reversed(kids):
                stack.append((k, d - 1, False))
    return texts[0]


# -- smart constructors: constant folding and neutral elements only ----------

# the open intern table, or None
_table: dict | None = None


class _interning:
    """``with _interning():`` opens the intern table unless one is open; the
    block that opened it drops it on exit, also on an exception."""

    __slots__ = ("_opened",)

    def __enter__(self) -> None:
        global _table
        self._opened = _table is None
        if self._opened:
            _table = {}

    def __exit__(self, *exc) -> None:
        global _table
        if self._opened:
            _table = None


def _node(cls, a, b, fold):
    """``cls(a, b)`` (``cls(a)`` if ``b`` is None), folded if ``fold`` says
    every operand is a Const, memoised in the open intern table under
    ``(cls, a, b)``: operands in order, and never their ids, so no id is
    reused while the table lives."""
    table = _table
    if table is not None:
        key = (cls, a, b)
        node = table.get(key)
        if node is not None:
            return node
    node = cls(a) if b is None else cls(a, b)
    if fold:
        node = _fold(node)
    if table is not None:
        table[key] = node
    return node


def _fold(node):
    """``node``, whose children are all Const, or the constant of its ``_fn``
    on their values if finite; where ``_fn`` raises, the node stays for evaluation to report."""
    try:
        value = node._fn(*[k.value for k in node._children])
    except _FAILURES:
        return node
    return _const(value) if math.isfinite(value) else node


# each constructor returns an operand or a shared constant where a neutral
# element allows, before the table, which keeps fixed-point transformations
# identity-stable; a binary one reads an operand's value only if it is a Const

def _add(a, b):
    ka = a.value if type(a) is Const else None
    kb = b.value if type(b) is Const else None
    if kb == 0.0:
        return a
    if ka == 0.0:
        return b
    return _node(Add, a, b, ka is not None and kb is not None)


def _sub(a, b):
    ka = a.value if type(a) is Const else None
    kb = b.value if type(b) is Const else None
    if kb == 0.0:
        return a
    if ka == 0.0:
        return _neg(b)
    return _node(Sub, a, b, ka is not None and kb is not None)


def _mul(a, b):
    ka = a.value if type(a) is Const else None
    kb = b.value if type(b) is Const else None
    if kb == 1.0:
        return a
    if ka == 1.0:
        return b
    if ka == 0.0 or kb == 0.0:
        return _ZERO
    return _node(Mul, a, b, ka is not None and kb is not None)


def _div(a, b):
    ka = a.value if type(a) is Const else None
    kb = b.value if type(b) is Const else None
    if kb == 1.0:
        return a
    if ka == 0.0:
        return _ZERO
    return _node(Div, a, b, ka is not None and kb is not None)


def _neg(a):
    if type(a) is Neg:
        return a._children[0]
    return _node(Neg, a, None, type(a) is Const)


def _pow(base, n: int):
    if n == 0:
        return _ONE
    if n == 1:
        return base
    return _node(Pow, base, n, type(base) is Const)


def _call(fn, arg):
    return _node(Call, fn, arg, type(arg) is Const)


def _const(value):
    """``_ZERO`` for a zero of either sign, ``_ONE`` for 1, else the interned Const of ``value``."""
    return _ZERO if value == 0 else _ONE if value == 1 else _node(Const, float(value), None, False)


def _coerce(v) -> "ScalarField | None":
    """``v`` if a field, its one constant (see ``_const``) if a finite number, else None."""
    if isinstance(v, ScalarField):
        return v
    if isinstance(v, (int, float)):
        try:
            if math.isfinite(v):
                return _const(v)
        except OverflowError:  # an int beyond the float range
            pass
        raise ValueError(f"a constant must be a finite number, got {v!r}")
    return None


def as_field(v) -> ScalarField:
    """Coerce a number, expression string or field into a ScalarField.

    A number becomes its constant by the sharing rule of :class:`ScalarField`;
    a non-finite one, which no expression text can spell, raises ``ValueError``.
    """
    if isinstance(v, str):
        return parse(v)
    f = _coerce(v)
    if f is None:
        raise TypeError(f"cannot convert {type(v).__name__} to ScalarField")
    return f


def sqrt(f) -> ScalarField:
    return _call("sqrt", as_field(f))


def sin(f) -> ScalarField:
    return _call("sin", as_field(f))


def cos(f) -> ScalarField:
    return _call("cos", as_field(f))


def exp(f) -> ScalarField:
    return _call("exp", as_field(f))


# -- parsing ------------------------------------------------------------------


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind      # "num" | "ident" | "op" | "end"
        self.value = value
        self.pos = pos        # character position in the source


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] == ".":
                i += 1
                while i < n and text[i].isdigit():
                    i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    i = j
                    while i < n and text[i].isdigit():
                        i += 1
            try:
                value = float(text[start:i])
            except ValueError:
                value = math.inf
            if not math.isfinite(value):
                raise ExpressionSyntaxError(
                    f"bad numeric literal {text[start:i]!r}", _byte_offset(text, start)
                )
            tokens.append(_Token("num", value, start))
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("ident", text[start:i], start))
            continue
        if c in "+-*/^()":
            tokens.append(_Token("op", c, i))
            i += 1
            continue
        raise ExpressionSyntaxError(f"unexpected character {c!r}", _byte_offset(text, i))
    tokens.append(_Token("end", None, n))
    return tokens


# binding powers of pending operators; open groups and calls have 0
_BINARY = {"+": (_P_ADD, _add), "-": (_P_ADD, _sub), "*": (_P_MUL, _mul), "/": (_P_MUL, _div)}
_NEG, _POW = _P_UNARY, _P_POW


def _parse_tokens(text: str, tokens: list[_Token]) -> ScalarField:
    """Precedence ^ > unary minus > * / > + -, in one loop over ``tokens``.

    ``vals`` holds finished operands and ``ops`` pending operators as
    (binding power, detail) pairs; the detail is a binary operator's
    constructor, a power's exponent token, or a call's function name.  Each
    operator after an operand first applies the pending ones that bind at
    least as tightly, so ``^`` and unary minus apply as soon as their operand
    ends, and the exponent is checked there.  Nesting costs no recursion.
    """
    def fail(message, tok):
        raise ExpressionSyntaxError(message, _byte_offset(text, tok.pos))

    ops: list[tuple] = []
    vals: list[ScalarField] = []
    i = 0
    while True:
        # an operand, after any unary minuses, opening parentheses and calls
        tok = tokens[i]
        i += 1
        if tok.kind == "num":
            vals.append(_const(tok.value))
        elif tok.kind == "ident":
            name = tok.value
            if name in _COORD_INDEX:
                vals.append(_COORDS[_COORD_INDEX[name]])
            elif name not in _FUNCTIONS:
                raise UnknownIdentifier(name, _byte_offset(text, tok.pos))
            elif tokens[i].value != "(":
                fail(f"expected '(' after {name!r}", tokens[i])
            else:
                ops.append((0, name))
                i += 1
                continue
        elif tok.value in ("-", "("):
            ops.append((_NEG, None) if tok.value == "-" else (0, None))
            continue
        elif tok.kind == "end":
            fail("unexpected end of input", tok)
        else:
            fail(f"unexpected token {tok.value!r}", tok)
        # then the operators after it, closing the groups that end there
        while True:
            tok = tokens[i]
            if tok.value == "^":
                # binds tightest and to the right: nothing pending applies yet
                i += 1
                ops.append((_POW, tokens[i]))
                break
            binary = _BINARY.get(tok.value)
            floor = binary[0] if binary else _P_ADD
            while ops and ops[-1][0] >= floor:
                power, detail = ops.pop()
                if power == _POW:
                    n = vals.pop()
                    if not isinstance(n, Const) or n.value != int(n.value):
                        fail("exponent must be an integer literal", detail)
                    vals[-1] = _pow(vals[-1], int(n.value))
                elif power == _NEG:
                    vals[-1] = _neg(vals[-1])
                else:
                    b = vals.pop()
                    vals[-1] = detail(vals[-1], b)
            if binary:
                ops.append(binary)
                i += 1
                break
            if not ops:
                if tok.kind != "end":
                    fail(f"unexpected trailing input {tok.value!r}", tok)
                return vals[0]
            if tok.value != ")":
                fail("expected ')'", tok)
            i += 1
            name = ops.pop()[1]
            if name is not None:
                vals[-1] = _call(name, vals[-1])


def parse(text: str) -> ScalarField:
    """Parse expression text into a :class:`ScalarField`.

    Raises :class:`ExpressionSyntaxError` (with a byte offset) on malformed
    input, and :class:`UnknownIdentifier` for names outside the grammar.
    """
    if not isinstance(text, str):
        raise TypeError("expression text must be a str")
    if text.strip() == "":
        raise ExpressionSyntaxError("empty expression", 0)
    return _parse_tokens(text, _tokenize(text))

