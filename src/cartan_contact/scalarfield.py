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
Construction shares subtrees and derivatives are cached per node, so
repeated differentiation of derived quantities stays cheap.  While an intern
table is open (``reduction`` opens one around each build), the smart
constructors are memoised by their operands, in order, so a structure built
twice is one node (hash-consing, Filliatre & Conchon 2006) and printing and
evaluation order do not change.  The derivatives of ``sqrt`` and ``exp``
reuse their value through one twin node each, made past the table, so no
node reaches itself through its derivative cache and reference counting
alone frees a DAG.

Differentiation and evaluation are each one post-order walk over the shared
nodes: a node's ``_diff`` receives its children's derivatives and its
``_eval`` their values, so each distinct node costs a few dictionary
operations and one method call.  Parsing, differentiation, evaluation and
printing all work with explicit stacks, so neither long sums nor deep
nesting need recursion.
"""
from __future__ import annotations

import math

from ._record import Record

__all__ = [
    "ScalarField",
    "Point",
    "parse",
    "evaluate",
    "differentiate",
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
    if isinstance(var, int):
        if var in (0, 1, 2):
            return var
        raise ValueError(f"coordinate index out of range: {var}")
    try:
        return _COORD_INDEX[var]
    except KeyError:
        raise ValueError(f"unknown coordinate {var!r}; expected one of x, y, z") from None


class ScalarField:
    """Base class for symbolic expression nodes.

    Instances are immutable after construction apart from a per-node
    derivative cache that :meth:`diff` fills lazily.  Evaluation mutates no
    node, so several threads may evaluate shared nodes; differentiation is
    not guarded by a lock, so differentiate shared nodes from one thread at
    a time.  The intern table is one per process, opened by the outermost
    scope and dropped when it ends; any thread may build while it is open,
    or while another thread opens or drops it, because it only memoises pure
    constructors: a hit returns a node of the structure a miss would build.

    No node class defines ``__eq__`` or ``__hash__``: nodes compare and hash
    by identity, which is what lets :meth:`evaluate` key its memo by node.
    Two structurally equal nodes are distinct keys, so a structural
    ``__eq__`` would merge their memo entries.
    """

    __slots__ = ("_derivs",)   # every constructor sets it, to _NO_DERIVS

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

        Derivatives are cached per node.  One post-order walk with an explicit
        stack differentiates the nodes whose derivative is not cached yet:
        each node's ``_diff`` receives its children's derivatives, read from
        their caches, so deep expressions (long sums, say) need no recursion
        and no node is differentiated twice.
        """
        k = _coord_key(var)
        stack = [self]
        push, pop = stack.append, stack.pop
        while stack:
            node = pop()
            cache = node._derivs
            if k in cache:
                continue
            kids = node._children
            if not kids:
                dk = ()
            elif len(kids) == 2:
                a, b = kids
                da = a._derivs.get(k)
                db = b._derivs.get(k)
                if da is None or db is None:
                    push(node)
                    if da is None:
                        push(a)
                    if db is None:
                        push(b)
                    continue
                dk = (da, db)
            else:
                da = kids[0]._derivs.get(k)
                if da is None:
                    push(node)
                    push(kids[0])
                    continue
                dk = (da,)
            if cache is _NO_DERIVS:
                cache = node._derivs = {}
            cache[k] = node._diff(k, dk)
        return self._derivs[k]

    def _diff(self, k: int, dk: tuple) -> "ScalarField":
        """This node's derivative along axis ``k``, given ``dk``, the
        derivatives of its children along the same axis."""
        raise NotImplementedError

    # -- evaluation ---------------------------------------------------------

    def __call__(self, point) -> float:
        return self.evaluate(point)

    def evaluate(self, point, memo: dict | None = None) -> float:
        """Value at ``point``; raises :class:`DomainError` where undefined.

        One post-order walk with an explicit stack and a memo over shared
        subtrees, so large derived expressions evaluate in time linear in
        distinct nodes.  A node's missing children are pushed with the last
        on top, and its ``_eval`` runs once, when all of them have values; of
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
        while stack:
            node = pop()
            if node in memo:
                continue
            kids = node._children
            if not kids:
                value = node._eval((), pt)
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
                value = node._eval((va, vb), pt)
            else:
                va = get(kids[0])
                if va is None:
                    push(node)
                    push(kids[0])
                    continue
                value = node._eval((va,), pt)
            if not isfinite(value):
                raise DomainError("non-finite result", pt, node._short_text())
            memo[node] = value
        return memo[self]

    def _eval(self, kids: tuple, pt: tuple) -> float:
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
        self._derivs = _NO_DERIVS
        self.value = float(value)

    @property
    def _prec(self):  # negative literals print like a unary minus
        return _P_ATOM if self.value >= 0 else _P_UNARY

    def _diff(self, k, dk):
        return _ZERO

    def _eval(self, kids, pt):
        return self.value

    def _text(self, kids):
        v = self.value
        if abs(v) < 1e16 and v == int(v):  # false for inf and nan
            return str(int(v))
        return repr(v)


class Var(ScalarField):
    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self._derivs = _NO_DERIVS
        self.index = index

    def _diff(self, k, dk):
        return _ONE if k == self.index else _ZERO

    def _eval(self, kids, pt):
        return pt[self.index]

    def _text(self, kids):
        return _COORD_NAMES[self.index]


class _Binary(ScalarField):
    __slots__ = ("_children",)

    def __init__(self, a: ScalarField, b: ScalarField) -> None:
        self._derivs = _NO_DERIVS
        self._children = (a, b)

    def _text(self, kids):
        return f"{kids[0]}{self._op}{kids[1]}"


class Add(_Binary):
    __slots__ = ()
    _prec = _P_ADD
    _op = " + "
    _kid_prec = (_P_ADD, _P_MUL)

    def _diff(self, k, dk):
        return _add(dk[0], dk[1])

    def _eval(self, kids, pt):
        return kids[0] + kids[1]


class Sub(_Binary):
    __slots__ = ()
    _prec = _P_ADD
    _op = " - "
    _kid_prec = (_P_ADD, _P_MUL)

    def _diff(self, k, dk):
        return _sub(dk[0], dk[1])

    def _eval(self, kids, pt):
        return kids[0] - kids[1]


class Mul(_Binary):
    __slots__ = ()
    _prec = _P_MUL
    _op = "*"
    _kid_prec = (_P_MUL, _P_POW)

    def _diff(self, k, dk):
        a, b = self._children
        return _add(_mul(dk[0], b), _mul(a, dk[1]))

    def _eval(self, kids, pt):
        return kids[0] * kids[1]


class Div(_Binary):
    __slots__ = ()
    _prec = _P_MUL
    _op = "/"
    _kid_prec = (_P_MUL, _P_POW)

    def _diff(self, k, dk):
        a, b = self._children
        return _sub(_div(dk[0], b), _div(_mul(a, dk[1]), _mul(b, b)))

    def _eval(self, kids, pt):
        if kids[1] == 0.0:
            raise DomainError("division by zero", pt, self._short_text())
        return kids[0] / kids[1]


class Neg(ScalarField):
    __slots__ = ("_children",)
    _prec = _P_UNARY
    _kid_prec = (_P_UNARY,)

    def __init__(self, a: ScalarField) -> None:
        self._derivs = _NO_DERIVS
        self._children = (a,)

    def _diff(self, k, dk):
        return _neg(dk[0])

    def _eval(self, kids, pt):
        return -kids[0]

    def _text(self, kids):
        return f"-{kids[0]}"


class Pow(ScalarField):
    """Integer power of a field; the only power form the grammar admits."""

    __slots__ = ("_children", "exponent")
    _prec = _P_POW
    _kid_prec = (_P_ATOM,)

    def __init__(self, base: ScalarField, exponent: int) -> None:
        self._derivs = _NO_DERIVS
        self._children = (base,)
        self.exponent = exponent

    def _diff(self, k, dk):
        n = self.exponent
        return _mul(_mul(Const(n), _pow(self._children[0], n - 1)), dk[0])

    def _eval(self, kids, pt):
        try:
            return kids[0] ** self.exponent
        except ZeroDivisionError:
            raise DomainError("zero raised to a negative power", pt, self._short_text()) from None
        except OverflowError:
            raise DomainError("overflow", pt, self._short_text()) from None

    def _text(self, kids):
        return f"{kids[0]}^{self.exponent}"


class Call(ScalarField):
    __slots__ = ("_children", "fn", "_twin")
    _prec = _P_ATOM
    _kid_prec = (_P_ADD,)

    def __init__(self, fn: str, arg: ScalarField) -> None:
        self._derivs = _NO_DERIVS
        self._children = (arg,)
        self.fn = fn
        self._twin = None

    def _diff(self, k, dk):
        u = self._children[0]
        du = dk[0]
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
            return _div(du, _mul(_TWO, twin))
        return _mul(twin, du)  # exp

    def _eval(self, kids, pt):
        # on finite arguments only sqrt raises ValueError, only exp OverflowError
        try:
            return _FUNCTIONS[self.fn](kids[0])
        except ValueError:
            reason = "square root of a negative number"
        except OverflowError:
            reason = "overflow"
        raise DomainError(reason, pt, self._short_text())

    def _text(self, kids):
        return f"{self.fn}({kids[0]})"


# the derivative cache of a node not yet differentiated; diff gives a node
# its own dict before storing a derivative, so this one stays empty
_NO_DERIVS: dict = {}
_ZERO = Const(0.0)
_ONE = Const(1.0)
_TWO = Const(2.0)


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


def _interned(build):
    """``build`` memoised in the open intern table.  The key is ``build`` and
    its arguments themselves, never their ids: a key holds its child nodes,
    so no id is reused while the table lives.  Operands keep their order."""
    def constructor(*args):
        table = _table
        if table is None:
            return build(*args)
        key = (build, *args)
        node = table.get(key)
        if node is None:
            node = table[key] = build(*args)
        return node
    return constructor


def _is_const(f, v):
    return type(f) is Const and f.value == v


def _fold(node):
    """``node``, or the Const of its own ``_eval`` on its children's values
    when every child is a Const and that value is finite.  Where ``_eval``
    raises :class:`DomainError`, the node is kept and evaluation reports it."""
    kids = node._children
    for k in kids:
        if type(k) is not Const:
            return node
    try:
        value = node._eval(tuple(k.value for k in kids), None)
    except DomainError:
        return node
    return Const(value) if math.isfinite(value) else node


@_interned
def _add(a, b):
    # neutral elements first: keeps fixed-point transformations identity-stable
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return b
    return _fold(Add(a, b))


@_interned
def _sub(a, b):
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    return _fold(Sub(a, b))


@_interned
def _mul(a, b):
    if _is_const(b, 1.0):
        return a
    if _is_const(a, 1.0):
        return b
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _ZERO
    return _fold(Mul(a, b))


@_interned
def _div(a, b):
    if _is_const(b, 1.0):
        return a
    if _is_const(a, 0.0):
        return _ZERO
    return _fold(Div(a, b))


@_interned
def _neg(a):
    if type(a) is Neg:
        return a._children[0]
    return _fold(Neg(a))


@_interned
def _pow(base, n: int):
    if n == 0:
        return _ONE
    if n == 1:
        return base
    return _fold(Pow(base, n))


@_interned
def _call(fn, arg):
    return _fold(Call(fn, arg))


def _coerce(v) -> "ScalarField | None":
    if isinstance(v, ScalarField):
        return v
    if isinstance(v, (int, float)):
        try:
            if math.isfinite(v):
                return Const(v)
        except OverflowError:  # an int beyond the float range
            pass
        raise ValueError(f"a constant must be a finite number, got {v!r}")
    return None


def as_field(v) -> ScalarField:
    """Coerce a number, expression string or field into a ScalarField.

    Raises ``ValueError`` for a non-finite number, which no expression text
    can spell.
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
            vals.append(Const(tok.value))
        elif tok.kind == "ident":
            name = tok.value
            if name in _COORD_INDEX:
                vals.append(Var(_COORD_INDEX[name]))
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


def evaluate(f: ScalarField, point) -> float:
    """Value of ``f`` at ``point``; see :meth:`ScalarField.evaluate`."""
    return f.evaluate(point)


def differentiate(f: ScalarField, var) -> ScalarField:
    """Exact partial derivative of ``f`` with respect to ``var`` (x, y or z)."""
    return f.diff(var)
