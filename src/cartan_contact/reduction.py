"""Structure-group reduction for contact plane fields on R^3.

Starting from two generating vector fields with the ambient Euclidean scalar
product on their span, the pipeline

1. classifies the plane field (holonomic / contact / mixed) from the
   commutator determinant,
2. builds an adapted frame (Gram-Schmidt pair completed by the commutator)
   and its dual coframe (stage B0),
3. rescales eta^3 so the eta^1^eta^2 coefficient of d(eta^3) becomes 1
   (stage B1).  On the stage-B0 section of step 2 that coefficient is
   t12 = (d eta^3)(e1, e2) = -eta^3([e1, e2]) = -1 by duality, so
   :func:`reduce` applies the exact scale -1 (eta^3 -> -eta^3, e3 -> -e3);
   :func:`normalize_scale` divides by the symbolic t12 and so also serves
   sections built by hand,
4. absorbs the remaining d(eta^3) coefficients into eta^1, eta^2
   (stage B2), and
5. extracts the scalar differential invariant M = a1^2 + a2^2 together with
   the absorbed pseudoconnection coefficients.

Stages transform coframe sections by explicit structure-group elements; the
dual frame is carried along by the exact inverse transformation, never by a
second matrix inversion.

The stage functions carry coordinate coframes and read each coefficient off
a dual frame's bracket, (d eta)(e_a, e_b) = eta([e_b, e_a]).  :func:`reduce`
reaches the same B2 section without them, from the structure functions of
the generator frame (X1, X2, [X1, X2]) and the matrix taking it to a B0 frame
with e3 = [X1, X2]/|X1 x X2|; nothing is differentiated beyond brackets and
a few scalars.  The coordinate path stays as library API, a second derivation
of the same outputs, and for the residual T312 of :func:`reduce`.
"""
from __future__ import annotations

import math

from ._record import Record, replace
from .scalarfield import (ExpressionSyntaxError, Point, ScalarField, _evaluate_points,
                          _interning, _point_tuple, as_field, sqrt)
from .forms import (
    Coframe,
    Frame,
    VectorField,
    _cross,
    _row,
    commutator,
    complete_frame,
    differential,
    dot,
    dual_coframe,
    exterior_derivative,
    exterior_derivative2,
    gram_schmidt,
    norm,
    triple_product,
)

__all__ = [
    "Distribution",
    "Classification",
    "PointClassification",
    "AdaptedCoframe",
    "TorsionSlice",
    "SampleRecord",
    "InvariantReport",
    "ComparisonResult",
    "HolonomicError",
    "MixedTypeError",
    "DegenerateInput",
    "ConsistencyError",
    "classify",
    "build_adapted",
    "adapted_from_orthonormal",
    "contact_torsion",
    "normalize_scale",
    "absorb_translations",
    "extract_invariants",
    "reduce",
    "compare",
    "default_grid_points",
    "grid_axis",
]

# threshold of classify: a sine at or below it, or a det3 at or below it
# times its scale, counts as vanished
_DEGENERACY_RTOL = 1e-9
# per-point threshold of Classification.samples(), the records reduce starts from
POINT_HOLONOMIC_RTOL = 1e-8
# residual tolerances; CONSISTENCY_TOL is relative to max(1, |a1|, |a2|)
IDENTITY_TOL = 1e-8
CONSISTENCY_TOL = 1e-6
REGRESSION_TOL = 1e-6
ZERO_TOL = 1e-9


class HolonomicError(ValueError):
    """The plane field is holonomic (integrable) on the sampled domain."""

    def __init__(self, classification=None) -> None:
        super().__init__("holonomic distribution: the planes integrate to surfaces")
        self.classification = classification


class MixedTypeError(ValueError):
    """The plane field changes type (contact/holonomic) across the sampled domain."""

    def __init__(self, classification=None) -> None:
        super().__init__("mixed-type distribution: holonomic locus meets the sampled domain")
        self.classification = classification


class DegenerateInput(ValueError):
    """The generators are dependent at a sampled point, or undefined at all of them."""

    def __init__(self, message: str, point=None) -> None:
        if point is not None:
            message = f"{message} at point {tuple(point)}"
        super().__init__(message)
        self.point = point


class ConsistencyError(AssertionError):
    """An exact structural identity failed beyond tolerance: upstream bug."""

    def __init__(self, point, value) -> None:
        super().__init__(
            f"d(d eta3) = 0 forces Q1 = P2, but Q1 - P2 = {value:.3e} at {tuple(point)}"
        )
        self.point = point
        self.value = value


class Distribution(Record):
    """A plane field span{X1, X2} with the induced Euclidean scalar product."""

    X1: VectorField
    X2: VectorField
    name: str = ""

    @classmethod
    def from_components(cls, x1, x2, name: str = "") -> "Distribution":
        """X1 = ``x1`` and X2 = ``x2``, three fields, numbers or expression texts
        each, parsed in one intern table, so a repeated structure is one node.
        The one parser of a distribution's texts: a text's ExpressionSyntaxError
        is re-raised as it is, its ``component`` set to "X1[0]" ... "X2[2]"."""
        vectors = []
        with _interning():
            for k, components in enumerate((x1, x2), 1):
                fields = []
                for i, c in enumerate(components):
                    try:
                        fields.append(as_field(c))
                    except ExpressionSyntaxError as exc:
                        exc.component = f"X{k}[{i}]"
                        raise
                vectors.append(VectorField(*fields))
        return cls(*vectors, name=name)


class PointClassification(Record):
    point: Point
    status: str            # "contact" | "holonomic" | "undefined"
    det3: float | None     # det(X1, X2, [X1, X2])
    scale: float | None    # |X1| |X2| |[X1, X2]|


class Classification(Record):
    kind: str              # "holonomic" | "contact" | "mixed"
    records: tuple[PointClassification, ...]

    def samples(self) -> tuple[SampleRecord, ...]:
        """The one rule for the points no output is evaluated at: ``singular``
        where undefined, ``holonomic-at-point`` where |det3| <= 1e-8 * scale,
        ``singular`` with its det3 elsewhere, the records :func:`reduce` evaluates."""
        return tuple(SampleRecord(r.point, "holonomic-at-point" if r.det3 is not None and
                                  abs(r.det3) <= POINT_HOLONOMIC_RTOL * r.scale
                                  else "singular", det3=r.det3) for r in self.records)


class AdaptedCoframe(Record):
    """A coframe section with its dual frame and reduction stage tag.

    Stage B0: (eta^1, eta^2) restrict to an orthonormal positively oriented
    coframe of the plane field and eta^3 annihilates it.  Stage B1 adds
    c3_12 = 1; stage B2 additionally c3_23 = c3_31 = 0.
    """

    coframe: Coframe
    frame: Frame
    stage: str


class TorsionSlice(Record):
    """The d(eta^3) expansion coefficients (t23, t31, t12) at the current stage."""

    t23: ScalarField
    t31: ScalarField
    t12: ScalarField


class SampleRecord(Record):
    point: Point
    status: str            # "ok" | "singular" | "holonomic-at-point"
    det3: float | None = None
    T312: float | None = None
    a1: float | None = None
    a2: float | None = None
    M: float | None = None
    dd_eta3: float | None = None
    q1_minus_p2: float | None = None


# the per-point outputs that reduce evaluates: SampleRecord's fields after det3;
# T312 comes first, so a record whose later outputs fail can still carry it
OUTPUTS = SampleRecord._fields[SampleRecord._fields.index("det3") + 1:]


class InvariantReport(Record):
    """Invariant and pseudoconnection fields plus per-point samples.

    a1, a2 individually depend on the residual rotation freedom of the frame;
    only M = a1^2 + a2^2 is invariant.  A1, A2, A3 are the coefficients of the
    absorbed pseudoconnection alpha = A1 eta^1 + A2 eta^2 + A3 eta^3.
    T312 is the generator frame's t12 = xi^3([X2, X1]) = -C^3_12; only
    :func:`reduce` sets it, and evaluates it into each sample's ``T312``.
    """

    a1: ScalarField
    a2: ScalarField
    M: ScalarField
    A1: ScalarField
    A2: ScalarField
    A3: ScalarField
    dd_eta3: ScalarField
    q1_minus_p2: ScalarField
    samples: tuple[SampleRecord, ...] = ()
    classification: Classification | None = None
    T312: ScalarField | None = None

    def ok_samples(self) -> tuple[SampleRecord, ...]:
        return tuple(s for s in self.samples if s.status == "ok")

    @property
    def n_ok(self) -> int:
        return len(self.ok_samples())

    @property
    def n_singular(self) -> int:
        return len(self.samples) - self.n_ok

    def m_range(self) -> tuple[float, float] | None:
        values = [s.M for s in self.ok_samples()]
        if not values:
            return None
        return (min(values), max(values))


class ComparisonResult(Record):
    verdict: str           # "distinguished" | "not distinguished by this test"
    report_a: InvariantReport
    report_b: InvariantReport


def grid_axis(lo: float, hi: float, n: int) -> list[float]:
    """n evenly spaced values on [lo, hi], ending exactly at hi; n = 1 yields lo."""
    if n < 1:
        raise ValueError("grid axis needs at least one sample")
    if n == 1:
        return [float(lo)]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [float(hi)]


def default_grid_points() -> list[Point]:
    """The library's default sample grid: x, y in {-1,-0.5,0,0.5,1}, z = 0.3."""
    xs = grid_axis(-1.0, 1.0, 5)
    ys = grid_axis(-1.0, 1.0, 5)
    zs = [0.3]
    return [Point(x, y, z) for x in xs for y in ys for z in zs]


def classify(D: Distribution, points) -> Classification:
    """Per-point holonomicity of span{X1, X2} from det(X1, X2, [X1, X2]).

    A point is holonomic when |det3| <= 1e-9 * |X1| |X2| |[X1, X2]|, and
    undefined where a field cannot be evaluated.  Raises
    :class:`DegenerateInput` where the generators are linearly dependent (|X1|
    or |X2| is 0, or the sine |X1/|X1| x X2/|X2|| is <= 1e-9), or when they
    are undefined at every point.  This is the library's only per-point
    degeneracy check; the stage builders only construct.
    """
    points = [Point(*_point_tuple(p)) for p in points]
    if not points:
        raise ValueError("classification needs a nonempty point list")
    bracket = commutator(D.X1, D.X2)
    det3 = triple_product(D.X1, D.X2, bracket)
    n1 = norm(D.X1)
    n2 = norm(D.X2)
    nb = norm(bracket)
    sine = norm(_cross(D.X1 / n1, D.X2 / n2))
    records = []
    for p, (v, error) in zip(points, _evaluate_points((n1, n2, sine, nb, det3), points)):
        # |X1| and |X2| are tested before the sine, which divides by them
        if len(v) > 1 and (v[0] == 0 or v[1] == 0 or len(v) > 2 and v[2] <= _DEGENERACY_RTOL):
            raise DegenerateInput("generators are linearly dependent", p)
        if error is not None:
            records.append(PointClassification(p, "undefined", None, None))
            continue
        v1, v2, _, vb, d = v
        scale = v1 * v2 * vb
        status = "holonomic" if abs(d) <= _DEGENERACY_RTOL * scale else "contact"
        records.append(PointClassification(p, status, d, scale))
    defined = [r.status for r in records if r.status != "undefined"]
    if not defined:
        raise DegenerateInput("generators undefined at every sampled point")
    if all(s == "holonomic" for s in defined):
        kind = "holonomic"
    elif all(s == "contact" for s in defined):
        kind = "contact"
    else:
        kind = "mixed"
    return Classification(kind, tuple(records))


def adapted_from_orthonormal(e1: VectorField, e2: VectorField) -> AdaptedCoframe:
    """Frame (e1, e2, [e1, e2]) of a spanning pair with its dual coframe.

    Stage B0 if the pair is orthonormal; t12 = -eta^3([e1, e2]) = -1 for any
    pair.  Nothing is verified; it degenerates where the span is holonomic.
    """
    frame = complete_frame(e1, e2)
    return AdaptedCoframe(dual_coframe(frame), frame, "B0")


def build_adapted(D: Distribution) -> AdaptedCoframe:
    """Adapted stage-B0 coframe of a contact distribution.

    Orthonormalises the generators, completes the frame with e3 = [e1, e2]
    and inverts symbolically for the dual coframe.  Nothing is verified:
    :func:`classify` the points first, as :func:`reduce` does; the section is
    undefined where the generators are dependent and degenerates where the
    span is holonomic.  Builds in the open intern table, or in one of its
    own when none is open.
    """
    with _interning():
        e1, e2 = gram_schmidt(D.X1, D.X2)
        return adapted_from_orthonormal(e1, e2)


def contact_torsion(A: AdaptedCoframe) -> TorsionSlice:
    """The d(eta^3) expansion, row 3 of the structure coefficients.

    Builds that row alone, as eta^3([e_b, e_a]), in the open intern table or
    its own; :func:`reduce`'s T312 is its t12 = xi^3([X2, X1]) = -C^3_12.
    """
    with _interning():
        return TorsionSlice(*_row(A.coframe.eta3, A.frame))


def normalize_scale(A: AdaptedCoframe) -> AdaptedCoframe:
    """Rescale eta^3 by its own torsion so that c3_12 becomes exactly 1.

    Applies the structure-group element with rotation identity, zero
    translations and scale t12: eta^3 -> eta^3 / t12, dual frame
    e3 -> t12 * e3.  Negative t12 is allowed (the group only requires a
    nonzero scale); it flips the coframe orientation and leaves M unchanged.
    Works on any stage-B0 section; on a frame completed by the commutator,
    as :func:`build_adapted`'s is, t12 = -1 identically, and the generator
    frame path of :func:`reduce` applies that scale exactly.  Nothing is
    verified: the B1 section is undefined where t12 vanishes.
    """
    if A.stage != "B0":
        raise ValueError(f"normalize_scale expects stage B0, got {A.stage}")
    t12 = contact_torsion(A).t12
    eta1, eta2, eta3 = A.coframe.forms
    e1, e2, e3 = A.frame.fields
    return AdaptedCoframe(Coframe(eta1, eta2, eta3 / t12), Frame(e1, e2, e3 * t12), "B1")


def absorb_translations(A: AdaptedCoframe) -> AdaptedCoframe:
    """Shift eta^1, eta^2 by multiples of eta^3 so c3_23 = c3_31 = 0.

    Applies the group element with translations (t23, t31): eta^1 -> eta^1 -
    t23 eta^3, eta^2 -> eta^2 - t31 eta^3, dual frame e3 -> e3 + t23 e1 +
    t31 e2; eta^3 and c3_12 = 1 are untouched.
    """
    if A.stage != "B1":
        raise ValueError(f"absorb_translations expects stage B1, got {A.stage}")
    torsion = contact_torsion(A)
    t23, t31 = torsion.t23, torsion.t31
    eta1, eta2, eta3 = A.coframe.forms
    e1, e2, e3 = A.frame.fields
    return AdaptedCoframe(
        Coframe(eta1 - eta3 * t23, eta2 - eta3 * t31, eta3),
        Frame(e1, e2, e3 + e1 * t23 + e2 * t31),
        "B2",
    )


def extract_invariants(A: AdaptedCoframe) -> InvariantReport:
    """The invariants of a B2 section (:func:`_read_off`): its rows read off
    the dual frame's brackets, and d(d eta^3) by coordinate exterior
    derivatives.  Builds in the open intern table or its own."""
    if A.stage != "B2":
        raise ValueError(f"extract_invariants expects stage B2, got {A.stage}")
    with _interning():
        return _read_off(*_row(A.coframe.eta1, A.frame), *_row(A.coframe.eta2, A.frame),
                         exterior_derivative2(exterior_derivative(A.coframe.eta3)))


def _read_off(p1, q1, r1, p2, q2, r2, dd) -> InvariantReport:
    """Absorb the pseudoconnection and read off the invariant M = a1^2 + a2^2.

    With d eta^i = P_i eta^2^eta^3 + Q_i eta^3^eta^1 + R_i eta^1^eta^2 for
    i = 1, 2 on a B2 section, the unique connection alpha = A1 eta^1 +
    A2 eta^2 + A3 eta^3 killing the eta^1^eta^2 torsion of both equations
    and balancing the two off-diagonal coefficients is A1 = R1, A2 = R2,
    A3 = -(P1 + Q2)/2; then a1 = (P1 - Q2)/2, a2 = Q1.  The identity
    d(d eta^3) = 0 forces Q1 = P2, recorded as the q1_minus_p2 residual;
    ``dd`` is the caller's form of d(d eta^3) itself.
    """
    a1 = (p1 - q2) / 2
    return InvariantReport(a1=a1, a2=q1, M=a1 * a1 + q1 * q1, A1=r1, A2=r2,
                           A3=-(p1 + q2) / 2, dd_eta3=dd, q1_minus_p2=q1 - p2)


def _frame_invariants(X: tuple[VectorField, VectorField, VectorField]) -> InvariantReport:
    """What :func:`extract_invariants` gives on the B2 section that
    :func:`reduce` reaches, built from the structure functions of the
    generator frame X = (X1, X2, X3 = [X1, X2]) instead of coordinate forms.

    [X_i, X_j] = C^k_ij X_k, so C^k_12 = delta^k_3 and
    C^k_i3 = xi^k([X_i, X3]), xi being the coframe dual to X.  The B0 frame
    e = A X is read through its Gram-Schmidt factor R = A^-1, X_k = R_kl e_l,
    whose rows are (|X1|, 0, 0), (g12/|X1|, m, 0) and, for e3 = X3/|X1 x X2|,
    (0, 0, s), with m = sqrt(g22 - g12^2/g11) and s = sqrt(g11 g22 - g12^2).
    With e_a(f) = A_a^i X_i(f), b_ab is [e_a, e_b] in the e basis, read
    through R, and c^l_ab = -b_ab[l]: AR = I turns e_a(A_bk) R_kl into
    -A_bk e_a(R_kl), so only R's lengths are differentiated.  As [e1, e2] = e3
    modulo the plane, t12 = -1, and c^i_12 = -b12[i] holds first derivatives
    only.  The B1 flip and the B2 translations (t_1, t_2) = (t23, t31) =
    (c^3_23, c^3_31) give the frame (e1, e2, t23 e1 + t31 e2 - e3) and forms
    eta^i + t_i eta^3, whose eta^3 terms cancel: P_i = b23[i] - e2(t_i) +
    t23 b12[i], Q_i = b31[i] + e1(t_i) + t31 b12[i], R_i = -t_i - b12[i].

    dd_eta3 is the l = 3 Jacobi sum of the generator frame, its form of
    d(d eta3) = 0, and scales like |X1||X2|; on the e frame the same sum is
    Q1 - P2 term by term, which is scale-free and alone decides a status.
    """
    det3 = triple_product(*X)
    xi = (_cross(X[1], X[2]), _cross(X[2], X[0]), _cross(X[0], X[1]))
    zero = as_field(0)
    C = {(0, 1): (zero, zero, as_field(1))}
    for i in (0, 1):
        Xi3 = commutator(X[i], X[2])
        C[i, 2] = tuple(dot(w, Xi3) / det3 for w in xi)

    def c(i, j, k):   # C^k_ij, antisymmetric in i, j
        if i == j:
            return zero
        return C[i, j][k] if i < j else -C[j, i][k]

    def along(i, f):   # X_i(f)
        return dot(X[i], differential(f))

    g11, g12, g22 = dot(X[0], X[0]), dot(X[0], X[1]), dot(X[1], X[1])
    n1, m, s = sqrt(g11), sqrt(g22 - g12 * g12 / g11), sqrt(g11 * g22 - g12 * g12)
    R = ((n1, zero, zero), (g12 / n1, m, zero), (zero, zero, s))   # X_k = R[k][l] e_l
    A = ((1 / n1, zero, zero), (-g12 / (g11 * m), 1 / m, zero), (zero, zero, 1 / s))

    def e(a, f):   # e_a(f), over A's nonzero entries
        return sum((A[a][i] * along(i, f) for i in range(3) if A[a][i] is not zero), zero)

    def bracket(a, b):   # [e_a, e_b] in the e basis, read through R
        v = [sum((A[a][i] * A[b][j] * c(i, j, k) for i in range(a + 1) for j in range(b + 1)),
                 zero) for k in range(3)]
        return tuple(sum((v[k] * R[k][l] + A[a][k] * e(b, R[k][l]) - A[b][k] * e(a, R[k][l])
                          for k in range(l, 3)), zero) for l in range(3))

    b12, b23, b31 = bracket(0, 1), bracket(1, 2), bracket(2, 0)
    t23, t31 = -b23[2], -b31[2]
    p1, p2 = b23[0] - e(1, t23) + t23 * b12[0], b23[1] - e(1, t31) + t23 * b12[1]
    q1, q2 = b31[0] + e(0, t23) + t31 * b12[0], b31[1] + e(0, t31) + t31 * b12[1]
    return _read_off(p1, q1, -t23 - b12[0], p2, q2, -t31 - b12[1],
                     along(1, C[0, 2][2]) - along(0, C[1, 2][2]) - C[1, 2][1] - C[0, 2][0])


def reduce(D: Distribution, points, identity_tol: float = IDENTITY_TOL) -> InvariantReport:
    """Run the full reduction over sample points.

    The symbolic pipeline is built once, in one intern table, so a structure
    built twice is one node.  The outputs come from the structure functions
    of the generator frame (X1, X2, [X1, X2]) (:func:`_frame_invariants`):
    the B0 frame of the Gram-Schmidt pair and e3 = [X1, X2]/|X1 x X2|, the
    exact scale -1 to stage B1, and the B2 translations with the c^i_12
    terms of that e3, in closed form.  ``dd_eta3`` is the generator frame's
    form of d(d eta3) = 0; ``q1_minus_p2`` is Q1 - P2.  ``T312`` is the t12
    of :func:`contact_torsion` on the generator frame and its dual coframe
    (:func:`adapted_from_orthonormal`), -C^3_12 = -1, a residual for the
    C^k_12 = delta^k_3 that the outputs apply exactly.  The six outputs are
    evaluated together (``scalarfield._evaluate_points``), so subtrees they
    share are computed once per point, and only the first point walks the DAG.
    Far from unit size the pipeline is built on 2^-n (X1, X2), n the multiple
    of 64 nearest a quarter of the binary exponent of |X1||X2||[X1, X2]| at
    the median point (0 within 2^+-32 of unit size), and ``dd_eta3`` is
    divided back by 4^-n: the factor is exact, moves no other output, and
    keeps the DAG's products of many generator factors from underflow and
    overflow, where a record could be wrong yet ``ok``.

    :func:`classify` runs first and is the pipeline's only gate: a holonomic
    or mixed classification raises :class:`HolonomicError` or
    :class:`MixedTypeError`, with the :class:`Classification` attached.
    The records start as :meth:`Classification.samples`; the outputs are
    evaluated at its ``singular`` records that carry a det3, each then ``ok``
    exactly when its outputs are defined and |q1 - p2| <= ``identity_tol``;
    only ``ok`` points enter aggregates.  No status reads the value of T312
    or of ``dd_eta3`` (it scales like |X1||X2| under X_i -> c X_i, which
    leaves M unchanged).
    :class:`ConsistencyError` is raised where q1 - p2 is defined and beyond
    1e-6 max(1, |a1|, |a2|): it is exact.
    """
    with _interning():
        cls = classify(D, points)
        if cls.kind == "holonomic":
            raise HolonomicError(cls)
        if cls.kind == "mixed":
            raise MixedTypeError(cls)
        exponents = sorted(math.frexp(r.scale)[1] for r in cls.records if r.scale is not None)
        c = 2.0 ** (-64 * round(exponents[len(exponents) // 2] / 256))
        X1, X2 = (D.X1, D.X2) if c == 1 else (D.X1 * c, D.X2 * c)
        section = adapted_from_orthonormal(X1, X2)
        t12 = contact_torsion(section).t12
        inv = _frame_invariants(section.frame.fields)
        inv = replace(inv, T312=t12, dd_eta3=inv.dd_eta3 / (c * c))

    samples = list(cls.samples())
    todo = [i for i, s in enumerate(samples) if s.status == "singular" and s.det3 is not None]
    outputs = [getattr(inv, key) for key in OUTPUTS]
    points = [samples[i].point for i in todo]
    for i, p, (v, error) in zip(todo, points, _evaluate_points(outputs, points)):
        det3 = samples[i].det3
        if error is not None:
            samples[i] = SampleRecord(p, "singular", det3, *v[:1])
            continue
        s = SampleRecord(p, "ok", det3, *v)
        if abs(s.q1_minus_p2) > CONSISTENCY_TOL * max(1.0, abs(s.a1), abs(s.a2)):
            raise ConsistencyError(p, s.q1_minus_p2)
        samples[i] = s if abs(s.q1_minus_p2) <= identity_tol else replace(s, status="singular")
    return replace(inv, samples=tuple(samples), classification=cls)


def compare(D1: Distribution, D2: Distribution, points,
            regression_tol: float = REGRESSION_TOL,
            identity_tol: float = IDENTITY_TOL) -> ComparisonResult:
    """Screen two distributions by their sampled invariant values.

    Verdict ``distinguished`` when the sampled M value sets share no value
    within tolerance, or when one M vanishes identically on the samples and
    the other does not.  Anything else is ``not distinguished by this test``:
    agreement is necessary for equivalence, never sufficient.  Both sides
    are reduced with ``identity_tol``, as :func:`reduce` uses it.
    """
    ra = reduce(D1, points, identity_tol=identity_tol)
    rb = reduce(D2, points, identity_tol=identity_tol)
    va = [s.M for s in ra.ok_samples()]
    vb = [s.M for s in rb.ok_samples()]
    if not va or not vb:
        raise ValueError("comparison needs at least one usable point on each side")
    zero_a = all(abs(v) <= ZERO_TOL for v in va)
    zero_b = all(abs(v) <= ZERO_TOL for v in vb)
    if zero_a != zero_b:
        verdict = "distinguished"
    else:
        disjoint = all(
            abs(x - y) > regression_tol * max(1.0, abs(x), abs(y))
            for x in va for y in vb
        )
        verdict = "distinguished" if disjoint else "not distinguished by this test"
    return ComparisonResult(verdict, ra, rb)
