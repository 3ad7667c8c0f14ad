"""Inputs of the benchmark workloads and the checks applied to their outputs.

Everything here is independent of the package under test: the base plane
fields are kept as expression text, their invariant M and torsion det3 as
plain Python closed forms, and the derived inputs (respans, rigid motions)
are built by textual substitution.  Each check returns a list of problems,
empty when the output is correct.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

M_RTOL = 1e-6          # relative tolerance on M, with an absolute floor
M_ATOL = 1e-9
DET3_RTOL = 1e-9       # det3 is a small polynomial expression: tight
IDENTITY_TOL = 1e-8    # the documented default for dd_eta3 and q1_minus_p2
SAMPLE_BOX = (-1.0, 1.0)


@dataclass(frozen=True)
class Base:
    name: str
    x1: tuple[str, str, str]
    x2: tuple[str, str, str]
    det3: float                 # det(X1, X2, [X1, X2]), constant for both bases

    def m(self, x: float, y: float, z: float) -> float:
        if self.name == "heisenberg":
            r = x * x + y * y
            return 2.25 * r * r / (1.0 + r) ** 4
        return 0.25 * (2.0 * y * y - 1.0) ** 2 / (1.0 + y * y) ** 4


HEISENBERG = Base("heisenberg", ("1", "0", "-y"), ("0", "1", "x"), 2.0)
CARTAN = Base("cartan", ("1", "0", "-y"), ("0", "1", "0"), 1.0)
BASES = (HEISENBERG, CARTAN)

# grid-sweep: the constant respan of heisenberg named in the ROADMAP
FIXED_RESPAN = ("1.3", "-0.4", "0.5", "1.1")
# grid-sweep: x, y on 3 values each, z on 2 slices
SWEEP_GRID = {"x": [-0.9, 0.9, 3], "y": [-0.9, 0.9, 3], "z": [-0.6, 0.6, 2]}


@dataclass(frozen=True)
class Expected:
    """What one sample record must hold: M, det3 and an ``ok`` status."""

    point: tuple[float, float, float]
    m: float
    det3: float


@dataclass
class Case:
    """One distribution given as text, the points to sample and the answers."""

    name: str
    x1: tuple[str, str, str]
    x2: tuple[str, str, str]
    expected: list[Expected] = field(default_factory=list)

    @property
    def points(self) -> list[tuple[float, float, float]]:
        return [e.point for e in self.expected]

    def spec(self) -> dict:
        """The distribution as a ``cartan-contact/1`` input file."""
        return {"schema": "cartan-contact/1", "name": self.name,
                "fields": {"X1": list(self.x1), "X2": list(self.x2)}}


# -- input construction -------------------------------------------------------


def grid_points(grid: dict) -> list[tuple[float, float, float]]:
    """Row-major (x, y, z) expansion, n evenly spaced values inclusive."""
    axes = []
    for axis in ("x", "y", "z"):
        lo, hi, n = grid[axis]
        axes.append([float(lo)] if n == 1 else
                    [lo + i * (hi - lo) / (n - 1) for i in range(n)])
    return [(x, y, z) for x in axes[0] for y in axes[1] for z in axes[2]]


DEFAULT_GRID = {"x": [-1, 1, 5], "y": [-1, 1, 5], "z": [0.3, 0.3, 1]}


def respan_text(base: Base, f: str, g: str, h: str, k: str):
    """X1' = f X1 + g X2, X2' = h X1 + k X2, componentwise as text."""
    x1 = tuple(f"({f})*({a}) + ({g})*({b})" for a, b in zip(base.x1, base.x2))
    x2 = tuple(f"({h})*({a}) + ({k})*({b})" for a, b in zip(base.x1, base.x2))
    return x1, x2


def respan_case(name: str, base: Base, coeffs, points) -> Case:
    """A respan with coefficient polynomials ``coeffs`` = (f, g, h, k).

    Each coefficient is (text, callable); the answers are M of the base and
    det3' = (fk - gh)^2 det3 of the base.
    """
    (f, fv), (g, gv), (h, hv), (k, kv) = coeffs
    x1, x2 = respan_text(base, f, g, h, k)
    expected = []
    for p in points:
        det = fv(*p) * kv(*p) - gv(*p) * hv(*p)
        expected.append(Expected(p, base.m(*p), det * det * base.det3))
    return Case(name, x1, x2, expected)


def constant(c: float):
    return (repr(c), lambda x, y, z: c)


def sweep_cases() -> list[Case]:
    """grid-sweep: heisenberg, cartan and a fixed constant respan of heisenberg."""
    pts = grid_points(SWEEP_GRID)
    cases = [Case(b.name, b.x1, b.x2, [Expected(p, b.m(*p), b.det3) for p in pts])
             for b in BASES]
    coeffs = [constant(float(c)) for c in FIXED_RESPAN]
    cases.append(respan_case("heisenberg-respan", HEISENBERG, coeffs, pts))
    return cases


# point-dependent respans: coefficient i is c0 + c1*m1 + c2*m2 with the
# monomials of _MONOMIALS[i] and small c1, c2 (never 0, so no term folds
# away and every draw builds a DAG of the same shape)
_X = (lambda x, y, z: x)
_MONOMIALS = (
    (("x", _X), ("y*z", lambda x, y, z: y * z)),
    (("y^2", lambda x, y, z: y * y), ("x*z", lambda x, y, z: x * z)),
    (("x*y", lambda x, y, z: x * y), ("z", lambda x, y, z: z)),
    (("z^2", lambda x, y, z: z * z), ("x", _X)),
)


def _small(rng: random.Random) -> float:
    return round(rng.choice((-1, 1)) * rng.uniform(0.02, 0.12), 4)


def _poly(rng: random.Random, c0: float, monomials):
    (t1, m1), (t2, m2) = monomials
    c1, c2 = _small(rng), _small(rng)
    text = f"{c0!r} + {c1!r}*{t1} + {c2!r}*{t2}"
    return text, (lambda x, y, z: c0 + c1 * m1(x, y, z) + c2 * m2(x, y, z))


def box_points(rng: random.Random, n: int):
    lo, hi = SAMPLE_BOX
    return [tuple(round(rng.uniform(lo, hi), 6) for _ in range(3)) for _ in range(n)]


def draw_respan(rng: random.Random, base: Base, n_points: int, name: str) -> Case:
    """A point-dependent respan with |fk - gh| >= 0.4 on a 5^3 grid of the box."""
    check = grid_points({"x": [-1, 1, 5], "y": [-1, 1, 5], "z": [-1, 1, 5]})
    while True:
        a, d = rng.uniform(0.8, 1.5), rng.uniform(0.8, 1.5)
        b, c = (rng.choice((-1, 1)) * rng.uniform(0.05, 0.4) for _ in range(2))
        coeffs = [_poly(rng, round(v, 4), mono) for v, mono in zip((a, b, c, d), _MONOMIALS)]
        det = [coeffs[0][1](*p) * coeffs[3][1](*p) - coeffs[1][1](*p) * coeffs[2][1](*p)
               for p in check]
        if min(abs(v) for v in det) >= 0.4:
            break
    points = []
    while len(points) < n_points:
        p = box_points(rng, 1)[0]
        if abs(coeffs[0][1](*p) * coeffs[3][1](*p) - coeffs[1][1](*p) * coeffs[2][1](*p)) >= 0.4:
            points.append(p)
    return respan_case(name, base, coeffs, points)


def random_rotation(rng: random.Random):
    """Rotation matrix of a uniformly drawn unit quaternion."""
    while True:
        q = [rng.gauss(0.0, 1.0) for _ in range(4)]
        n = math.sqrt(sum(c * c for c in q))
        if n > 1e-3:
            break
    w, x, y, z = (c / n for c in q)
    return (
        (1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)),
        (2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)),
        (2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)),
    )


def motion_text(base: Base, rot, shift):
    """Push the base forward by phi(p) = R p + t: X'(q) = R X(R^T (q - t))."""
    inverse = []
    for j in range(3):  # coordinate j of R^T (q - t)
        terms = [f"({rot[i][j]!r})*({v} - ({shift[i]!r}))" for i, v in enumerate("xyz")]
        inverse.append("(" + " + ".join(terms) + ")")

    def substitute(text: str) -> str:
        # base texts hold no function names, so every x, y, z is a coordinate
        return "".join({"x": inverse[0], "y": inverse[1], "z": inverse[2]}.get(ch, ch)
                       for ch in text)

    def push(comps):
        pulled = [substitute(c) for c in comps]
        return tuple(" + ".join(f"({rot[i][j]!r})*({pulled[j]})" for j in range(3))
                     for i in range(3))

    return push(base.x1), push(base.x2)


def draw_motion(rng: random.Random, base: Base, n_points: int, name: str) -> Case:
    """A rigid motion of the base, sampled at phi(p) for drawn points p."""
    rot = random_rotation(rng)
    shift = tuple(round(rng.uniform(-1.0, 1.0), 6) for _ in range(3))
    x1, x2 = motion_text(base, rot, shift)
    expected = []
    for p in box_points(rng, n_points):
        q = tuple(sum(rot[i][j] * p[j] for j in range(3)) + shift[i] for i in range(3))
        expected.append(Expected(q, base.m(*p), base.det3))
    return Case(name, x1, x2, expected)


def field_batch_round(rng: random.Random) -> list[Case]:
    """Four new distributions: a point-dependent respan and a rigid motion of
    each base, at one or two drawn points (the count is fixed by position).

    Three of the four take two points and cost about the same, so the median
    operation of a run lies inside that group rather than between two groups.
    """
    return [
        draw_respan(rng, HEISENBERG, 2, "respan-heisenberg"),
        draw_respan(rng, CARTAN, 2, "respan-cartan"),
        draw_motion(rng, HEISENBERG, 2, "motion-heisenberg"),
        draw_motion(rng, CARTAN, 1, "motion-cartan"),
    ]


# -- checks -----------------------------------------------------------------


def _close(got, want, rtol, atol) -> bool:
    return got is not None and abs(got - want) <= max(rtol * abs(want), atol)


def check_records(records, expected: list[Expected], label: str) -> list[str]:
    """Each record (dict with point, status, det3, M, dd_eta3, q1_minus_p2)
    against its expected values, in sampling order."""
    if len(records) != len(expected):
        return [f"{label}: {len(records)} records for {len(expected)} points"]
    problems = []
    for r, e in zip(records, expected):
        where = f"{label} at {e.point}"
        if r["status"] != "ok":
            problems.append(f"{where}: status {r['status']}")
            continue
        if not _close(r["M"], e.m, M_RTOL, M_ATOL):
            problems.append(f"{where}: M = {r['M']!r}, expected {e.m!r}")
        if not _close(r["det3"], e.det3, DET3_RTOL, 0.0):
            problems.append(f"{where}: det3 = {r['det3']!r}, expected {e.det3!r}")
        for key in ("dd_eta3", "q1_minus_p2"):
            v = r[key]
            if v is None or abs(v) > IDENTITY_TOL:
                problems.append(f"{where}: {key} = {v!r} beyond {IDENTITY_TOL}")
    return problems


def report_records(report) -> list[dict]:
    """The library's SampleRecords as plain dicts."""
    return [{"point": tuple(s.point), "status": s.status, "det3": s.det3, "M": s.M,
             "dd_eta3": s.dd_eta3, "q1_minus_p2": s.q1_minus_p2} for s in report.samples]


def json_records(doc: dict) -> list[dict]:
    """Records of an ``analyze --format json`` document as plain dicts."""
    return [{"point": tuple(r["point"]), "status": r["status"], "det3": r["det3"],
             "M": r["M"], "dd_eta3": r["residuals"]["dd_eta3"],
             "q1_minus_p2": r["residuals"]["q1_minus_p2"]} for r in doc["records"]]


def table_records(text: str) -> list[dict]:
    """Records of an ``analyze`` table (tab-separated, '-' for absent)."""
    def num(cell):
        return None if cell == "-" else float(cell)

    out = []
    for line in text.splitlines():
        cells = line.split("\t")
        if cells[0] != "record":
            continue
        x, y, z, status, det3, _t312, _a1, _a2, m, dd, q = cells[1:]
        out.append({"point": (float(x), float(y), float(z)), "status": status,
                    "det3": num(det3), "M": num(m), "dd_eta3": num(dd),
                    "q1_minus_p2": num(q)})
    return out


def summary_of(expected: list[Expected]) -> dict:
    values = [e.m for e in expected]
    return {"n_ok": len(values), "M_min": min(values), "M_max": max(values)}


def compare_verdict(ms_a, ms_b, tol: float = 1e-6, zero_tol: float = 1e-9) -> str:
    """The screening rule of ``compare``, applied to closed-form values."""
    zero_a = all(abs(v) <= zero_tol for v in ms_a)
    zero_b = all(abs(v) <= zero_tol for v in ms_b)
    if zero_a != zero_b:
        return "distinguished"
    disjoint = all(abs(a - b) > tol * max(1.0, abs(a), abs(b)) for a in ms_a for b in ms_b)
    return "distinguished" if disjoint else "not distinguished by this test"


def check_compare(doc: dict, exp_a: list[Expected], exp_b: list[Expected]) -> list[str]:
    problems = []
    want_verdict = compare_verdict([e.m for e in exp_a], [e.m for e in exp_b])
    if doc.get("verdict") != want_verdict:
        problems.append(f"compare: verdict {doc.get('verdict')!r}, expected {want_verdict!r}")
    for side, exp in (("a", exp_a), ("b", exp_b)):
        got = doc[side]["summary"]
        want = summary_of(exp)
        if got["classification"] != "contact" or got["n_ok"] != want["n_ok"]:
            problems.append(f"compare side {side}: {got['classification']}, "
                            f"n_ok {got['n_ok']} (expected contact, {want['n_ok']})")
        for key in ("M_min", "M_max"):
            if not _close(got[key], want[key], M_RTOL, M_ATOL):
                problems.append(f"compare side {side}: {key} = {got[key]!r}, "
                                f"expected {want[key]!r}")
    return problems


def check_classified(doc: dict, kind: str, statuses: list[str], det3s: list[float]) -> list[str]:
    """An exit-2 ``analyze`` document: its classification, statuses and det3."""
    problems = []
    if doc["summary"]["classification"] != kind:
        problems.append(f"classification {doc['summary']['classification']!r}, expected {kind!r}")
    records = doc["records"]
    if [r["status"] for r in records] != statuses:
        problems.append(f"{kind}: record statuses differ from the expected ones")
    for r, want in zip(records, det3s):
        if r["det3"] is None or abs(r["det3"] - want) > 1e-9 * max(1.0, abs(want)):
            problems.append(f"{kind} at {r['point']}: det3 = {r['det3']!r}, expected {want!r}")
    if doc["summary"]["n_ok"] != 0:
        problems.append(f"{kind}: n_ok = {doc['summary']['n_ok']}, expected 0")
    return problems


def check_corpus(doc: dict) -> list[str]:
    want = {"heisenberg": "contact", "cartan": "contact", "exercise1a": "holonomic"}
    got = {r["name"]: (r["classification"], r["regression"]) for r in doc["rows"]}
    problems = []
    if doc.get("result") != "pass":
        problems.append(f"corpus: result {doc.get('result')!r}")
    for name, kind in want.items():
        if got.get(name) != (kind, "pass"):
            problems.append(f"corpus: {name} row {got.get(name)!r}, expected ({kind!r}, 'pass')")
    return problems


def load_json(text: str, label: str):
    try:
        return json.loads(text), []
    except json.JSONDecodeError as exc:
        return None, [f"{label}: output is not JSON ({exc})"]
