"""Command-line front end.

Subcommands
-----------
analyze SPEC          run the reduction over a sample set, emit a report
compare SPEC_A SPEC_B run both and report whether the invariant distinguishes them
corpus                run every builtin against its stored closed-form invariant

SPEC is either a builtin name (see ``corpus --corpus-list``) or a path to a
JSON input file with top-level schema tag ``cartan-contact/1``::

    {
      "schema": "cartan-contact/1",
      "name": "my-distribution",
      "fields": {"X1": ["1", "0", "-y"], "X2": ["0", "1", "x"]},
      "sampling": {"grid": {"x": [-1, 1, 5], "y": [-1, 1, 5], "z": [0.3, 0.3, 1]}},
      "tol": {"identity": 1e-8, "regression": 1e-6}
    }

``sampling`` may instead hold explicit ``points`` ([[x, y, z], ...]); when
omitted the default grid x, y in {-1, -0.5, 0, 0.5, 1}, z = 0.3 is used.
Grids expand row-major in (x, y, z), n evenly spaced values per axis
inclusive of endpoints, to at most 10^6 points in all.

Exit codes: 0 success, 1 input or regression errors (a malformed command
line included), 2 holonomic (or mixed-type) classification.  Machine output
is deterministic: fixed field order, floats at 12 significant digits.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from . import corpus as corpus_mod
from ._record import Record
from .reduction import (
    ConsistencyError,
    DegenerateInput,
    Distribution,
    HolonomicError,
    InvariantReport,
    MixedTypeError,
    OUTPUTS,
    SampleRecord,
    compare as compare_pipeline,
    default_grid_points,
    grid_axis,
    reduce as reduce_pipeline,
    REGRESSION_TOL,
    IDENTITY_TOL,
    ZERO_TOL,
)
from .scalarfield import ExpressionSyntaxError, Point

SCHEMA = "cartan-contact/1"

_RECORD_COLUMNS = ("point_x", "point_y", "point_z", "status", "det3", *OUTPUTS)
_SIDE_COLUMNS = ("classification", "n_ok", "n_singular", "M_min", "M_max")
_CORPUS_COLUMNS = ("name", "classification", "T312_abs", "M_min", "M_max", "regression")
# most points a grid may expand to, checked before any is built: a million
# records is far beyond any report a reader uses, and far below what
# exhausts memory
_MAX_GRID_POINTS = 10 ** 6


class CliError(Exception):
    """Input problem: reported as a one-line diagnostic, exit code 1."""


class InputSpec(Record):
    name: str
    x1: tuple[str, str, str]
    x2: tuple[str, str, str]
    points: list[Point]
    tol_identity: float
    tol_regression: float
    # settings the input file gave and no command-line flag replaced, e.g.
    # ("tol.identity", "sampling")
    from_file: tuple[str, ...] = ()


# -- formatting ---------------------------------------------------------------


def _fmt(v) -> str:
    # table cells come from documents whose numbers _num has rounded
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _num(v):
    if v is None:
        return None
    if v == 0.0:
        v = 0.0  # normalise -0.0
    return float(f"{v:.12g}")


def _table(*rows) -> str:
    """One line per row, its cells formatted by :func:`_fmt` and tab-separated."""
    return "".join("\t".join(_fmt(c) for c in row) + "\n" for row in rows)


# -- input loading ------------------------------------------------------------


def _points_from_grid(grid) -> list[Point]:
    if not isinstance(grid, dict) or set(grid) != {"x", "y", "z"}:
        raise CliError("sampling.grid must be an object with axes x, y, z")
    bounds = {}
    total = 1
    for axis in ("x", "y", "z"):
        spec = grid[axis]
        if not isinstance(spec, (list, tuple)) or len(spec) != 3:
            raise CliError(f"sampling.grid.{axis} must be [lo, hi, n]")
        lo, hi, n = spec
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise CliError(f"sampling.grid.{axis}: count must be an integer >= 1")
        if not (_is_number(lo) and _is_number(hi)):
            raise CliError(f"sampling.grid.{axis}: endpoints must be numbers")
        lo, hi = _finite(lo), _finite(hi)
        if lo is None or hi is None:
            raise CliError(f"sampling.grid.{axis}: endpoints must be finite")
        if not lo <= hi:
            raise CliError(f"sampling.grid.{axis}: needs lo <= hi")
        bounds[axis] = (lo, hi, n)
        total *= n
    if total > _MAX_GRID_POINTS:
        raise CliError(f"sampling.grid: {total} points, more than the "
                       f"{_MAX_GRID_POINTS} a grid may have")
    axes = {}
    for axis, (lo, hi, n) in bounds.items():
        axes[axis] = grid_axis(lo, hi, n)
        if not all(map(math.isfinite, axes[axis])):
            raise CliError(f"sampling.grid.{axis}: grid points overflow")
    return [Point(x, y, z) for x in axes["x"] for y in axes["y"] for z in axes["z"]]


def _points_from_list(items) -> list[Point]:
    if not isinstance(items, (list, tuple)) or not items:
        raise CliError("sampling.points must be a nonempty list of [x, y, z] triples")
    pts = []
    for i, item in enumerate(items):
        if not isinstance(item, (list, tuple)) or len(item) != 3:
            raise CliError(f"sampling.points[{i}] must be an [x, y, z] triple")
        if not all(map(_is_number, item)):
            raise CliError(f"sampling.points[{i}]: coordinates must be numbers")
        try:
            pts.append(Point(*(float(c) for c in item)))
        except (ValueError, OverflowError) as exc:
            raise CliError(f"sampling.points[{i}]: {exc}") from exc
    return pts


def _points_from_sampling(sampling) -> list[Point]:
    if sampling is None:
        return default_grid_points()
    if not isinstance(sampling, dict) or len(sampling) != 1 \
            or next(iter(sampling)) not in ("points", "grid"):
        raise CliError("sampling must hold exactly one of 'points' or 'grid'")
    if "points" in sampling:
        return _points_from_list(sampling["points"])
    return _points_from_grid(sampling["grid"])


def _known_keys(obj: dict, allowed: tuple[str, ...], where: str) -> None:
    unknown = next((key for key in obj if key not in allowed), None)
    if unknown is not None:
        raise CliError(f"{where}: unknown key {unknown!r}, expected one of {', '.join(allowed)}")


def load_spec(path_or_name: str, args) -> InputSpec:
    """Resolve a builtin name or read and validate an input file."""
    if path_or_name in corpus_mod.BUILTINS:
        b = corpus_mod.get(path_or_name)
        raw = {"name": b.name, "fields": {"X1": list(b.x1), "X2": list(b.x2)}}
    else:
        try:
            with open(path_or_name) as f:
                text = f.read()
        except FileNotFoundError:
            raise CliError(f"input file not found: {path_or_name}") from None
        except (OSError, UnicodeDecodeError) as exc:
            raise CliError(f"{path_or_name}: cannot read ({exc})") from None
        raw = _load_json(text, path_or_name)
        if not isinstance(raw, dict):
            raise CliError(f"{path_or_name}: top level must be an object")
        if raw.get("schema") != SCHEMA:
            raise CliError(f"{path_or_name}: schema must be {SCHEMA!r}, got {raw.get('schema')!r}")
        _known_keys(raw, ("schema", "name", "fields", "sampling", "tol"), path_or_name)
    fields = raw.get("fields")
    if not isinstance(fields, dict) or set(fields) != {"X1", "X2"}:
        raise CliError("fields must hold exactly X1 and X2")
    for key in ("X1", "X2"):
        exprs = fields[key]
        if not isinstance(exprs, list) or len(exprs) != 3 \
                or not all(isinstance(e, str) for e in exprs):
            raise CliError(f"fields.{key}: expected a list of exactly 3 expression strings")

    tol = raw.get("tol")
    if tol is None:
        tol = {}
    elif not isinstance(tol, dict):
        raise CliError("tol must be an object")
    _known_keys(tol, ("identity", "regression"), "tol")
    tols = {}
    from_file = []
    for key, default in (("identity", IDENTITY_TOL), ("regression", REGRESSION_TOL)):
        tols[key] = _tol_value(tol.get(key, default), f"tol.{key}")
        flag = _flag_tol(args, f"tol_{key}", None)
        if flag is not None:
            tols[key] = flag
        elif key in tol:
            from_file.append(f"tol.{key}")

    sampling = raw.get("sampling")
    if getattr(args, "points", None) is not None:
        sampling = {"points": _load_json(args.points, "--points")}
    elif getattr(args, "grid", None) is not None:
        sampling = {"grid": _load_json(args.grid, "--grid")}
    elif sampling is not None:
        from_file.append("sampling")
    points = _points_from_sampling(sampling)

    return InputSpec(
        name=str(raw.get("name", path_or_name)),
        x1=tuple(fields["X1"]),
        x2=tuple(fields["X2"]),
        points=points,
        tol_identity=tols["identity"],
        tol_regression=tols["regression"],
        from_file=tuple(from_file),
    )


def _is_number(value) -> bool:
    """Whether ``value`` is a JSON number; booleans and strings are not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value) -> float | None:
    """``value`` as a finite float if it is a number (see :func:`_is_number`), or None."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return number if _is_number(value) and math.isfinite(number) else None


def _tol_value(value, name: str) -> float:
    number = _finite(value)
    if number is None:
        raise CliError(f"{name} must be a finite number, got {value!r}")
    if number < 0:
        raise CliError(f"{name} must not be negative, got {number!r}")
    return number


def _flag_tol(args, dest: str, default):
    """The tolerance flag ``dest`` checked like one from a file, or ``default``."""
    value = getattr(args, dest, None)
    if value is None:
        return default
    return _tol_value(value, "--" + dest.replace("_", "-"))


def _load_json(text: str, where: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"{where}: malformed JSON ({exc})") from exc
    except RecursionError:
        raise CliError(f"{where}: JSON nests too deep to read") from None


def build_distribution(spec: InputSpec) -> Distribution:
    try:
        return Distribution.from_components(spec.x1, spec.x2, name=spec.name)
    except ExpressionSyntaxError as exc:
        raise CliError(f"fields.{exc.component}: {exc}") from exc


# -- report assembly ----------------------------------------------------------


def _record_dict(s: SampleRecord) -> dict:
    return {
        "point": [_num(c) for c in s.point],
        "status": s.status,
        "det3": _num(s.det3),
        "T312": _num(s.T312),
        "a1": _num(s.a1),
        "a2": _num(s.a2),
        "M": _num(s.M),
        "residuals": {"dd_eta3": _num(s.dd_eta3), "q1_minus_p2": _num(s.q1_minus_p2)},
    }


def _summary(kind: str, samples) -> dict:
    m_ok = [s.M for s in samples if s.status == "ok"]
    return {
        "classification": kind,
        "M_min": _num(min(m_ok)) if m_ok else None,
        "M_max": _num(max(m_ok)) if m_ok else None,
        "n_ok": len(m_ok),
        "n_singular": len(samples) - len(m_ok),
    }


def _report(name: str, kind: str, samples) -> dict:
    return {"schema": SCHEMA, "name": name, "summary": _summary(kind, samples),
            "records": [_record_dict(s) for s in samples]}


def report_from_invariants(name: str, report: InvariantReport) -> dict:
    return _report(name, "contact", report.samples)


def report_from_classification(name: str, classification) -> dict:
    return _report(name, classification.kind, classification.samples())


def _analyze_rows(doc: dict):
    s = doc["summary"]
    yield ("schema", doc["schema"])
    yield ("name", doc["name"])
    yield ("classification", s["classification"])
    yield ("header", *_RECORD_COLUMNS)
    for r in doc["records"]:
        cells = {**dict(zip(_RECORD_COLUMNS, r["point"])), **r, **r["residuals"]}
        yield ("record", *(cells[c] for c in _RECORD_COLUMNS))
    yield ("summary", "n_ok", s["n_ok"], "n_singular", s["n_singular"],
           "M_min", s["M_min"], "M_max", s["M_max"])


def _compare_rows(doc: dict):
    yield ("schema", doc["schema"])
    yield ("header", "side", "name", *_SIDE_COLUMNS)
    for side in ("a", "b"):
        s = doc[side]["summary"]
        yield ("side", side, doc[side]["name"], *(s[c] for c in _SIDE_COLUMNS))
    yield ("verdict", doc["verdict"])


def _corpus_rows(doc: dict):
    yield ("schema", doc["schema"])
    yield ("header", *_CORPUS_COLUMNS)
    for r in doc["rows"]:
        yield ("row", *(r[c] for c in _CORPUS_COLUMNS))
    if "failure" in doc:
        f = doc["failure"]
        point = ",".join(_fmt(c) for c in f["point"]) if f["point"] else None
        yield ("failure", f["name"], point, "expected", f["expected"], "got", f["got"])
    yield ("result", doc["result"])


def _emit(report: dict, fmt: str, rows) -> None:
    """Write ``report`` as JSON, or as the table of ``rows(report)``."""
    if fmt == "json":
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    else:
        sys.stdout.write(_table(*rows(report)))


# -- subcommands ----------------------------------------------------------------


def cmd_analyze(args) -> int:
    spec = load_spec(args.spec, args)
    dist = build_distribution(spec)
    try:
        report = reduce_pipeline(dist, spec.points, identity_tol=spec.tol_identity)
    except (HolonomicError, MixedTypeError) as exc:
        classification = exc.classification
        _emit(report_from_classification(spec.name, classification), args.format,
              _analyze_rows)
        print(f"classification: {classification.kind} (no contact reduction performed)",
              file=sys.stderr)
        return 2
    except DegenerateInput as exc:
        raise CliError(str(exc)) from exc
    _emit(report_from_invariants(spec.name, report), args.format, _analyze_rows)
    return 0


def _side_summary(name: str, report: InvariantReport) -> dict:
    return {"name": name, "summary": _summary("contact", report.samples)}


def cmd_compare(args) -> int:
    spec_a = load_spec(args.spec_a, args)
    spec_b = load_spec(args.spec_b, args)
    dist_a = build_distribution(spec_a)
    dist_b = build_distribution(spec_b)
    if spec_b.from_file:
        # both sides are sampled and judged with A's settings
        print(f"note: {', '.join(spec_b.from_file)} of {args.spec_b} ignored; "
              f"compare uses those of {args.spec_a}", file=sys.stderr)
    try:
        result = compare_pipeline(dist_a, dist_b, spec_a.points,
                                  regression_tol=spec_a.tol_regression,
                                  identity_tol=spec_a.tol_identity)
    except (HolonomicError, MixedTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # DegenerateInput, or a side with no usable point
        raise CliError(str(exc)) from exc
    doc = {
        "schema": SCHEMA,
        "a": _side_summary(spec_a.name, result.report_a),
        "b": _side_summary(spec_b.name, result.report_b),
        "verdict": result.verdict,
    }
    _emit(doc, args.format, _compare_rows)
    return 0


def _corpus_row(name: str, tol_identity: float, tol_regression: float):
    """Reduce one builtin on the default grid and check it against its
    expected kind and closed form; returns its row and its first failure."""
    builtin = corpus_mod.get(name)
    row = {"name": name, "classification": "contact", "T312_abs": None,
           "M_min": None, "M_max": None, "regression": "pass"}
    ok = ()
    try:
        report = reduce_pipeline(corpus_mod.distribution(name), default_grid_points(),
                                 identity_tol=tol_identity)
    except (HolonomicError, MixedTypeError) as exc:
        row["classification"] = exc.classification.kind
    else:
        ok = report.ok_samples()
        if ok:
            row["T312_abs"] = _num(abs(ok[0].T312))
            row["M_min"], row["M_max"] = (_num(m) for m in report.m_range())
    failure = None
    if builtin.expected_kind != row["classification"]:
        failure = {"name": name, "point": None,
                   "expected": builtin.expected_kind, "got": row["classification"]}
    elif builtin.m_closed is not None:
        for s in ok:
            want = builtin.m_closed(*s.point)
            if abs(s.M - want) > max(tol_regression * abs(want), ZERO_TOL):
                failure = {"name": name, "point": [_num(c) for c in s.point],
                           "expected": _num(want), "got": _num(s.M)}
                break
    if failure is not None:
        row["regression"] = "fail"
    return row, failure


def cmd_corpus(args) -> int:
    if args.corpus_list:
        for name in corpus_mod.names():
            print(name)
        return 0
    tol_regression = _flag_tol(args, "tol_regression", REGRESSION_TOL)
    tol_identity = _flag_tol(args, "tol_identity", IDENTITY_TOL)
    results = [_corpus_row(name, tol_identity, tol_regression) for name in corpus_mod.names()]
    failures = [f for _, f in results if f is not None]
    doc = {"schema": SCHEMA, "rows": [row for row, _ in results],
           "result": "fail" if failures else "pass"}
    if failures:
        doc["failure"] = failures[0]
    _emit(doc, args.format, _corpus_rows)
    return 1 if failures else 0


# -- entry point ----------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, points_grid: bool, regression: bool) -> None:
    p.add_argument("--format", choices=("table", "json"), default="table",
                   help="output format (default: table)")
    p.add_argument("--tol-identity", type=float, default=None, metavar="TOL",
                   help=f"residual tolerance for exact identities (default {IDENTITY_TOL:g})")
    if regression:
        p.add_argument("--tol-regression", type=float, default=None, metavar="TOL",
                       help="relative tolerance against reference values "
                            f"(default {REGRESSION_TOL:g})")
    if points_grid:
        group = p.add_mutually_exclusive_group()
        group.add_argument("--points", metavar="JSON",
                           help='sample points, e.g. "[[1,0,0.3],[0,0,1]]"')
        group.add_argument("--grid", metavar="JSON",
                           help='sample grid, e.g. \'{"x":[-1,1,5],"y":[-1,1,5],"z":[0.3,0.3,1]}\'')


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a malformed command line as a :class:`CliError`, so it exits 1
    with one line like any other input problem; exit code 2 means a holonomic
    or mixed classification.  ``--help`` still prints and exits 0."""

    def error(self, message):
        raise CliError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="cartan-contact",
        description="Classify contact plane fields on R^3 and compute their "
                    "differential invariant M.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="reduce one distribution and report M")
    p_analyze.add_argument("spec", help="builtin name or input JSON path")
    _add_common(p_analyze, points_grid=True, regression=False)
    p_analyze.set_defaults(func=cmd_analyze)

    p_compare = sub.add_parser("compare", help="compare two distributions by sampled M")
    p_compare.add_argument("spec_a", help="builtin name or input JSON path")
    p_compare.add_argument("spec_b", help="builtin name or input JSON path")
    _add_common(p_compare, points_grid=True, regression=True)
    p_compare.set_defaults(func=cmd_compare)

    p_corpus = sub.add_parser("corpus", help="run all builtins against stored references")
    _add_common(p_corpus, points_grid=False, regression=True)
    p_corpus.add_argument("--corpus-list", action="store_true",
                          help="list builtin names and exit")
    p_corpus.set_defaults(func=cmd_corpus)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:  # exact identity failed: internal bug
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
