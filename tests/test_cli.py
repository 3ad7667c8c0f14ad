"""Command-line interface: formats, exit codes, diagnostics, determinism."""
from __future__ import annotations

import json
import math
import subprocess
import sys

import pytest

from cartan_contact import corpus, reduction, replace
from cartan_contact.cli import main
from cartan_contact.scalarfield import as_field


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def diagnostic(capsys, *argv) -> str:
    """Run the CLI and check it failed with a one-line diagnostic; returns it."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err.count("\n")) == (1, "", 1), err
    assert err.startswith("error: ")
    return err


def write_spec(tmp_path, name="custom", x1=("1", "0", "-y"), x2=("0", "1", "x"),
               sampling=None, tol=None, schema="cartan-contact/1"):
    doc = {"schema": schema, "name": name,
           "fields": {"X1": list(x1), "X2": list(x2)}}
    if sampling is not None:
        doc["sampling"] = sampling
    if tol is not None:
        doc["tol"] = tol
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def unreadable_spec(tmp_path, kind) -> str:
    """A spec path that exists but cannot be read as text."""
    if kind == "directory":
        return str(tmp_path)
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{}")   # a UTF-16 byte-order mark
    return str(path)


# fields whose evaluation meets overflow, underflow or a domain edge; in
# EDGE_RUNS each key stands for a spec file of its fields
EDGE_FIELDS = {
    "overflow-1e85": (("1e85", "0", "-y"), ("0", "1e85", "x")),
    "overflow-1e150": (("1e150", "0", "0"), ("0", "1", "x*1e150")),
    "large-1e80": (("1e80", "0", "-y"), ("0", "1e80", "x")),
    "power-1000": (("1", "0", "-y"), ("0", "1", "x^1000")),
    "exp": (("1", "0", "-y"), ("0", "1", "exp(x)")),
    "sqrt": (("1", "0", "-y"), ("0", "1", "sqrt(x)")),
    "scaled-1e-200": (("1e-200", "0", "-1e-200*y"), ("0", "1e-200", "1e-200*x")),
}
AT = "[[0.5,0.5,0.3]]"
UNDEFINED = "error: generators undefined at every sampled point\n"
# argv, exit code (None: any of 0, 1, 2) and the exact stderr (None: any)
EDGE_RUNS = {
    "overflow-1e85": (("analyze", "overflow-1e85", "--points", AT), 1, UNDEFINED),
    "overflow-1e150": (("analyze", "overflow-1e150", "--points", AT), 1, UNDEFINED),
    "large-1e80": (("analyze", "large-1e80", "--points", AT), 0, ""),
    "power-1000-at-2": (("analyze", "power-1000", "--points", "[[2,0,0.3]]"), 1, UNDEFINED),
    "exp-at-700": (("analyze", "exp", "--points", "[[700,0,0.3]]"), 1, UNDEFINED),
    "sqrt-at-0": (("analyze", "sqrt", "--points", "[[0,0,0.3]]"), 1, UNDEFINED),
    # |X1|^2 |X2|^2 underflows to 0 here, so the verdict is left open
    "scaled-1e-200": (("analyze", "scaled-1e-200", "--points", AT), None, None),
    "far-point": (("analyze", "heisenberg", "--points", "[[1e200,0,0]]"), 1, UNDEFINED),
    "compare-overflow": (("compare", "heisenberg", "overflow-1e150", "--points", AT),
                         1, UNDEFINED),
}


class TestAnalyze:
    def test_builtin_point_json(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "heisenberg",
                               "--points", "[[1,0,0.3]]", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "cartan-contact/1"
        assert doc["summary"]["classification"] == "contact"
        record = doc["records"][0]
        assert record["status"] == "ok"
        assert record["M"] == pytest.approx(0.140625, abs=1e-6)
        assert record["det3"] == pytest.approx(2.0, abs=1e-9)

    def test_default_grid_size_and_order(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "cartan", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        points = [tuple(r["point"]) for r in doc["records"]]
        assert len(points) == 25
        assert points[0] == (-1.0, -1.0, 0.3)
        assert points[1] == (-1.0, -0.5, 0.3)   # z innermost, then y
        assert points[5] == (-0.5, -1.0, 0.3)   # x outermost

    def test_holonomic_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "exercise1a")
        assert code == 2
        assert "holonomic" in out
        assert "holonomic" in err

    def test_mixed_exits_2(self, capsys, tmp_path):
        spec = write_spec(tmp_path, name="mixed", x2=("0", "1", "x^2"))
        code, out, _ = run_cli(capsys, "analyze", spec)
        assert code == 2
        assert "mixed" in out

    def test_unknown_identifier_diagnostic(self, capsys, tmp_path):
        spec = write_spec(tmp_path, name="bad", x1=("1", "0", "-w"))
        code, _, err = run_cli(capsys, "analyze", spec)
        assert code == 1
        assert "fields.X1[2]" in err
        assert "'w'" in err
        assert "byte 1" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "/nonexistent/input.json")
        assert code == 1
        assert "not found" in err

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_spec_diagnostic(self, capsys, tmp_path, kind):
        spec = unreadable_spec(tmp_path, kind)
        assert diagnostic(capsys, "analyze", spec).startswith(f"error: {spec}: cannot read (")

    @pytest.mark.parametrize("text, message", [
        ("[]", "top level must be an object"),
        ('{"schema": "cartan-contact/1", "fields": {"X1": ["1", "0", "-y"]}}',
         "fields must hold exactly X1 and X2"),
        ('{"schema": "cartan-contact/1", "fields": {"X1": ["1", "0"], "X2": ["0", "1", "x"]}}',
         "fields.X1: expected a list of exactly 3 expression strings"),
    ], ids=["not-an-object", "no-x2", "two-strings"])
    def test_malformed_spec_diagnostic(self, capsys, tmp_path, text, message):
        path = tmp_path / "spec.json"
        path.write_text(text)
        assert message in diagnostic(capsys, "analyze", str(path))

    @pytest.mark.parametrize("flag, value, message", [
        ("--grid", "[0,1,3]", "sampling.grid must be an object with axes x, y, z"),
        ("--grid", '{"x":[0,1],"y":[0,0,1],"z":[0,0,1]}', "sampling.grid.x must be [lo, hi, n]"),
        ("--points", "[]", "sampling.points must be a nonempty list of [x, y, z] triples"),
        ("--points", "[[1,0]]", "sampling.points[0] must be an [x, y, z] triple"),
    ], ids=["grid-not-an-object", "axis-not-a-triple", "no-points", "point-not-a-triple"])
    def test_malformed_sampling_diagnostic(self, capsys, flag, value, message):
        err = diagnostic(capsys, "analyze", "heisenberg", flag, value)
        assert err == f"error: {message}\n"

    def test_grid_expands_row_major(self, capsys):
        grid = '{"x":[0,1,2],"y":[-1,1,3],"z":[0.1,0.3,2]}'
        code, out, _ = run_cli(capsys, "analyze", "cartan", "--grid", grid, "--format", "json")
        assert code == 0
        points = [tuple(r["point"]) for r in json.loads(out)["records"]]
        assert points == [(x, y, z) for x in (0.0, 1.0) for y in (-1.0, 0.0, 1.0)
                          for z in (0.1, 0.3)]

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 1
        assert "malformed JSON" in err

    def test_wrong_schema(self, capsys, tmp_path):
        spec = write_spec(tmp_path, name="old", schema="cartan-contact/0")
        code, _, err = run_cli(capsys, "analyze", spec)
        assert code == 1
        assert "cartan-contact/1" in err

    def test_grid_needs_lo_le_hi(self, capsys, tmp_path):
        spec = write_spec(tmp_path, name="badgrid",
                          sampling={"grid": {"x": [1, -1, 5], "y": [0, 0, 1],
                                             "z": [0, 0, 1]}})
        code, _, err = run_cli(capsys, "analyze", spec)
        assert code == 1
        assert "lo <= hi" in err

    def test_sampling_must_be_single_kind(self, capsys, tmp_path):
        spec = write_spec(tmp_path, name="both",
                          sampling={"points": [[0, 0, 0]],
                                    "grid": {"x": [0, 0, 1], "y": [0, 0, 1],
                                             "z": [0, 0, 1]}})
        code, _, err = run_cli(capsys, "analyze", spec)
        assert code == 1
        assert "sampling" in err

    def test_file_sampling_points(self, capsys, tmp_path):
        spec = write_spec(tmp_path, name="pts",
                          sampling={"points": [[1, 0, 0.3], [0, 0, 0.3]]})
        code, out, _ = run_cli(capsys, "analyze", spec, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["records"]) == 2
        assert doc["summary"]["M_max"] == pytest.approx(0.140625, abs=1e-6)

    def test_table_one_record_per_line(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "cartan")
        assert code == 0
        record_lines = [l for l in out.splitlines() if l.startswith("record\t")]
        assert len(record_lines) == 25
        assert out.splitlines()[0] == "schema\tcartan-contact/1"

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(capsys, "analyze", "heisenberg", "--format", "json")
        _, second, _ = run_cli(capsys, "analyze", "heisenberg", "--format", "json")
        assert first == second

    @pytest.mark.parametrize("key", ["identity", "regression"])
    def test_non_numeric_tol_diagnostic(self, capsys, tmp_path, key):
        spec = write_spec(tmp_path, name="badtol", tol={key: "abc"})
        code, out, err = run_cli(capsys, "analyze", spec)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert f"tol.{key}" in err and "'abc'" in err

    def test_numeric_string_tol_diagnostic(self, capsys, tmp_path):
        spec = write_spec(tmp_path, name="strtol", tol={"identity": "1e-8"})
        err = diagnostic(capsys, "analyze", spec)
        assert err == "error: tol.identity must be a finite number, got '1e-8'\n"

    @pytest.mark.parametrize("key", ["identity", "regression"])
    def test_negative_tol_diagnostic(self, capsys, tmp_path, key):
        spec = write_spec(tmp_path, name="negtol", tol={key: -1})
        err = diagnostic(capsys, "analyze", spec)
        assert err == f"error: tol.{key} must not be negative, got -1.0\n"

    def test_zero_tol_runs(self, capsys, tmp_path):
        spec = write_spec(tmp_path, name="zerotol", tol={"identity": 0, "regression": 0},
                          sampling={"points": [[1, 0, 0.3]]})
        assert run_cli(capsys, "analyze", spec)[0] == 0
        assert run_cli(capsys, "analyze", "heisenberg", "--points", "[[1,0,0.3]]",
                       "--tol-identity", "0")[0] == 0

    def test_long_sum_component(self, capsys, tmp_path):
        # X1 z-component c*x*y with c = 1 + ... + 500 = 125250, so
        # [X1, X2] = (0, 0, 1 - c*x) and det3 = 1 - c*x
        z = " + ".join(f"x*y*{i}" for i in range(1, 501))
        spec = write_spec(tmp_path, name="long", x1=("1", "0", z),
                          sampling={"points": [[0.5, 0.25, 0.3]]})
        code, out, _ = run_cli(capsys, "analyze", spec, "--format", "json")
        assert code == 0
        record = json.loads(out)["records"][0]
        assert record["status"] == "ok"
        assert record["det3"] == 1 - 125250 * 0.5

    @pytest.mark.parametrize("x2z", [
        "(" * 1000 + "x" + ")" * 1000,
        "-" * 1000 + "x",
    ], ids=["parentheses", "minus"])
    def test_deep_nesting_analyzes(self, capsys, tmp_path, x2z):
        deep = write_spec(tmp_path, name="same", x2=("0", "1", x2z))
        code, out, _ = run_cli(capsys, "analyze", deep, "--format", "json")
        assert code == 0
        plain = write_spec(tmp_path, name="same", x2=("0", "1", "x"))
        assert run_cli(capsys, "analyze", plain, "--format", "json") == (0, out, "")

    def test_deep_sqrt_chain_analyzes(self, capsys, tmp_path):
        # sqrt^1000(x) is undefined for x < 0 and its derivative at x = 0
        spec = write_spec(tmp_path, name="deep", x2=("0", "1", "sqrt(" * 1000 + "x" + ")" * 1000))
        code, out, _ = run_cli(capsys, "analyze", spec, "--format", "json")
        assert code == 0
        records = json.loads(out)["records"]
        assert len(records) == 25
        assert all((r["status"] == "ok") == (r["point"][0] > 0) for r in records)

    def test_overflowing_constant_diagnostic(self, capsys, tmp_path):
        spec = write_spec(tmp_path, name="ovf", x1=("1", "0", "1e308*10 - y"))
        assert "undefined at every sampled point" in diagnostic(capsys, "analyze", spec)

    def test_grid_non_finite_endpoint(self, capsys, tmp_path):
        spec = write_spec(tmp_path, name="inf",
                          sampling={"grid": {"x": [-math.inf, 1, 3], "y": [0, 0, 1],
                                             "z": [0, 0, 1]}})
        assert "sampling.grid.x: endpoints must be finite" in diagnostic(capsys, "analyze", spec)

    @pytest.mark.parametrize("x", ["[NaN,1,3]", "[Infinity,1,3]"], ids=["nan", "inf"])
    def test_grid_non_finite_endpoint_before_order(self, capsys, x):
        grid = f'{{"x":{x},"y":[0,0,1],"z":[0,0,1]}}'
        err = diagnostic(capsys, "analyze", "heisenberg", "--grid", grid)
        assert err == "error: sampling.grid.x: endpoints must be finite\n"

    def test_grid_overflow_flag(self, capsys):
        grid = '{"x":[-1e308,1e308,3],"y":[0,0,1],"z":[0,0,1]}'
        err = diagnostic(capsys, "analyze", "heisenberg", "--grid", grid)
        assert "sampling.grid.x: grid points overflow" in err

    @pytest.mark.parametrize("grid, total", [
        ('{"x":[0,1,1000],"y":[0,1,1000],"z":[0,1,1000]}', 10 ** 9),
        ('{"x":[0,1,1000000000000],"y":[0,1,1],"z":[0,1,1]}', 10 ** 12),
        ('{"x":[0,1,1000],"y":[0,1,1000],"z":[0,1,2]}', 2 * 10 ** 6),
    ], ids=["cube", "one-axis", "just-over"])
    def test_grid_point_limit(self, capsys, grid, total):
        # rejected before any grid point is built, so this returns at once
        err = diagnostic(capsys, "analyze", "heisenberg", "--grid", grid)
        assert err.startswith(f"error: sampling.grid: {total} points, more than")

    def test_points_int_too_large(self, capsys):
        err = diagnostic(capsys, "analyze", "heisenberg", "--points", f"[[{'9' * 400}, 0, 0]]")
        assert "sampling.points[0]: int too large" in err

    @pytest.mark.parametrize("points", ["[[true,0,0.3]]", '[["1",0,0.3]]'],
                             ids=["bool", "string"])
    def test_points_must_be_numbers(self, capsys, points):
        err = diagnostic(capsys, "analyze", "heisenberg", "--points", points)
        assert err == "error: sampling.points[0]: coordinates must be numbers\n"

    def test_grid_count_must_not_be_bool(self, capsys):
        grid = '{"x":[0,1,true],"y":[0,0,1],"z":[0,0,1]}'
        err = diagnostic(capsys, "analyze", "heisenberg", "--grid", grid)
        assert "sampling.grid.x: count must be an integer >= 1" in err

    @pytest.mark.parametrize("x", ["[false,true,3]", '["0",1,3]'], ids=["bool", "string"])
    def test_grid_endpoints_must_be_numbers(self, capsys, x):
        grid = f'{{"x":{x},"y":[0,0,1],"z":[0,0,1]}}'
        err = diagnostic(capsys, "analyze", "heisenberg", "--grid", grid)
        assert err == "error: sampling.grid.x: endpoints must be numbers\n"

    def test_large_coefficients_are_no_internal_error(self, capsys, tmp_path):
        # a1 is -2.7e11 here; M = 7.4734649121008009e22 is sympy's value at
        # 40 digits, and the residuals stay within the identity tolerance
        spec = write_spec(tmp_path, name="large", x2=("0", "1", "x + sin(1000000*y)"),
                          sampling={"points": [[0.5, -0.7, 0.3]]})
        code, out, err = run_cli(capsys, "analyze", spec, "--format", "json")
        assert (code, err) == (0, "")
        (record,) = json.loads(out)["records"]
        assert record["status"] == "ok"
        assert record["M"] == pytest.approx(7.4734649121008009e22, rel=1e-12)

    def test_consistency_error_is_internal_error(self, capsys, monkeypatch):
        build = reduction._frame_invariants
        broken = lambda D: replace(build(D), q1_minus_p2=as_field(1))
        monkeypatch.setattr(reduction, "_frame_invariants", broken)
        code, out, err = run_cli(capsys, "analyze", "heisenberg", "--points", "[[1,0,0.3]]")
        assert (code, out, err.count("\n")) == (1, "", 1)
        assert err.startswith("internal error: d(d eta3) = 0 forces Q1 = P2")

    def test_deeply_nested_spec_file(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        assert "JSON nests too deep" in diagnostic(capsys, "analyze", str(path))

    def test_deeply_nested_points_flag(self, capsys):
        err = diagnostic(capsys, "analyze", "heisenberg", "--points", "[" * 3000)
        assert "--points: JSON nests too deep" in err

    @pytest.mark.parametrize("tol", [0, False, "", []],
                             ids=["zero", "false", "empty-string", "empty-list"])
    def test_falsy_tol_diagnostic(self, capsys, tmp_path, tol):
        spec = write_spec(tmp_path, name="falsy", tol=tol)
        assert "tol must be an object" in diagnostic(capsys, "analyze", spec)

    def test_null_tol_keeps_defaults(self, capsys, tmp_path):
        spec = write_spec(tmp_path, name="same")
        path = tmp_path / "same.json"
        path.write_text(path.read_text()[:-1] + ', "tol": null}')
        _, plain, _ = run_cli(capsys, "analyze", spec)
        assert run_cli(capsys, "analyze", str(path)) == (0, plain, "")

    def test_tol_identity_flag_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "heisenberg",
                               "--points", "[[1,0,0.3]]", "--tol-identity", "1e-15",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["records"][0]["status"] == "ok"


class TestCompare:
    def test_heisenberg_vs_cartan(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "heisenberg", "cartan")
        assert code == 0
        assert out.rstrip().endswith("verdict\tdistinguished")

    def test_self_comparison(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "heisenberg", "heisenberg")
        assert code == 0
        assert out.rstrip().endswith("verdict\tnot distinguished by this test")

    def test_respanned_not_distinguished(self, capsys, tmp_path):
        spec = write_spec(tmp_path, name="respanned",
                          x1=("1", "1", "x-y"), x2=("0", "1", "x"))
        code, out, _ = run_cli(capsys, "compare", "heisenberg", spec)
        assert code == 0
        assert "not distinguished by this test" in out

    def test_json_document(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "heisenberg", "cartan",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "distinguished"
        assert doc["a"]["summary"]["M_max"] == pytest.approx(0.140625, abs=1e-6)
        assert doc["b"]["summary"]["M_max"] == pytest.approx(0.25, abs=1e-6)

    def test_tol_identity_reaches_both_sides(self, capsys):
        # at (0.5, -1, 0.3) heisenberg's residuals are a few ulp, not 0, so
        # a tolerance of 1e-30 makes the point singular
        flags = ["--points", "[[0.5,-1,0.3],[1,0,0.3]]", "--tol-identity", "1e-30",
                 "--format", "json"]
        code, out, _ = run_cli(capsys, "compare", "heisenberg", "cartan", *flags)
        assert code == 0
        doc = json.loads(out)
        for side, name in (("a", "heisenberg"), ("b", "cartan")):
            _, alone, _ = run_cli(capsys, "analyze", name, *flags)
            assert doc[side]["summary"] == json.loads(alone)["summary"]
        assert doc["a"]["summary"]["n_singular"] == 1

    def test_no_usable_point_diagnostic(self, capsys):
        code, out, err = run_cli(capsys, "compare", "heisenberg", "cartan",
                                 "--points", "[[0.5,-1,0.3]]", "--tol-identity", "1e-30")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "usable point" in err

    def test_ignored_settings_of_b_noted(self, capsys, tmp_path):
        plain = write_spec(tmp_path, name="plain")
        own = write_spec(tmp_path, name="own", sampling={"points": [[0, 0, 0]]},
                         tol={"identity": 1e-3, "regression": 0.5})
        _, out_plain, err_plain = run_cli(capsys, "compare", "heisenberg", plain)
        code, out_own, err_own = run_cli(capsys, "compare", "heisenberg", own)
        assert code == 0
        assert out_own == out_plain.replace("\tplain\t", "\town\t")
        assert err_plain == ""
        assert err_own.count("\n") == 1
        assert "tol.identity, tol.regression, sampling" in err_own
        # flags replace the file's settings on both sides: nothing is ignored
        _, _, err = run_cli(capsys, "compare", "heisenberg", own, "--points", "[[1,0,0.3]]",
                            "--tol-identity", "1e-8", "--tol-regression", "1e-6")
        assert err == ""

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_second_spec_diagnostic(self, capsys, tmp_path, kind):
        spec = unreadable_spec(tmp_path, kind)
        err = diagnostic(capsys, "compare", "heisenberg", spec)
        assert err.startswith(f"error: {spec}: cannot read (")

    def test_holonomic_side_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "compare", "heisenberg", "exercise1a")
        assert code == 2
        assert "holonomic" in err


class TestCorpus:
    def test_all_builtins_pass(self, capsys):
        code, out, _ = run_cli(capsys, "corpus")
        assert code == 0
        lines = out.splitlines()
        rows = {l.split("\t")[1]: l.split("\t") for l in lines if l.startswith("row\t")}
        assert set(rows) == {"heisenberg", "cartan", "exercise1a"}
        assert rows["heisenberg"][2] == "contact"
        assert rows["heisenberg"][3] == "1"       # |T312| of the generator frame
        assert rows["cartan"][3] == "1"
        assert rows["exercise1a"][2] == "holonomic"
        assert rows["exercise1a"][3] == "-"       # no torsion for holonomic rows
        assert lines[-1] == "result\tpass"

    def test_corpus_json_deterministic(self, capsys):
        code, first, _ = run_cli(capsys, "corpus", "--format", "json")
        assert code == 0
        doc = json.loads(first)
        assert doc["result"] == "pass"
        assert [r["name"] for r in doc["rows"]] == ["heisenberg", "cartan", "exercise1a"]
        _, second, _ = run_cli(capsys, "corpus", "--format", "json")
        assert first == second

    def test_corpus_list(self, capsys):
        code, out, _ = run_cli(capsys, "corpus", "--corpus-list")
        assert code == 0
        assert out.split() == ["heisenberg", "cartan", "exercise1a"]

    def test_loose_regression_tolerance_accepted(self, capsys):
        code, _, _ = run_cli(capsys, "corpus", "--tol-regression", "1e-3")
        assert code == 0

    @staticmethod
    def patch_builtin(monkeypatch, name, **changes):
        builtin = replace(corpus.BUILTINS[name], **changes)
        monkeypatch.setitem(corpus.BUILTINS, name, builtin)

    def test_closed_form_mismatch_fails(self, capsys, monkeypatch):
        m_cartan = corpus.BUILTINS["cartan"].m_closed
        self.patch_builtin(monkeypatch, "cartan",
                           m_closed=lambda x, y, z: 2 * m_cartan(x, y, z))
        code, out, _ = run_cli(capsys, "corpus")
        assert code == 1
        lines = out.splitlines()
        # the first ok grid point is (-1, -1, 0.3), where M = 1/64
        assert lines[-2:] == ["failure\tcartan\t-1,-1,0.3\texpected\t0.03125\tgot\t0.015625",
                              "result\tfail"]
        assert "row\tcartan\tcontact\t1\t0.015625\t0.25\tfail" in lines
        code, out, _ = run_cli(capsys, "corpus", "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["result"] == "fail"
        assert doc["failure"] == {"name": "cartan", "point": [-1.0, -1.0, 0.3],
                                  "expected": 0.03125, "got": 0.015625}

    def test_kind_mismatch_fails_without_point(self, capsys, monkeypatch):
        self.patch_builtin(monkeypatch, "exercise1a", expected_kind="contact")
        code, out, _ = run_cli(capsys, "corpus")
        assert code == 1
        lines = out.splitlines()
        assert lines[-2:] == ["failure\texercise1a\t-\texpected\tcontact\tgot\tholonomic",
                              "result\tfail"]
        code, out, _ = run_cli(capsys, "corpus", "--format", "json")
        assert json.loads(out)["failure"] == {"name": "exercise1a", "point": None,
                                              "expected": "contact", "got": "holonomic"}


class TestEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cartan_contact", "corpus", "--corpus-list"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "heisenberg" in proc.stdout

    @pytest.mark.parametrize("argv", [
        ("analyze", "heisenberg", "--tol-identity", "nan"),
        ("compare", "heisenberg", "cartan", "--tol-identity", "inf"),
        ("compare", "heisenberg", "cartan", "--tol-regression", "inf"),
        ("corpus", "--tol-identity", "inf"),
        ("corpus", "--tol-regression", "nan"),
    ], ids=["analyze-identity", "compare-identity", "compare-regression",
            "corpus-identity", "corpus-regression"])
    def test_non_finite_tol_flag_diagnostic(self, capsys, argv):
        flag, value = argv[-2:]
        err = diagnostic(capsys, *argv)
        assert f"{flag} must be a finite number, got {float(value)!r}" in err

    @pytest.mark.parametrize("argv", [
        ("analyze", "heisenberg", "--points", "[[1,0,0.3]]", "--tol-identity", "-1"),
        ("compare", "heisenberg", "cartan", "--tol-identity", "-0.001"),
        ("compare", "heisenberg", "cartan", "--tol-regression", "-1"),
        ("corpus", "--tol-identity", "-0.5"),
        ("corpus", "--tol-regression", "-0.000001"),
    ], ids=["analyze-identity", "compare-identity", "compare-regression",
            "corpus-identity", "corpus-regression"])
    def test_negative_tol_flag_diagnostic(self, capsys, argv):
        flag, value = argv[-2:]
        err = diagnostic(capsys, *argv)
        assert err == f"error: {flag} must not be negative, got {float(value)!r}\n"

    @pytest.mark.parametrize("argv, message", [
        (("corpus", "--tol-identity", "-inf"), "argument --tol-identity: expected one argument"),
        (("analyze",), "the following arguments are required: spec"),
        (("frobnicate",), "argument command: invalid choice: 'frobnicate'"),
    ], ids=["option-value", "missing-spec", "unknown-subcommand"])
    def test_usage_error_exits_1(self, capsys, argv, message):
        # exit code 2 is kept for holonomic and mixed classifications
        assert message in diagnostic(capsys, *argv)

    @pytest.mark.parametrize("name", EDGE_RUNS)
    def test_no_traceback(self, capsys, tmp_path, name):
        argv, code, message = EDGE_RUNS[name]
        argv = [write_spec(tmp_path, name=a, x1=EDGE_FIELDS[a][0], x2=EDGE_FIELDS[a][1])
                if a in EDGE_FIELDS else a for a in argv]
        got, out, err = run_cli(capsys, *argv)
        assert got in (0, 1, 2) if code is None else got == code, err
        if got == 1:
            assert (out, err.count("\n")) == ("", 1) and err.startswith("error: "), err
        if message is not None:
            assert err == message

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "analyze" in capsys.readouterr().out
