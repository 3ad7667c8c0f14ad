"""The package's frozen records: construction, immutability, equality, repr, replace."""
from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cartan_contact import Point, SampleRecord, classify, corpus, replace

ROOT = Path(__file__).resolve().parent.parent


class TestRecord:
    def test_positional_and_keyword_construction_with_defaults(self):
        p = Point(0.0, 1.0, 2.0)
        by_position = SampleRecord(p, "ok", 2.0)
        by_keyword = SampleRecord(status="ok", det3=2.0, point=Point(x=0.0, z=2.0, y=1.0))
        assert by_position == by_keyword
        assert (by_position.point, by_position.status, by_position.det3) == (p, "ok", 2.0)
        assert by_position.M is None and by_position.q1_minus_p2 is None

    @pytest.mark.parametrize("args, kwargs", [
        ((0.0, 1.0, 2.0, 3.0), {}),
        ((0.0, 1.0), {}),
        ((0.0, 1.0, 2.0), {"w": 0.0}),
        ((0.0, 1.0, 2.0), {"x": 0.0}),
    ], ids=["too-many", "missing", "unknown", "repeated"])
    def test_bad_arguments(self, args, kwargs):
        with pytest.raises(TypeError):
            Point(*args, **kwargs)

    def test_frozen(self):
        p = Point(0.0, 1.0, 2.0)
        with pytest.raises(AttributeError):
            p.x = 5.0
        with pytest.raises(AttributeError):
            p.w = 5.0
        with pytest.raises(AttributeError):
            del p.x
        assert p == Point(0.0, 1.0, 2.0)

    def test_equality_and_hash_by_fields(self):
        a, b = Point(0.0, 1.0, 2.0), Point(0, 1, 2)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, Point(0.0, 1.0, 3.0)}) == 2
        assert a != Point(0.0, 1.0, 3.0)
        # a record is not a tuple, even where it iterates like one
        assert a != (0.0, 1.0, 2.0) and tuple(a) == (0.0, 1.0, 2.0)
        assert SampleRecord(a, "ok") != SampleRecord(a, "singular")

    def test_replace_returns_a_new_record(self):
        record = SampleRecord(Point(0.0, 1.0, 2.0), "ok", det3=2.0, M=0.5)
        changed = replace(record, M=0.25, status="singular")
        assert changed == SampleRecord(Point(0.0, 1.0, 2.0), "singular", det3=2.0, M=0.25)
        assert (record.status, record.M) == ("ok", 0.5)
        assert replace(record) == record and replace(record) is not record
        with pytest.raises(TypeError):
            replace(record, m=0.25)

    def test_point_validates_on_every_construction(self):
        with pytest.raises(ValueError, match="^point coordinates must be numbers, got 'a'$"):
            Point(x="a", y=0, z=0)
        with pytest.raises(ValueError, match="^point coordinates must be finite, got inf$"):
            replace(Point(0.0, 1.0, 2.0), y=math.inf)

    def test_repr(self):
        record = SampleRecord(Point(0.5, -0.25, 0.3), "ok", 2.0, -1.0, -0.125, 0.25, 0.078125,
                              0.0, 1e-16)
        assert repr(record) == (
            "SampleRecord(point=Point(x=0.5, y=-0.25, z=0.3), status='ok', det3=2.0, "
            "T312=-1.0, a1=-0.125, a2=0.25, M=0.078125, dd_eta3=0.0, q1_minus_p2=1e-16)")
        assert repr(SampleRecord(Point(0.0, 1.0, 2.0), "singular")) == (
            "SampleRecord(point=Point(x=0.0, y=1.0, z=2.0), status='singular', det3=None, "
            "T312=None, a1=None, a2=None, M=None, dd_eta3=None, q1_minus_p2=None)")
        assert repr(Point(1, 2.5, -0.0)) == "Point(x=1, y=2.5, z=-0.0)"
        (at_origin,) = classify(corpus.distribution("heisenberg"), [Point(0.0, 0.0, 0.0)]).records
        assert repr(at_origin) == (
            "PointClassification(point=Point(x=0.0, y=0.0, z=0.0), status='contact', "
            "det3=2.0, scale=2.0)")


def test_cli_import_leaves_out_heavy_modules():
    # every CLI command starts a fresh interpreter and pays for these imports;
    # -S keeps site from loading typing or pathlib on its own
    src = str(ROOT / "src")
    probe = ("import cartan_contact.cli, sys; "
             "print(sorted({'dataclasses', 'inspect', 'typing', 'pathlib'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[]\n"
