"""Every ``ok`` record against a 60-digit ``decimal`` replay of its own DAG.

``reduce`` evaluates a1, a2 and M in binary floating point; ``decimal60``
replays the same nodes at the same point to 60 correct digits.  The bound is
relative: M against |M60|, and a1, a2 against sqrt(|M60|), the size of
(a1, a2), since each alone is fixed only up to the frame's residual rotation
and may cancel to far below it.  Where M60 is 0, a1, a2 and M are held to an
absolute floor instead.  The worst error measured on these records is
1.94e-14, M of a field-batch motion of cartan at (0.1, -0.2, 0.3).

Uses the standard library only, so it runs wherever Tier-1 runs.
"""
from __future__ import annotations

import importlib.util
from decimal import Decimal
from pathlib import Path

import pytest

from cartan_contact import corpus
from cartan_contact.reduction import Distribution, default_grid_points, reduce
from cartan_contact.scalarfield import parse
from decimal60 import replay
from helpers import THREE_POINTS, respan_pd

RTOL = 1e-13
ATOL = 1e-15
TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def field_batch():
    """(distribution, points) of the 48 field-batch cases of ``tools/records.py``."""
    spec = importlib.util.spec_from_file_location("records", TOOLS / "records.py")
    records = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(records)
    return [(dist, points) for _, dist, points in records.field_batch()]


def misfits(rep) -> list:
    """(point, output, value, replay) of each a1, a2 or M of an ``ok`` record
    beyond the bound."""
    out = []
    for s in rep.ok_samples():
        a1, a2, m = replay((rep.a1, rep.a2, rep.M), s.point)
        size = float(abs(m))
        for key, got, want, scale in (("a1", s.a1, a1, size ** 0.5),
                                      ("a2", s.a2, a2, size ** 0.5), ("M", s.M, m, size)):
            bound = RTOL * scale if m else ATOL
            if float(abs(Decimal(got) - want)) > bound:
                out.append((s.point, key, got, float(want)))
    return out


def test_field_batch_records_match_replay(field_batch):
    reports = [reduce(dist, points) for dist, points in field_batch]
    assert sum(rep.n_ok for rep in reports) == 132
    assert [bad for bad in map(misfits, reports) if bad] == []


@pytest.mark.parametrize("name", ["heisenberg", "cartan"])
def test_corpus_grid_records_match_replay(name):
    rep = reduce(corpus.distribution(name), default_grid_points())
    assert rep.n_ok == 25
    assert misfits(rep) == []


def test_respan_pd_records_match_replay():
    rep = reduce(respan_pd(), THREE_POINTS)
    assert rep.n_ok == 3
    assert misfits(rep) == []


@pytest.mark.parametrize("k", [-132, -176])
def test_scaled_field_batch_matches_replay(field_batch, k):
    # two of tools/scaling.py's scales: every record is ok and must match as
    # at k = 0
    c = 2.0 ** k
    reports = [reduce(Distribution(dist.X1 * c, dist.X2 * c), points)
               for dist, points in field_batch]
    assert sum(rep.n_ok for rep in reports) == 132
    assert [bad for bad in map(misfits, reports) if bad] == []


def test_replay_is_exact_to_60_digits():
    third, root = replay((parse("x/3"), parse("sqrt(y)^3 - y*sqrt(y)")), (1.0, 2.0, 0.0))
    assert str(third) == "0." + "3" * 60
    assert abs(root) <= Decimal("1e-58")


@pytest.mark.parametrize("fn", ["sin", "cos", "exp"])
def test_replay_refuses_transcendentals(fn):
    with pytest.raises(ValueError, match=f"refuses {fn}"):
        replay((parse(f"1 + {fn}(x)"),), (0.5, 0.0, 0.0))
