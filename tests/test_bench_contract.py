"""The package keeps the shape the benchmark's traced run reads.

``bench/spans.py`` wraps each ``(module, attribute)`` of its ``TRACED`` table;
``Tracer.install`` raises ``AttributeError`` if one is missing.  Under each
``reduction.reduce`` span, ``bench/run.py`` reads one direct
``reduction.contact_torsion`` child, whose t12 is the report's ``T312``, and
the direct ``scalarfield.evaluate`` children.  ``bench/spans.py`` is
executed from its source text, so nothing is written under ``bench/``.
"""
from __future__ import annotations

import functools
import importlib
import types
from pathlib import Path

from cartan_contact import reduction

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans() -> types.ModuleType:
    module = types.ModuleType("bench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), vars(module))
    return module


def test_every_traced_name_resolves():
    spans = load_spans()
    for mod_name, attr in spans.TRACED:
        module = importlib.import_module(f"{spans.PACKAGE}.{mod_name}")
        target = functools.reduce(getattr, attr.split("."), module)
        assert callable(target), (mod_name, attr)


def test_reduce_span_shape(heisenberg):
    spans = load_spans()
    with spans.Tracer() as tracer:
        report = reduction.reduce(heisenberg, [(0.3, -0.2, 0.1)])
    names = [span[0] for span in tracer.spans]
    top = names.index("reduction.reduce")
    assert tracer.spans[top][3] is None
    children = [span[0] for span in tracer.spans if span[3] == top]
    assert "reduction.classify" in children
    assert children.count("reduction.contact_torsion") == 1
    # one evaluation per output at the ok point: T312, a1, a2, M, dd_eta3, q1 - p2
    assert children.count("scalarfield.evaluate") == 6
    # the t12 the benchmark reads is the T312 field the report carries
    torsions = [tracer.torsions[i][1] for i in tracer.torsions if tracer.spans[i][3] == top]
    assert len(torsions) == 1 and torsions[0].t12 is report.T312
    assert list(tracer.reduces) == [top]
    # that t12 is taken on the generator frame (X1, X2, [X1, X2]) the outputs
    # reduce on; no Gram-Schmidt section is built under reduce
    (section,), _ = next(tracer.torsions[i] for i in tracer.torsions if tracer.spans[i][3] == top)
    assert section.frame.e1 is heisenberg.X1 and section.frame.e2 is heisenberg.X2
    under = {top}
    for i, span in enumerate(tracer.spans):
        if span[3] in under:
            under.add(i)
    below = {tracer.spans[i][0] for i in under}
    assert not below & {"reduction.build_adapted", "forms.gram_schmidt"}
