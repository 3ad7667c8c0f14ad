"""In-memory spans around calls into the package's modules, and DAG node counts.

The tracer wraps module-level functions (and ``ScalarField.evaluate``) while
it is installed, replacing every alias of each function in the package's
loaded modules, so calls between modules are seen too.  Spans are kept in a
list as (name, start, end, parent index) and aggregated after the run.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute) pairs to wrap; a span is named "module.function" and
# belongs to the layer of its module
TRACED = (
    ("scalarfield", "parse"),
    ("scalarfield", "ScalarField.evaluate"),
    ("forms", "commutator"),
    ("forms", "gram_schmidt"),
    ("forms", "complete_frame"),
    ("forms", "dual_coframe"),
    ("forms", "structure_coefficients"),
    ("reduction", "classify"),
    ("reduction", "build_adapted"),
    ("reduction", "adapted_from_orthonormal"),
    ("reduction", "contact_torsion"),
    ("reduction", "normalize_scale"),
    ("reduction", "absorb_translations"),
    ("reduction", "extract_invariants"),
    ("reduction", "reduce"),
    ("reduction", "compare"),
    ("cli", "main"),
    ("cli", "load_spec"),
    ("cli", "build_distribution"),
    ("cli", "report_from_invariants"),
    ("cli", "report_from_classification"),
    ("cli", "_emit"),
)
PACKAGE = "cartan_contact"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []      # [name, start, end, parent]
        # span index -> (args, result) of each reduce and contact_torsion call
        self.reduces: dict[int, tuple] = {}
        self.torsions: dict[int, tuple] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, sink: dict | None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if sink is not None:
                sink[index] = (args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for mod_name, attr in TRACED:
            mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
            if mod is None:
                continue
            name = f"{mod_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, None))
                continue
            original = getattr(mod, attr)
            sink = {"reduce": self.reduces, "contact_torsion": self.torsions}.get(attr)
            wrapped = self._wrap(name, original, sink)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, key, original))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans) -> dict[str, float]:
    """Self time per span name: duration minus the time its children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _parent) in enumerate(spans):
        out[name] += (end - start) - child[i]
    return dict(out)


def child_times(spans, parent_name: str) -> dict[str, float]:
    """Total duration per span name of the spans whose parent is named
    ``parent_name`` (so nested calls of one stage are not counted twice)."""
    out: dict[str, float] = defaultdict(float)
    for name, start, end, parent in spans:
        if parent is not None and spans[parent][0] == parent_name:
            out[name] += end - start
    return dict(out)


def outermost_times(spans) -> dict[str, float]:
    """Total duration per span name, counting only spans with no ancestor of
    the same name."""
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        p = parent
        while p is not None and spans[p][0] != name:
            p = spans[p][3]
        if p is None:
            out[name] += end - start
    return dict(out)


# -- node counts --------------------------------------------------------------


def distinct_nodes(roots) -> int:
    """Distinct node objects reachable from ``roots``."""
    seen = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._children)
    return len(seen)


def structural_nodes(roots) -> int:
    """Distinct nodes up to structure, with Add and Mul keyed commutatively."""
    keys: dict[int, int] = {}
    table: dict[tuple, int] = {}
    stack = [(r, False) for r in roots]
    while stack:
        node, expanded = stack.pop()
        if id(node) in keys:
            continue
        kids = node._children
        if not expanded and kids:
            stack.append((node, True))
            stack.extend((c, False) for c in kids if id(c) not in keys)
            continue
        kind = type(node).__name__
        child_keys = tuple(keys[id(c)] for c in kids)
        if kind in ("Add", "Mul"):
            child_keys = tuple(sorted(child_keys))
        extra = (getattr(node, "value", None), getattr(node, "index", None),
                 getattr(node, "exponent", None), getattr(node, "fn", None))
        key = (kind, extra, child_keys)
        keys[id(node)] = table.setdefault(key, len(table))
    return len(table)
