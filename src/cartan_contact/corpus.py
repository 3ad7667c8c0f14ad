"""Built-in example distributions and their reference invariants.

Each entry carries the generator components as expression strings and, for
the contact cases, the closed-form invariant as a plain Python function used
for regression checks (kept independent of the expression engine).
"""
from __future__ import annotations

from collections.abc import Callable

from ._record import Record
from .reduction import Distribution

__all__ = ["Builtin", "BUILTINS", "names", "get", "distribution"]


class Builtin(Record):
    name: str
    x1: tuple[str, str, str]
    x2: tuple[str, str, str]
    expected_kind: str                                  # "contact" | "holonomic"
    m_closed: Callable[[float, float, float], float] | None


def _m_heisenberg(x: float, y: float, z: float) -> float:
    r = x * x + y * y
    return 2.25 * r * r / (1.0 + r) ** 4


def _m_cartan(x: float, y: float, z: float) -> float:
    return 0.25 * (2.0 * y * y - 1.0) ** 2 / (1.0 + y * y) ** 4


BUILTINS: dict[str, Builtin] = {
    b.name: b
    for b in (
        Builtin(
            name="heisenberg",
            x1=("1", "0", "-y"),
            x2=("0", "1", "x"),
            expected_kind="contact",
            m_closed=_m_heisenberg,
        ),
        Builtin(
            name="cartan",
            x1=("1", "0", "-y"),
            x2=("0", "1", "0"),
            expected_kind="contact",
            m_closed=_m_cartan,
        ),
        Builtin(
            name="exercise1a",
            x1=("1", "0", "y"),
            x2=("0", "1", "x"),
            expected_kind="holonomic",
            m_closed=None,
        ),
    )
}


def names() -> list[str]:
    return list(BUILTINS)


def get(name: str) -> Builtin:
    try:
        return BUILTINS[name]
    except KeyError:
        raise KeyError(f"unknown builtin {name!r}; available: {', '.join(BUILTINS)}") from None


def distribution(name: str) -> Distribution:
    b = get(name)
    return Distribution.from_components(b.x1, b.x2, name=b.name)
