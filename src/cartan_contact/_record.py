"""Frozen value records: the package's small stand-in for frozen dataclasses.

A subclass of :class:`Record` lists its fields as class annotations, with
optional defaults, in the order its constructor takes them.  It gets an
``__init__`` taking the fields positionally or by keyword and then calling
``__post_init__``, a ``__repr__`` of the form ``Name(f=value, ...)``, equality
and hashing over the fields, and attributes that cannot be assigned or
deleted.  Methods, properties and classmethods in the class body stay as
written.  :func:`replace` copies a record with some fields changed.
"""
from __future__ import annotations

__all__ = ["Record", "replace"]


class Record:
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs) -> None:
        name, fields, defaults = type(self).__name__, self._fields, self._defaults
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields but {len(args)} were given")
        try:
            rest = {f: kwargs.pop(f) if f in kwargs else defaults[f]
                    for f in fields[len(args):]}
        except KeyError as exc:
            raise TypeError(f"{name} missing field {exc.args[0]!r}") from None
        if kwargs:
            raise TypeError(f"{name} got an unexpected or repeated field {next(iter(kwargs))!r}")
        values = self.__dict__
        values.update(zip(fields, args))
        values.update(rest)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")

    def _values(self) -> tuple:
        return tuple(self.__dict__[f] for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


def replace(record: Record, **changes) -> Record:
    """A new record of the same class, with ``changes`` replacing those fields."""
    return type(record)(**{**dict(zip(record._fields, record._values())), **changes})
