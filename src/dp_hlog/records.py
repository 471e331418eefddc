"""Immutable records that generate no code at import.

Every `dp-hlog` call runs in a fresh process and executes every class body.
A dataclass generates and compiles its methods there, about 1 ms a class;
a ``typing.NamedTuple`` or a plain class costs a fraction of that. Plain
field records are NamedTuples; a type whose length, equality or constructor
differs from a tuple's subclasses ``Record``.
"""

from __future__ import annotations


class Record:
    """Base of the immutable plain records.

    The fields are the names in ``__slots__``. ``__init__`` sets them once,
    in slot order; a subclass that validates or derives fields sets them
    with ``object.__setattr__``. Assignment and deletion raise
    AttributeError. Equality and hashing are by identity unless a subclass
    defines them.
    """

    __slots__ = ()

    def __init__(self, *values) -> None:
        if len(values) != len(self.__slots__):
            raise TypeError(
                f"{type(self).__name__} takes {len(self.__slots__)} fields, "
                f"got {len(values)}"
            )
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
