"""Value equality for the slotted records.

A record that is never reassigned after construction is a
`typing.NamedTuple`; any other is a class with `__slots__` and a written-out
`__init__`, so importing the package generates and compiles no methods, as
`dataclasses` would for each record.  `Record` gives such a class a
dataclass's equality and repr over its slots.
"""

from __future__ import annotations


class Record:
    """Equal to a record of the same class whose slots hold equal values;
    unhashable, since its slots can change."""

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()  # type: ignore[attr-defined]
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
