"""Plain record classes: field equality, repr, hashing and replace.

A record class names its fields in ``_fields``, in constructor order, and
assigns them in its own ``__init__``.  Two records are equal when they are
of the same class and their compared fields (``_compare``, every field
unless the class says otherwise) are equal as a tuple; the repr shows the
compared fields as ``Name(field=value, ...)``.  A ``Record`` is mutable
and unhashable.  A ``Frozen`` record refuses assignment and deletion and
hashes by the tuple of its compared fields; its ``__init__`` fills
``self.__dict__`` directly.  Copies and pickles carry ``__dict__`` as it is.
"""

from __future__ import annotations


class Record:
    """Base of the mutable record classes."""

    _fields: tuple[str, ...] = ()
    _compare: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if "_fields" in cls.__dict__ and "_compare" not in cls.__dict__:
            cls._compare = cls._fields

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compare])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compare)
        return f"{type(self).__qualname__}({shown})"


class Frozen(Record):
    """Base of the immutable, hashable record classes."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._key())


def replace(record: Record, /, **changes):
    """A new record of record's class: its fields, with ``changes`` applied.

    The new record goes through the class's ``__init__``, so what that sets
    besides the fields starts afresh.  An unknown field raises TypeError.
    """
    values = {name: getattr(record, name) for name in record._fields}
    return type(record)(**{**values, **changes})
