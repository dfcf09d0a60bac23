"""Plain record classes: a generated __init__, field equality, repr, hashing and replace.

A record class names its fields once, in ``_fields``, in constructor order,
and its default values, if any, in ``_defaults``; every default must be
immutable, since one value serves every record.  From these two an
``__init__`` that stores each argument is compiled once per class, as
``collections.namedtuple`` compiles its ``__new__``; a class that defines
its own ``__init__`` keeps it.  One does, ``GenConfig``, because its
``fixture_mix`` of None stores a fresh copy of ``DEFAULT_MIX``.
Two records are equal when they are of the same class and their compared
fields (``_compare``, every field unless the class says otherwise) are equal
as a tuple; the repr shows the compared fields as ``Name(field=value, ...)``.
A ``Record`` is mutable and unhashable, and its ``__init__`` sets each field
as an attribute.  A ``Frozen`` record refuses assignment and deletion and
hashes by the tuple of its compared fields; its ``__init__`` fills
``self.__dict__`` directly.  Copies and pickles carry ``__dict__`` as it is.
"""

from __future__ import annotations


class Record:
    """Base of the mutable record classes."""

    _fields: tuple[str, ...] = ()
    _compare: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if "_fields" in cls.__dict__:
            if "_compare" not in cls.__dict__:
                cls._compare = cls._fields
            if "__init__" not in cls.__dict__:
                cls.__init__ = _make_init(cls)

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


def _make_init(cls: type[Record]):
    """The __init__ of cls: store each field, with the defaults of _defaults."""
    fields, defaults = cls._fields, cls._defaults
    params = ", ".join(f"{f}=_defaults[{f!r}]" if f in defaults else f for f in fields)
    if issubclass(cls, Frozen):
        body = f"self.__dict__.update({', '.join(f'{f}={f}' for f in fields)})"
    else:
        body = "; ".join(f"self.{f} = {f}" for f in fields)
    namespace = {"_defaults": defaults, "__name__": cls.__module__}
    exec(f"def __init__(self, {params}):\n    {body}\n", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


def replace(record: Record, /, **changes):
    """A new record of record's class: its fields, with ``changes`` applied.

    The new record goes through the class's ``__init__``, so what that sets
    besides the fields starts afresh.  An unknown field raises TypeError.
    """
    values = {name: getattr(record, name) for name in record._fields}
    return type(record)(**{**values, **changes})
