"""Record classes written in source.

A record is a class of named fields that compares by value.  Its fields
are its annotations, in order, base classes first; its ``__init__`` is
written out in the class body and stores each value through
``self.__dict__``, folding in whatever checks and normalisation the
fields need.  Deriving from :class:`Record` supplies the rest, in the
shape :mod:`dataclasses` gives a ``frozen=True`` dataclass:

* ``==`` compares the tuple of field values of two instances of the very
  same class, and returns ``NotImplemented`` against any other class,
  subclasses included;
* ``hash()`` is the hash of that tuple;
* ``repr()`` is ``Qualname(field=value!r, ...)``, guarded against
  recursion;
* assigning or deleting an attribute raises :class:`FrozenInstanceError`.

A record class may define any of these methods itself, and its own
definition wins.  :func:`fields` and :func:`replace` take the same
arguments as their :mod:`dataclasses` namesakes.

Nothing here compiles source text: :mod:`dataclasses` builds each class's
methods with ``exec``, which a cold ``repro-campaign`` process would pay
for at every start.
"""

from __future__ import annotations

from _thread import get_ident

__all__ = ["FrozenInstanceError", "Record", "fields", "replace"]


class FrozenInstanceError(AttributeError):
    """An attribute of a frozen record was assigned or deleted."""


#: ``(id(record), thread)`` of every ``repr`` in progress.
_REPR_RUNNING: set[tuple[int, int]] = set()


def _values(record: Record) -> tuple:
    return tuple([getattr(record, name) for name in record.__record_fields__])


class Record:
    """Base class of a frozen record (see the module docstring)."""

    __slots__ = ()
    #: The field names, in order; set for each subclass when it is created.
    __record_fields__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        names = dict.fromkeys(cls.__record_fields__)
        names.update(dict.fromkeys(cls.__dict__.get("__annotations__", ())))
        cls.__record_fields__ = tuple(names)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return _values(self) == _values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(_values(self))

    def __repr__(self) -> str:
        key = (id(self), get_ident())
        if key in _REPR_RUNNING:
            return "..."
        _REPR_RUNNING.add(key)
        try:
            shown = ", ".join([f"{name}={getattr(self, name)!r}"
                               for name in self.__record_fields__])
        finally:
            _REPR_RUNNING.discard(key)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def fields(record: Record | type[Record]) -> tuple[str, ...]:
    """The field names of a record class or instance, in order."""
    try:
        return record.__record_fields__
    except AttributeError:
        raise TypeError(
            f"fields() needs a record class or instance, not {record!r}"
        ) from None


def replace(record: Record, /, **changes: object) -> Record:
    """A new record of *record*'s class, with *changes* replacing fields.

    The new record goes through its class's ``__init__``, so it is checked
    and normalised like any other.
    """
    for name in fields(record):
        if name not in changes:
            changes[name] = getattr(record, name)
    return record.__class__(**changes)
