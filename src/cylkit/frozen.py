"""The base of the package's immutable value classes.

A value class lists its fields in ``__slots__`` (so an instance has no
``__dict__``) and writes its own ``__init__``, which sets each field once
through ``object.__setattr__`` and then calls the class's
``__post_init__`` check, if it has one.  It also writes its own ``__eq__``
and ``__hash__``: equality compares a fixed tuple of fields and answers
``NotImplemented`` for any other class, and the hash, where there is one,
is the hash of that tuple; a class holding a dict defines no hash and so
is unhashable.  :class:`Frozen` adds what every such class shares:
assigning or deleting a field raises ``AttributeError``, ``repr`` prints
``Class(name=value, ...)`` over the names in ``_repr_fields``, and pickle
and copy carry every slot, set back without going through ``__setattr__``.
"""


class Frozen:
    """Immutability, ``repr``, pickling and copying for a slotted value class."""

    __slots__ = ()
    _repr_fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._repr_fields)
        return f"{type(self).__qualname__}({body})"

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)
