"""The base of the package's immutable value classes.

A value class writes its own ``__init__``: it validates and normalises the
arguments, then stores the fields in the instance ``__dict__``, in the order
of its parameters, with ``self.__dict__.update(...)`` or
``self.__dict__[name] = ...``.  That order is the order of the repr and of
``vars(value)``.  Nothing is generated or exec'd when a class is defined.
"""

from __future__ import annotations


class Value:
    """Equal when of the same class with equal fields, hashed as the tuple of
    the fields; assigning or deleting an attribute raises AttributeError."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"
