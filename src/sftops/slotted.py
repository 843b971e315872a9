"""Value classes on __slots__, written out by hand.

A class lists its fields, in order, in `_fields`.  Slotted gives it a
constructor that takes the fields by position or by name and raises
TypeError where a dataclass's would (too many arguments, a missing field,
an unknown or repeated keyword); field-wise equality (instances of one
class compare as the tuples of their fields); and a repr naming every
field.  A class that checks or normalises its arguments does so in its own
__init__ and ends in super().__init__.  Frozen adds immutability: assigning
or deleting an attribute raises AttributeError, so the fields are set
through object.__setattr__ here or through the slots' own setters; the
hash is that of the tuple of fields, and an instance pickles through its
constructor.

These replace dataclasses, which build each class by compiling generated
code at import time: about 0.3-1 ms a class, paid by every command.
"""

from __future__ import annotations


class Slotted:
    __slots__ = ()
    _fields: tuple = ()

    def __init__(self, *args, **kwargs):
        fields, name = self._fields, self.__class__.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        for field, value in zip(fields, args):
            object.__setattr__(self, field, value)
        for field in fields[len(args) :]:
            if field not in kwargs:
                raise TypeError(f"{name}() missing argument {field!r}")
            object.__setattr__(self, field, kwargs.pop(field))
        if kwargs:
            raise TypeError(f"{name}() got an unknown or repeated argument {next(iter(kwargs))!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self):
        inner = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({inner})"


class Frozen(Slotted):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return self.__class__, self._values()
