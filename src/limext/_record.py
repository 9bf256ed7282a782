"""Frozen value classes without ``dataclasses``.

``record`` is the part of ``@dataclass(frozen=True)`` this package uses.
The fields are the annotated names of the class body, in order, with the
body's values as defaults.  Only ``__init__`` is generated per class (one
small ``exec``), so construction costs what a dataclass's does and Python
itself reports a missing or unknown argument; it calls ``__post_init__``
when the class defines one.  Equality, hashing, repr and the refusal to
assign are shared functions that behave as the dataclass ones do: the hash
is the hash of the field tuple, so set and dict orders do not change.

>>> @record
... class Point:
...     x: int
...     y: int = 0
>>> p = Point(1)
>>> p, p == Point(1, 0), replace(p, y=2)
(Point(x=1, y=0), True, Point(x=1, y=2))
>>> p.x = 5
Traceback (most recent call last):
    ...
limext._record.FrozenRecordError: cannot assign to field 'x'

Importing ``dataclasses`` imports ``inspect`` as well, and decorating a
class builds every method with ``exec``; a cold command-line call paid
for both before it ran any library code.
"""

from __future__ import annotations

from operator import attrgetter


class FrozenRecordError(AttributeError):
    """Raised on an attempt to assign or delete a field of a record."""


def _eq(self, other):
    if other.__class__ is self.__class__:
        key = self.__record_key__
        return key(self) == key(other)
    return NotImplemented


def _hash(self):
    return hash(self.__record_key__(self))


def _repr(self):
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__record_fields__)
    return f"{self.__class__.__qualname__}({fields})"


def _setattr(self, name, value):
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenRecordError(f"cannot delete field {name!r}")


def record(cls):
    """Make ``cls`` a frozen record over its annotated fields."""
    fields = tuple(cls.__annotations__)
    namespace = {}
    params = []
    for name in fields:
        if name in cls.__dict__:
            namespace[f"_default_{name}"] = cls.__dict__[name]
            params.append(f"{name}=_default_{name}")
        else:
            params.append(name)
    d = "d"
    while d in fields:      # the local that holds the instance dict must not shadow a field
        d += "_"
    body = [f"    {d} = self.__dict__"] + [f"    {d}[{name!r}] = {name}" for name in fields]
    if "__post_init__" in cls.__dict__:
        body.append("    self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    cls.__record_fields__ = fields
    # attrgetter of one name returns the value itself; the key is always a tuple.
    cls.__record_key__ = (attrgetter(*fields) if len(fields) > 1
                          else staticmethod(lambda obj, get=attrgetter(*fields): (get(obj),)))
    cls.__eq__ = _eq
    cls.__hash__ = _hash
    cls.__repr__ = _repr
    cls.__setattr__ = _setattr
    cls.__delattr__ = _delattr
    return cls


def replace(obj, /, **changes):
    """A copy of the record ``obj`` with the given fields changed."""
    for name in obj.__record_fields__:
        if name not in changes:
            changes[name] = getattr(obj, name)
    return obj.__class__(**changes)
