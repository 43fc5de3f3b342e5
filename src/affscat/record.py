"""Record: the base of affscat's immutable value types.

A record lists its fields, in constructor order, in the class-level tuple
`_fields`, and its own `__init__` sets each one with object.__setattr__.
The base makes the instance frozen (assigning or deleting an attribute
raises AttributeError) and gives it value semantics over its fields: `==`
holds between instances of the same class whose fields are equal, `hash`
agrees with it, `repr` reads ClassName(field=value, ...), and
`replace(**changes)` builds a copy with some fields changed.  A class
narrows what `==` and `hash` compare by overriding `_key`.

Plain classes import without the standard library's code generation for
record types (and the `inspect` module it pulls in), about a third of the
package's import time.  Nothing here reads `self.__dict__`, so the
attributes stay in the instance's inline storage; cached_property and
`vars(obj)[...]` caches write to the dict as on any object.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        """The values `==` and `hash` compare: every field."""
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A new record with these fields changed and the others as in self."""
        args = {name: getattr(self, name) for name in self._fields}
        args.update(changes)
        return type(self)(**args)
