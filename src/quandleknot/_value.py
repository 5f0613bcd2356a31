"""The base of the package's value classes."""
from __future__ import annotations

from operator import attrgetter


class Value:
    """An immutable value.  Each class names its fields in ``_fields``, and its ``__init__``
    stores them in ``__dict__`` once; then none can be assigned or deleted.  Values are equal
    when they are of one class and their fields are equal, and hash by their fields, so the
    ``functools.cached_property`` entries kept in the same ``__dict__`` are never read.
    ``repr`` shows the fields as keywords."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._get = attrgetter(*cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        get = self._get
        return get(self) == get(other)

    def __hash__(self):
        return hash(self._get(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
