"""Base of the package's immutable value types.

A plain class rather than ``dataclasses``, whose import pulls in ``inspect``
and ``ast`` and then compiles every generated method: that alone is most of
the command line's start-up time.
"""


class Record:
    """A value object: its fields, named in ``_FIELDS``, are all there is to it.

    A subclass's ``__init__`` validates its arguments and passes the field
    values, in ``_FIELDS`` order, to ``Record.__init__``.  Two records are
    equal when they are of the same class and their fields are equal; the
    hash is that of the tuple of fields; ``repr`` reads ``Name(field=value,
    ...)``.  Assigning or deleting an attribute raises ``AttributeError``.
    Instances keep a ``__dict__``, so ``cached_property`` works on them.
    """

    _FIELDS: tuple[str, ...] = ()

    def __init__(self, *values):
        # object.__setattr__ rather than writing to self.__dict__: touching
        # __dict__ makes CPython give up its compact attribute storage, which
        # slows every later field read.
        for name, value in zip(self._FIELDS, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._FIELDS))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._FIELDS, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
