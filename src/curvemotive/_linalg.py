"""The package's base layer: its value types' base class and exact linear
algebra on small dense matrices.

``Record`` is the base of every immutable value type.  It is a plain class
rather than a ``dataclasses`` class, whose import pulls in ``inspect`` and
``ast`` and then compiles every generated method: that alone would be most of
the command line's start-up time.

Matrices are tuples of tuples holding ints or ``fractions.Fraction``; nothing
here ever touches floating point.  The only inverse needed is that of an upper
unitriangular integer matrix (the proximity matrix), found by back
substitution in integers.  The exact rationals every layer shares are here
too: ``_exact`` and ``_quotient`` give an ``int`` when the value is integral,
and ``_frac_json`` renders one for JSON.

This is where a rational is made.  ``fractions``, with the ``decimal`` and
``numbers`` modules it imports (most of the package's start-up time), is
imported only where a ``Fraction`` is built: in the non-integral branches of
``_exact`` and ``_quotient`` and in the specialization code.  On a totally
rational graph, ``M``, the codimensions and every exponent are ints, so
building the graph and its series loads none of them.  Every import path of
the package starts here, and each module is one more load on every one of
them, so the base layer is a single module.
"""

from math import lcm
from operator import mul


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


def mat(rows):
    return tuple(tuple(row) for row in rows)


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a):
    return tuple(tuple(row[i] for row in a) for i in range(len(a[0])))


def mat_mul(a, b):
    """Matrix product, summed column by column."""
    if any(len(row) != len(b) for row in a):
        raise ValueError(f"a matrix times one of {len(b)} rows needs rows of {len(b)} entries")
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def vec_mat(v, a):
    """Row vector times matrix, summed column by column."""
    if len(v) != len(a):
        raise ValueError(f"a vector of length {len(v)} times a matrix of {len(a)} rows")
    return tuple(sum(map(mul, v, col)) for col in zip(*a))


def integer_form(a):
    """``(d, d * a)`` for the least positive int ``d`` that makes ``d * a`` an int matrix.

    The entries of ``a`` are ints or ``Fraction``s.
    """
    d = lcm(*(x.denominator for row in a for x in row))
    return d, tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in a)


def neg(a):
    return tuple(tuple(-x for x in row) for row in a)


def unitriangular_inverse(a):
    """Inverse of an upper unitriangular matrix, by back substitution.

    Only the entries above the diagonal are read, and the result is upper
    unitriangular as well, so an integer input gives an integer inverse with
    no division.  Callers that need a certificate check ``a`` times the result
    against the identity.
    """
    n = len(a)
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for j in range(n):
        for i in range(j - 1, -1, -1):
            inv[i][j] = -sum(a[i][k] * inv[k][j] for k in range(i + 1, j + 1))
    return mat(inv)


def _exact(x):
    """An exact rational as an ``int`` when integral, else as a ``Fraction``.

    ``x`` is anything ``Fraction`` accepts, a string such as ``"3/2"`` too.
    The two compare, hash, sort and render alike, but ``int`` arithmetic is
    much cheaper, and on a totally rational graph every exponent is integral.
    """
    if type(x) is int:
        return x
    from fractions import Fraction
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _quotient(num: int, den: int):
    """``num / den`` for ints, ``den`` not zero, as ``_exact`` gives it: the
    ``int`` ``num // den`` when ``den`` divides ``num``, else a ``Fraction``,
    which is built only then."""
    if num % den:
        from fractions import Fraction
        return Fraction(num, den)
    return num // den


def _frac_json(x):
    """An exact rational as JSON: an integer when integral, else ``"p/q"``."""
    return x.numerator if x.denominator == 1 else str(x)
