"""Exact linear algebra on small dense matrices.

Matrices are tuples of tuples holding ints or ``fractions.Fraction``; nothing
here ever touches floating point.  The only inverse needed is that of an upper
unitriangular integer matrix (the proximity matrix), found by back
substitution in integers.
"""

from __future__ import annotations

from math import lcm
from operator import mul


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
