"""Exact linear algebra on small dense matrices.

Matrices are tuples of tuples holding ints or ``fractions.Fraction``; nothing
here ever touches floating point.  The inverse uses fraction-free (Bareiss)
elimination so that all intermediate values stay integers when the input is an
integer matrix; the final division by the tracked determinant is the only step
that introduces fractions, and the entries it leaves integral are returned as
``int``, so that products with a unimodular inverse stay in integers.
"""

from __future__ import annotations

from fractions import Fraction

from .grothendieck import _exact


class SingularMatrixError(ValueError):
    pass


def mat(rows):
    return tuple(tuple(row) for row in rows)


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a):
    return tuple(tuple(row[i] for row in a) for i in range(len(a[0])))


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    assert all(len(row) == k for row in a)
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    )


def vec_mat(v, a):
    """Row vector times matrix."""
    n = len(a)
    assert len(v) == n
    return tuple(sum(v[i] * a[i][j] for i in range(n)) for j in range(len(a[0])))


def neg(a):
    return tuple(tuple(-x for x in row) for row in a)


def determinant(a):
    """Fraction-free Bareiss determinant with row pivoting (exact)."""
    n = len(a)
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss two-by-two step; the division is exact.
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def leading_principal_minors(a):
    """Determinants of the leading k-by-k blocks, k = 1..n."""
    n = len(a)
    return tuple(
        determinant(tuple(row[: k + 1] for row in a[: k + 1])) for k in range(n)
    )


def inverse(a):
    """Exact inverse of an integer (or rational) matrix.

    Forward elimination is fraction-free Bareiss on the augmented system, so
    for integer input every intermediate entry is an integer; back substitution
    divides by the pivots, which equal the leading principal minors.  Integral
    entries of the result are ``int``s, the others ``Fraction``s.  The result
    is verified against the identity before returning.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    width = 2 * n
    m = [list(a[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    break
            else:
                raise SingularMatrixError("zero pivot column %d" % k)
        for i in range(k + 1, n):
            for j in range(width - 1, k, -1):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = num // prev if isinstance(num, int) and isinstance(prev, int) else num / prev
            m[i][k] = 0
        prev = m[k][k]
    if m[n - 1][n - 1] == 0:
        raise SingularMatrixError("matrix is singular")

    inv = [[Fraction(0)] * n for _ in range(n)]
    for col in range(n):
        for i in range(n - 1, -1, -1):
            acc = Fraction(m[i][n + col])
            for j in range(i + 1, n):
                acc -= m[i][j] * inv[j][col]
            inv[i][col] = acc / m[i][i]
    result = tuple(tuple(_exact(x) for x in row) for row in inv)

    check = mat_mul(a, result)
    if check != identity(n):
        raise SingularMatrixError("inverse verification failed")
    return result
