"""Small exact matrix helpers, the inverse against a plain Gauss-Jordan oracle."""

import random
from fractions import Fraction

from curvemotive import _linalg


def gauss_jordan_inverse(a):
    """Straightforward rational Gauss-Jordan, used as the independent oracle."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot_row is None:
            raise ZeroDivisionError("singular")
        m[col], m[pivot_row] = m[pivot_row], m[col]
        pivot = m[col][col]
        m[col] = [x / pivot for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return tuple(tuple(row[n:]) for row in m)


def is_positive_definite(a):
    """Unpivoted LDL^t of a symmetric matrix: every pivot must be positive."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    for k in range(n):
        if m[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            factor = m[i][k] / m[k][k]
            for j in range(k + 1, n):
                m[i][j] -= factor * m[k][j]
    return True


def test_identity_and_transpose():
    assert _linalg.identity(2) == ((1, 0), (0, 1))
    assert _linalg.transpose(((1, 2), (3, 4))) == ((1, 3), (2, 4))


def test_mat_mul_small():
    a = ((1, 2), (3, 4))
    b = ((0, 1), (1, 0))
    assert _linalg.mat_mul(a, b) == ((2, 1), (4, 3))
    assert _linalg.vec_mat((1, 1), a) == (4, 6)


def test_unitriangular_inverse_matches_gauss_jordan():
    rng = random.Random(20260809)
    for _ in range(200):
        n = rng.randint(1, 7)
        a = tuple(
            tuple(rng.randint(-3, 3) if j > i else int(i == j) for j in range(n))
            for i in range(n)
        )
        inverse = _linalg.unitriangular_inverse(a)
        assert inverse == gauss_jordan_inverse(a)
        assert all(type(x) is int for row in inverse for x in row)


def test_positive_definite_oracle():
    assert is_positive_definite(((2, 1, 0), (1, 2, 1), (0, 1, 2)))
    assert not is_positive_definite(((1, 2), (2, 1)))
    assert not is_positive_definite(((0, 0), (0, 1)))


def test_exact_gives_an_int_exactly_when_the_value_is_integral():
    # strings too: from_json reads "p/q" exponents and bounds through _exact
    cases = [
        (3, 3), (True, 1), (Fraction(6, 2), 3), (6.0, 6), ("4", 4), ("8/2", 4), (" -7 ", -7),
        (Fraction(3, 2), Fraction(3, 2)), ("3/2", Fraction(3, 2)), ("-6/4", Fraction(-3, 2)), (0.5, Fraction(1, 2)),
    ]
    for x, expected in cases:
        got = _linalg._exact(x)
        assert got == expected and type(got) is type(expected), x


def test_quotient_gives_an_int_exactly_when_the_denominator_divides():
    cases = [
        ((6, 3), 2), ((-6, 3), -2), ((0, 5), 0), ((8, -4), -2),
        ((3, 2), Fraction(3, 2)), ((-3, 6), Fraction(-1, 2)), ((6, -4), Fraction(-3, 2)),
    ]
    for (num, den), expected in cases:
        got = _linalg._quotient(num, den)
        assert got == expected and type(got) is type(expected), (num, den)
