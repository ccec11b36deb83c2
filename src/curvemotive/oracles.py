"""Independent brute-force validators.

Everything here is deliberately naive: exhaustive closure for numerical
semigroups, monomial counting for divisorial-ideal codimensions, and
point-multiset enumeration over small finite fields for symmetric-power
counts.  None of it imports the series machinery; independence is the point.
"""

from __future__ import annotations

from itertools import product

from ._record import Record


def semigroup_gf(generators, bound: int):
    """Coefficients 0/1 of the characteristic series of the semigroup.

    Exhaustive closure of the generators under addition up to ``bound``;
    entry ``k`` of the result is 1 exactly when ``k`` is representable.
    """
    gens = sorted(set(int(x) for x in generators))
    if not gens or any(x <= 0 for x in gens):
        raise ValueError("generators must be positive integers")
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    reachable = [False] * (bound + 1)
    reachable[0] = True
    for gen in gens:
        for value in range(gen, bound + 1):
            if reachable[value - gen]:
                reachable[value] = True
    return [1 if hit else 0 for hit in reachable]


class MonomialValuationSystem(Record):
    """Valuations v_i(x^p y^q) = a_i p + b_i q with positive integer weights."""

    _FIELDS = ("weights",)

    def __init__(self, weights: tuple[tuple[int, int], ...]):
        if not weights:
            raise ValueError("at least one valuation is required")
        if any(a < 1 or b < 1 for a, b in weights):
            raise ValueError("weights must be positive")
        super().__init__(weights)


def monomial_codim(sys: MonomialValuationSystem, w) -> int:
    """Number of monomials x^p y^q with a_i p + b_i q < w_i for some i.

    This is the codimension of the monomial ideal cut out by the valuation
    inequalities, counted by bounded enumeration.
    """
    w = [int(x) for x in w]
    if len(w) != len(sys.weights):
        raise ValueError("w must have one entry per valuation")
    top = max(w, default=0)
    count = 0
    for p in range(top + 1):
        for q in range(top + 1):
            if any(a * p + b * q < wi for (a, b), wi in zip(sys.weights, w)):
                count += 1
    return count


# GF(4) = GF(2)[x]/(x^2 + x + 1), element a1*x + a0 written as the integer
# 2*a1 + a0: addition is XOR, and x^2 = x + 1 gives this table.
_GF4_MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)


def _field_ops(q: int):
    """``(add, mul)`` on GF(q) for q in (2, 3, 4, 5), elements 0..q-1."""
    if q == 4:
        return (lambda a, b: a ^ b), (lambda a, b: _GF4_MUL[a][b])
    return (lambda a, b: (a + b) % q), (lambda a, b: (a * b) % q)


def count_divisors_open_line(q: int, removed: int, n: int) -> int:
    """Effective degree-``n`` divisors on a projective line minus ``removed``
    rational points, counted over GF(q).

    Galois-stable point multisets on the affine part correspond to monic
    polynomials, so for ``removed >= 1`` (the point at infinity goes first)
    this counts monic degree-``n`` polynomials not vanishing at any of the
    remaining removed points; ``removed = 0`` adds back divisors supported
    partly at infinity.  Brute force throughout; meant for desk scale
    (q <= 5, n <= 6).
    """
    if q not in (2, 3, 4, 5):
        raise ValueError("q must be one of 2, 3, 4, 5")
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if removed < 0 or removed > q + 1:
        raise ValueError(f"cannot remove {removed} rational points from a line over GF({q})")
    if n == 0:
        return 1
    if removed == 0:
        return sum(q**d for d in range(n + 1))
    add, mul = _field_ops(q)
    avoid = list(range(removed - 1))  # affine removed points; infinity is gone
    count = 0
    for lower in product(range(q), repeat=n):
        # monic f = x^n + lower[n-1] x^(n-1) + ... + lower[0]
        ok = True
        for a in avoid:
            acc = 1
            for c in reversed(lower):
                acc = add(mul(acc, a), c)
            if acc == 0:
                ok = False
                break
        if ok:
            count += 1
    return count
