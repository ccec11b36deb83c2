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


class _SmallField:
    """Arithmetic tables for GF(q), q = p^k a small prime power.

    Elements are integers 0..q-1 read as base-p digit vectors, i.e. as
    polynomials over GF(p) reduced modulo a brute-force-found irreducible.
    """

    def __init__(self, q: int):
        p = None
        for candidate in (2, 3, 5, 7):
            k = 0
            n = q
            while n % candidate == 0:
                n //= candidate
                k += 1
            if n == 1 and k >= 1:
                p = candidate
                deg = k
                break
        if p is None:
            raise ValueError(f"{q} is not a small prime power")
        self.q = q
        self.p = p
        self.deg = deg
        if deg == 1:
            self.add_table = [[(a + b) % p for b in range(p)] for a in range(p)]
            self.mul_table = [[(a * b) % p for b in range(p)] for a in range(p)]
            return
        modulus = self._find_irreducible()
        elems = [self._digits(n) for n in range(q)]
        self.add_table = [
            [self._encode([(x + y) % p for x, y in zip(u, v)]) for v in elems]
            for u in elems
        ]
        self.mul_table = [
            [self._encode(self._polymulmod(u, v, modulus)) for v in elems]
            for u in elems
        ]

    def _digits(self, n):
        out = []
        for _ in range(self.deg):
            out.append(n % self.p)
            n //= self.p
        return out

    def _encode(self, digits):
        n = 0
        for d in reversed(digits[: self.deg]):
            n = n * self.p + d
        return n

    def _polymulmod(self, u, v, modulus):
        p = self.p
        prod_coeffs = [0] * (2 * self.deg)
        for i, x in enumerate(u):
            if not x:
                continue
            for j, y in enumerate(v):
                prod_coeffs[i + j] = (prod_coeffs[i + j] + x * y) % p
        for top in range(2 * self.deg - 1, self.deg - 1, -1):
            c = prod_coeffs[top]
            if not c:
                continue
            prod_coeffs[top] = 0
            for j, m in enumerate(modulus):
                prod_coeffs[top - self.deg + j] = (
                    prod_coeffs[top - self.deg + j] - c * m
                ) % p
        return prod_coeffs[: self.deg]

    def _find_irreducible(self):
        # monic x^deg + ... ; irreducible iff it has no root for deg <= 3,
        # which covers every field this module ever builds.
        assert self.deg <= 3
        for tail in product(range(self.p), repeat=self.deg):
            coeffs = list(tail)  # constant first
            if coeffs[0] == 0:
                continue

            def value_at(x):
                acc = 1
                for c in reversed(coeffs):
                    acc = (acc * x + c) % self.p
                return acc

            if all(value_at(x) != 0 for x in range(self.p)):
                return coeffs
        raise AssertionError("no irreducible polynomial found")

    def add(self, a, b):
        return self.add_table[a][b]

    def mul(self, a, b):
        return self.mul_table[a][b]


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
    gf = _SmallField(q)
    avoid = list(range(removed - 1))  # affine removed points; infinity is gone
    count = 0
    for lower in product(range(q), repeat=n):
        # monic f = x^n + lower[n-1] x^(n-1) + ... + lower[0]
        ok = True
        for a in avoid:
            acc = 1
            for c in reversed(lower):
                acc = gf.add(gf.mul(acc, a), c)
            if acc == 0:
                ok = False
                break
        if ok:
            count += 1
    return count
