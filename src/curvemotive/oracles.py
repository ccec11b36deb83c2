"""Independent brute-force validators.

Everything here is deliberately naive: exhaustive closure for numerical
semigroups, monomial counting for divisorial-ideal codimensions,
point-multiset enumeration over small finite fields for symmetric-power
counts, a telescoping of a one-branch series into its codimension
function, and the conductor by Noether's formula.  It reads only
``_linalg``'s ``Record``; none of it imports the series machinery, because
independence is the point.
"""

from itertools import count, product

from ._linalg import Record


SEMIGROUP_BOUND = 10**6


def semigroup_gf(generators, bound: int):
    """Coefficients 0/1 of the characteristic series of the semigroup.

    Exhaustive closure of the generators under addition up to ``bound``;
    entry ``k`` of the result is 1 exactly when ``k`` is representable.
    Meant for desk scale: a ``bound`` above ``SEMIGROUP_BOUND`` is refused
    before anything is allocated.
    """
    gens = sorted(set(int(x) for x in generators))
    if not gens or any(x <= 0 for x in gens):
        raise ValueError("generators must be positive integers")
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if bound > SEMIGROUP_BOUND:
        raise ValueError(f"bounds above {SEMIGROUP_BOUND} are out of this oracle's range, got {bound}")
    reachable = [False] * (bound + 1)
    reachable[0] = True
    for gen in gens:
        for value in range(gen, bound + 1):
            if reachable[value - gen]:
                reachable[value] = True
    return [1 if hit else 0 for hit in reachable]


def one_branch_series(values, bound: int) -> dict[int, int]:
    """The branch series of one degree-one branch, as ``{v: c}`` for ``L^(-c) t^v``.

    ``values`` generate the branch's value semigroup ``S`` (the curvette
    values, a column of ``M``, contain its generators).  ``dim O/J(v)`` is the
    number of elements of ``S`` below ``v``, so the series is ``sum_{v in S}
    L^(-#{s in S : s < v}) t^v``; this lists its terms with ``v <= bound``.
    """
    out = {}
    for v, hit in enumerate(semigroup_gf(values, bound)):
        if hit:
            out[v] = len(out)
    return out


def branch_series_at_one(exponents, chis, bound) -> dict[tuple[int, ...], int]:
    """``prod_i (1 - t^(m_i))^(-chi_i)``, truncated coordinatewise at ``bound``.

    ``exponents[i]`` is ``m_i``, a vector of positive integers with one entry
    per branch.  With ``m_i = (M[i][attach_j])_j`` and ``chi_i = 2 -
    nu_circ_i`` this is the branch series of a degree-one graph with ``L``
    and every symbol set to 1, the Poincare series of Campillo, Delgado and
    Gusein-Zade.  Each factor is applied ``|chi_i|`` times: a product with
    ``1 - t^(m_i)``, or a geometric series in ``t^(m_i)``.  Zero coefficients
    are left out.
    """
    bound = tuple(bound)
    out = {(0,) * len(bound): 1}
    for m, chi in zip(exponents, chis, strict=True):
        if len(m) != len(bound) or any(type(x) is not int or x < 1 for x in m):
            raise ValueError(f"exponent {m} is not a vector of positive integers, one per bound")
        for _ in range(abs(chi)):
            step = out
            out = {}
            for e, c in step.items():
                # (k, coefficient of t^(k m)) in 1 / (1 - t^m), or in 1 - t^m
                terms = ((k, c) for k in count()) if chi > 0 else ((0, c), (1, -c))
                for k, coeff in terms:
                    shifted = tuple(x + k * y for x, y in zip(e, m))
                    if any(x > b for x, b in zip(shifted, bound)):
                        break
                    out[shifted] = out.get(shifted, 0) + coeff
    return {e: c for e, c in out.items() if c}


def codims_from_series(coefficients, q, degree: int):
    """The codimension function of one branch, telescoped out of its branch series.

    ``coefficients[v]`` is the coefficient of ``t^v`` for ``v = 0..B``: a
    number, the series at ``L = q``, or an element of a ring in which ``q``
    is ``L`` and has negative powers.  With ``c(0) = 0``, each coefficient
    gives the next value through

        ``L^(-c(v + 1)) = L^(-c(v)) - (L - 1)/L * pg_v``,

    and since ``J(v)/J(v + 1)`` embeds in the residue field of a branch of
    degree ``degree``, every step ``c(v + 1) - c(v)`` is an integer in
    ``[0, degree]``.  Returns the list ``c(0), ..., c(B + 1)``, or the first
    ``v`` at which no such step gives ``L^(-c(v + 1))``.
    """
    if type(q) is int:
        from fractions import Fraction
        q = Fraction(q)  # so that q ** -k is exact
    codims = [0]
    power = q**0  # L^(-c(v))
    for v, coefficient in enumerate(coefficients):
        power = power - (q - 1) * q**-1 * coefficient
        for step in range(degree + 1):
            if power == q ** -(codims[-1] + step):
                codims.append(codims[-1] + step)
                break
        else:
            return v
    return codims


def conductor(g) -> tuple:
    """The conductor exponents ``c_j`` of the curve of ``g``, one per branch,
    by Noether's formula, from ``M`` and the proximities only.

    The strict transform of branch ``j`` has multiplicity ``m_(p,j) = M[p][a_j]
    - sum_{q in prox(p)} M[q][a_j]`` at center ``p``, with ``a_j`` the
    component branch ``j`` attaches to; the curve has ``m_p = sum_j m_(p,j)``
    there, and ``c_j = sum_p m_(p,j) (m_p - 1)``.  Then ``sum_j c_j = 2
    delta``.  The formula counts no residue degree, so it holds on degree-one
    graphs only.
    """
    m = g.m_matrix
    mults = [
        [m[p][b.attach - 1] - sum(m[q - 1][b.attach - 1] for q in center.proximate_to) for b in g.branches]
        for p, center in enumerate(g.centers)
    ]
    return tuple(sum(row[j] * (sum(row) - 1) for row in mults) for j in range(g.r))


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
    inequalities, counted by bounded enumeration of ``(max w + 1)^2``
    monomials; meant for desk scale (every ``w_i <= 1000``).
    """
    w = [int(x) for x in w]
    if len(w) != len(sys.weights):
        raise ValueError("w must have one entry per valuation")
    top = max(w, default=0)
    if top > 1000:
        raise ValueError(f"w entries above 1000 are out of this oracle's range, got {top}")
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
    partly at infinity.  Brute force over ``q^n`` polynomials; meant for desk
    scale (q <= 5, n <= 6).
    """
    if q not in (2, 3, 4, 5):
        raise ValueError("q must be one of 2, 3, 4, 5")
    if not 0 <= n <= 6:
        raise ValueError(f"degree must be between 0 and 6, got {n}")
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
