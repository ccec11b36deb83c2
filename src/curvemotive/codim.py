"""Multiplicity vectors, valuation vectors and stratum codimensions.

A stratum is indexed by a subset ``I`` of the intersection pairs, a subset
``J`` of the branches, and a multiplicity record: ``n_i >= 0`` free points on
each component, a pair ``(n', n'') >= (1, 1)`` for each sigma in ``I`` and a
pair ``(t', t'') >= (1, 1)`` for each branch in ``J``.

The derived quantities:

* ``nhat_i``: intersection degree of the strict transform with ``E_i``;
  the sum of ``n_i``, the primed multiplicities of pairs having ``i`` as
  first or second leg respectively, and the first branch multiplicities.
* ``w = nhat . M``: divisorial valuation vector (exact rationals; integral
  whenever the graph is totally rational).
* ``v_j = w_{attach(j)} + t''_j * h_{attach(j)}`` for ``j`` in ``J``, and
  plain ``w_{attach(j)}`` otherwise.
* the divisorial-ideal codimension ``hoskin_deligne(w) = 1/2 sum h_i a_i
  (a_i + 1)`` where ``a = w . P`` rewrites the divisor on the total-transform
  basis.
* the stratum codimensions ``F`` and ``F^D``; the primary route composes
  ``hoskin_deligne`` with the symmetric-product dimension terms, and a
  literal transcription of the expanded quadratic form is kept alongside as
  a cross-check.  Both parts fixed by ``nhat`` read only ``M``, ``P`` and the
  degrees, so a graph and its ``g.without_branches`` give the same values;
  nothing here keeps them (``series.Run.codims`` does, for one run).

Values are exact: integral ones are ``int``s and non-integral ones
``Fraction``s (see ``_linalg._exact``), which the callers flag; nothing
here rounds.  The codimensions, ``deg_AA`` and ``deg_AK`` are computed as
ints on the integer lattice ``d * M`` (``ResolutionGraph.m_lattice``, ``d``
the least common denominator of ``M``) and divided once at the end
(``_linalg._quotient``, which builds a ``Fraction``, and imports
``fractions``, only for a value that is not integral), so no ``Fraction``
arithmetic runs inside their sums.  The
genus identity ``hoskin_deligne(w) = -(deg_AA + deg_AK) / 2``
(``genus_identity``) compares both sides scaled by ``2 d^2``, as ints, from
one ``z = nhat . (d * M)``.
"""

import warnings as _warnings
from operator import mul

from ._linalg import Record, _exact, _frac_json, _quotient, integer_form, vec_mat
from .resolution import Pair, ResolutionGraph


class SemigroupMembershipWarning(UserWarning):
    """A valuation vector fell outside the divisorial value semigroup."""


class ExponentVector(tuple):
    """A tuple of exact rationals with integrality reporting.

    Integral entries are stored as ``int``, the others as ``Fraction``.
    """

    def __new__(cls, values):
        return super().__new__(cls, map(_exact, values))

    @property
    def integral_flags(self) -> tuple[bool, ...]:
        return tuple(v.denominator == 1 for v in self)

    @property
    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in self)

    def leq(self, bound) -> bool:
        return all(a <= b for a, b in zip(self, bound, strict=True))


class Stratum(Record):
    """Index of one connected piece of the image of the initial-form map.

    ``pair_mults[k]`` is the pair (n', n'') attached to ``pairs[k]``;
    ``branch_mults[k]`` is (t', t'') attached to branch ``branches[k]``.
    Divisorial strata simply carry ``branches = ()``.
    """

    _FIELDS = ("pairs", "branches", "point_mults", "pair_mults", "branch_mults")

    def __init__(
        self,
        pairs: tuple[Pair, ...],
        branches: tuple[int, ...],
        point_mults: tuple[int, ...],
        pair_mults: tuple[tuple[int, int], ...] = (),
        branch_mults: tuple[tuple[int, int], ...] = (),
    ):
        if len(pair_mults) != len(pairs):
            raise ValueError("pair_mults must align with pairs")
        if len(branch_mults) != len(branches):
            raise ValueError("branch_mults must align with branches")
        if min(point_mults, default=0) < 0:
            raise ValueError("point multiplicities must be nonnegative")
        if pair_mults and min(map(min, pair_mults)) < 1:
            raise ValueError("pair multiplicities must be positive")
        if branch_mults and min(map(min, branch_mults)) < 1:
            raise ValueError("branch multiplicities must be positive")
        super().__init__(pairs, branches, point_mults, pair_mults, branch_mults)

    @property
    def is_divisorial(self) -> bool:
        return not self.branches

    @classmethod
    def zero(cls, s: int) -> "Stratum":
        return cls(pairs=(), branches=(), point_mults=(0,) * s)


def nhat(st: Stratum, g: ResolutionGraph) -> tuple[int, ...]:
    out = list(st.point_mults)
    if len(out) != g.s:
        raise ValueError("stratum has wrong number of components")
    for (i1, i2), (np, npp) in zip(st.pairs, st.pair_mults):
        out[i1 - 1] += np
        out[i2 - 1] += npp
    for j, (tp, _tpp) in zip(st.branches, st.branch_mults):
        out[g.branch(j).attach - 1] += tp
    return tuple(out)


def w_of(nhat_vec, g: ResolutionGraph) -> ExponentVector:
    return ExponentVector(vec_mat(nhat_vec, g.m_matrix))


def v_of(st: Stratum, g: ResolutionGraph) -> ExponentVector:
    return _v_from_w(w_of(nhat(st, g), g), st, g)


def _v_from_w(w, st: Stratum, g: ResolutionGraph) -> ExponentVector:
    """``v`` of a stratum whose ``w`` is known.

    ``w`` at each branch's attaching component, plus ``t'' h_attach`` on the
    branches in ``J``.
    """
    second = dict(zip(st.branches, st.branch_mults))
    values = []
    for j in range(1, g.r + 1):
        attach = g.branch(j).attach
        v = w[attach - 1]
        if j in second:
            v += second[j][1] * g.degree_of(attach)
        values.append(v)
    return ExponentVector(values)


def alpha_of(w, g: ResolutionGraph) -> tuple:
    """Coordinates of the divisor sum(w_i E_i) on the total-transform basis."""
    return tuple(map(_exact, vec_mat(tuple(w), g.proximity_matrix)))


def hoskin_deligne(w, g: ResolutionGraph):
    """Codimension of the divisorial ideal of ``w``: 1/2 sum h_i a_i (a_i+1).

    Valid as a dimension count only when ``w`` lies in the divisorial value
    semigroup; a negative coordinate of ``a = w . P`` triggers a
    ``SemigroupMembershipWarning`` but the formula value is still returned.
    Callers wanting the true codimension for arbitrary ``w`` must round up to
    the semigroup themselves.
    """
    d, (z,) = integer_form((tuple(map(_exact, w)),))
    return _quotient(_hoskin_deligne(z, d, g), 2 * d * d)


def _hoskin_deligne(z, d: int, g: ResolutionGraph) -> int:
    """``2 d^2 hoskin_deligne(z / d)`` for an int vector ``z``, an int.

    With ``A = z . P = d a``, it is ``sum h_i A_i (A_i + d)``.  This is the
    one Hoskin-Deligne formula: ``hoskin_deligne``, ``nhat_codim`` and
    ``genus_identity`` call it.
    """
    alpha = vec_mat(z, g.proximity_matrix)
    if min(alpha) < 0:
        _warnings.warn(
            f"w = {_texts(z, d)} is not a valuation vector of the graph (alpha = {_texts(alpha, d)})",
            SemigroupMembershipWarning,
            stacklevel=3,
        )
    return sum(c.degree * a * (a + d) for c, a in zip(g.centers, alpha))


def _texts(scaled, d: int) -> tuple[str, ...]:
    return tuple(str(_quotient(x, d)) for x in scaled)


def deg_AK(nhat_vec, g: ResolutionGraph):
    """Intersection degree of the divisor with the canonical cycle:
    ``sum nhat - w . epsilon``."""
    d, dm = g.m_lattice
    return _quotient(_deg_AK(nhat_vec, vec_mat(nhat_vec, dm), d, g), d)


def _deg_AK(nh, z, d: int, g: ResolutionGraph) -> int:
    """``d * deg_AK`` for ``z = nhat . (d * M)``, an int."""
    return d * sum(nh) - sum(map(mul, z, g.epsilon))


def deg_AA(nhat_vec, g: ResolutionGraph):
    """Self-intersection degree of the divisor: -(nhat . M . nhat)."""
    d, dm = g.m_lattice
    return _quotient(_deg_AA(nhat_vec, vec_mat(nhat_vec, dm)), d)


def _deg_AA(nh, z) -> int:
    """``d * deg_AA`` for ``z = nhat . (d * M)``, an int."""
    return -sum(map(mul, z, nh))


def genus_identity(nh, g: ResolutionGraph) -> bool:
    """Whether ``hoskin_deligne(w) = -(deg_AA + deg_AK) / 2`` at ``w = nhat . M``.

    Both sides are scaled by ``2 d^2`` and compared as ints on ``d * M``,
    with ``z = nhat . (d * M)`` computed once.
    """
    d, dm = g.m_lattice
    z = vec_mat(nh, dm)
    return _hoskin_deligne(z, d, g) == -d * (_deg_AA(nh, z) + _deg_AK(nh, z, d, g))


def nhat_codim(nh, g: ResolutionGraph, z=None):
    """The part of ``F`` and ``F^D`` fixed by ``nhat``, by composition:
    ``hoskin_deligne(w) + sum nhat_i h_i`` with ``w = nhat . M``.

    ``z`` is ``d * w = nhat . (d * M)`` if the caller has it, as
    ``series.Run``'s walk does; it is computed here otherwise.
    """
    d, dm = g.m_lattice
    if z is None:
        z = vec_mat(nh, dm)
    scale = 2 * d * d
    linear = sum(n * c.degree for n, c in zip(nh, g.centers))
    return _quotient(_hoskin_deligne(z, d, g) + scale * linear, scale)


def nhat_codim_literal(nh, g: ResolutionGraph):
    """The expanded quadratic-form expression for ``nhat_codim``, its
    independent check.

    The trailing linear term reads ``(2 h_i - 1)`` with the outer index, which
    is what the composition forces.  Only the nonzero entries of ``nhat`` add
    to the sums.
    """
    if len(nh) != g.s:
        raise ValueError(f"nhat has {len(nh)} entries, the graph {g.s} components")
    d, dm = g.m_lattice  # every sum below is d times its value
    eps = g.epsilon
    centers = g.centers
    support = [(i, n) for i, n in enumerate(nh) if n]
    quad = sum(dm[i][k] * ni * nk for i, ni in support for k, nk in support)
    lin = sum(ni * (sum(map(mul, dm[i], eps)) + d * (2 * centers[i].degree - 1)) for i, ni in support)
    return _quotient(quad + lin, 2 * d)


def _branch_codim(st: Stratum, g: ResolutionGraph) -> int:
    return sum(tpp * g.branch(j).degree for j, (_tp, tpp) in zip(st.branches, st.branch_mults))


def codim_F(st: Stratum, g: ResolutionGraph):
    """Codimension of a stratum fiber, by composition.

    ``F = hoskin_deligne(w) + sum nhat_i h_i + sum_{j in J} t''_j h_j``.
    """
    return nhat_codim(nhat(st, g), g) + _branch_codim(st, g)


def codim_F_literal(st: Stratum, g: ResolutionGraph):
    """The expanded quadratic-form expression for ``F``, kept as a cross-check."""
    return nhat_codim_literal(nhat(st, g), g) + _branch_codim(st, g)


def codim_FD(st: Stratum, g: ResolutionGraph):
    """Divisorial stratum codimension; requires a branch-free stratum."""
    if not st.is_divisorial:
        raise ValueError("divisorial codimension is defined for J-free strata")
    return nhat_codim(nhat(st, g), g)


def stratum_report(st: Stratum, g: ResolutionGraph) -> dict:
    """Everything the ``codim`` command prints, JSON-ready."""
    nh = nhat(st, g)
    w = w_of(nh, g)
    v = v_of(st, g)
    f = codim_F(st, g)
    report = {
        "nhat": list(nh),
        "w": [_frac_json(x) for x in w],
        "w_integral": list(w.integral_flags),
        "v": [_frac_json(x) for x in v],
        "v_integral": list(v.integral_flags),
        "alpha": [_frac_json(x) for x in alpha_of(w, g)],
        "hoskin_deligne": _frac_json(hoskin_deligne(w, g)),
        "deg_AA": _frac_json(deg_AA(nh, g)),
        "deg_AK": _frac_json(deg_AK(nh, g)),
        "F": _frac_json(f),
        "F_integral": f.denominator == 1,
    }
    if st.is_divisorial:
        report["F_D"] = _frac_json(codim_FD(st, g))
    return report
