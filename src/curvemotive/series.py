"""Stratum enumeration and assembly of the three motivic series.

Three generating series are produced from a resolution graph, all with
coefficients in the formal Grothendieck-ring model and exact rational
exponents:

* the branch series (one variable per curve branch), assembled from strata
  indexed by subsets of intersection points, subsets of branches, and
  multiplicity data;
* the divisorial series (one variable per exceptional component), the same
  construction on the branch-free graph ``g.without_branches``;
* the divisorial extended-semigroup series, which admits a closed rational
  form: a product of intersection-pair factors over the product of
  ``(1 - t^{m_i}) (1 - e_i L t^{m_i})`` with ``m_i`` the i-th row of ``M``.

All three stratum sums come from one per-key engine, ``_assemble``, with
exponent ``v`` on a graph with branches and ``w`` on a branch-free graph,
built without visiting strata one by one: codimension and exponent depend on
a stratum only through ``nhat`` and the branch multiplicities ``t''``, so one
generating-function product sums the classes per ``(nhat, J)`` and ``L^(-F)
t^v`` is applied once per key; the geometric factor in each branch's ``t''``
is then summed as a running sum.  The extended-semigroup stratum sum is the
divisorial one without ``L^(-F)``.  A second product counts the strata, which
must match a direct enumeration, and every composed codimension in use is
checked against the literal one.  The symmetric-power classes have no second
copy here: they are checked by the independent routes, the closed form
against its stratum sum and the totally rational branch series against the
per-stratum reduction.  The closed form is cross-checked against the engine
by ``expand`` versus ``divisorial_semigroup_stratum_sum``; that comparison is
this module's core self-verification.  ``expand`` multiplies out the
numerator and divides by each denominator factor ``1 - c t^m`` as a running
sum ``out[e] = in[e] + c out[e - m]``.

Both running sums work on int exponent tuples on the lattice ``d * M``
(``_lattice``), which every exponent lies on, and convert to
``ExponentVector`` once per output term.

A ``Run`` is one graph and one bound; it walks the ``nhat`` lattice, forms
the per-key products and scans the strata (per strictness) at most once for
all the routes it is handed.  ``check`` hands one Run of the branch-free
graph to its divisorial lines and one of the graph to the branch series and
its per-stratum reference (the totally rational branch series).  The scan
records each stratum as a row and builds its ``Stratum`` only for a reader
that iterates (the reference, ``enumerate_strata``); the count checks read
its length, so ``pg``, ``pdg`` and the stratum sum build none.  Nothing a Run
computes outlives it; only work on the centers alone is kept per process
(see ``codim``).  A Run shares inputs, never a route's result, so no
cross-check loses its independence.

Truncation is per variable: a series holds exactly the terms whose exponent
vector is coordinatewise at most the bound.  Because every exponent is a sum
of nonnegative contributions, truncating all intermediate products and sums
at the bound loses nothing below it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, floor, prod
from functools import cache, cached_property, lru_cache, reduce
from operator import add, le, mul

from ._linalg import integer_form
from ._record import Record
from .codim import (
    ExponentVector,
    Stratum,
    _branch_codim,
    _v_from_w,
    nhat,
    nhat_codim,
    nhat_codim_literal,
    w_of,
)
from .grothendieck import RingElement, _exact, _frac_json, field_class, units_class
from .resolution import ResolutionGraph


class SeriesCrossCheckError(RuntimeError):
    """Two routes that must agree produced different series."""


def _grlex_key(exp: ExponentVector):
    return (sum(exp), tuple(exp))


def monomial_text(exp) -> str:
    parts = []
    for idx, e in enumerate(exp, start=1):
        if e == 0:
            continue
        name = f"t{idx}"
        if e == 1:
            parts.append(name)
        elif isinstance(e, Fraction) and e.denominator != 1:
            parts.append(f"{name}^({e})")
        else:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


class TruncatedSeries:
    """Finite slab of a multivariate series under a per-variable bound.

    Mutable, and so unhashable: routes build a series term by term.
    """

    def __init__(
        self,
        arity: int,
        bound: tuple[int | Fraction, ...],
        terms: dict[ExponentVector, RingElement] | None = None,
        skipped_nonintegral: int = 0,
    ):
        self.arity = arity
        self.bound = bound
        self.terms = {} if terms is None else terms
        self.skipped_nonintegral = skipped_nonintegral

    def __repr__(self):
        return (
            f"{type(self).__qualname__}(arity={self.arity!r}, bound={self.bound!r}, "
            f"terms={self.terms!r}, skipped_nonintegral={self.skipped_nonintegral!r})"
        )

    @classmethod
    def zero(cls, arity, bound) -> "TruncatedSeries":
        return cls(arity=arity, bound=tuple(map(_exact, bound)))

    @classmethod
    def one(cls, arity, bound) -> "TruncatedSeries":
        series = cls.zero(arity, bound)
        series.add_term(ExponentVector((0,) * arity), RingElement.one())
        return series

    def add_term(self, exp: ExponentVector, value: RingElement) -> None:
        if exp.leq(self.bound):
            current = self.terms.get(exp)
            total = value if current is None else current + value
            if total.is_zero:
                self.terms.pop(exp, None)
            else:
                self.terms[exp] = total

    def coefficient(self, exp) -> RingElement:
        return self.terms.get(ExponentVector(exp), RingElement.zero())

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def sorted_items(self):
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]))

    @property
    def is_integral_lattice(self) -> bool:
        return all(exp.is_integral for exp in self.terms) and all(
            value.has_integral_lefschetz_exponents for value in self.terms.values()
        )

    def specialize(self, spec) -> dict[ExponentVector, Fraction]:
        out = {}
        for exp, value in self.sorted_items():
            v = value.specialize(spec)
            if v != 0:
                out[exp] = v
        return out

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        lines = [
            f"{monomial_text(exp)}: {value.to_text()}"
            for exp, value in self.sorted_items()
        ]
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "arity": self.arity,
            "bound": [_frac_json(b) for b in self.bound],
            "skipped_nonintegral": self.skipped_nonintegral,
            "terms": [
                {"t": [_frac_json(e) for e in exp], "value": value.to_json()}
                for exp, value in self.sorted_items()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "TruncatedSeries":
        series = cls.zero(int(data["arity"]), [Fraction(b) for b in data["bound"]])
        series.skipped_nonintegral = int(data.get("skipped_nonintegral", 0))
        for item in data["terms"]:
            series.add_term(
                ExponentVector(Fraction(e) for e in item["t"]),
                RingElement.from_json(item["value"]),
            )
        return series


# ---------------------------------------------------------------------------
# symmetric powers and stratum classes
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1024)  # check at bound 30 asks for under 100 on each benchmark graph
def sym_power_class(label: str | None, nu: int, n: int) -> RingElement:
    """Class of the n-th symmetric power of an open exceptional component.

    The component is a projective line over the field named by ``label``
    (``None`` for the base field, which contributes no symbol; see
    ``field_class``) with ``nu`` points removed,
    counted with their degree weights.  The value is the coefficient of
    ``x^n`` in ``(1 - e L x)^{-1} (1 - x)^{nu - 1}``: for ``nu >= 1`` the
    second factor is the finite binomial polynomial, while ``nu = 0`` makes
    it a geometric series, giving ``sum_{k<=n} (e L)^k``.  Pure, so the
    last 1024 values asked for are kept.
    """
    if n < 0:
        raise ValueError("symmetric power index must be nonnegative")
    if nu < 0:
        raise ValueError("removed-point count must be nonnegative")
    eL = field_class(label) * RingElement.lefschetz()
    if nu == 0:
        return sum((eL ** (n - l) for l in range(n + 1)), RingElement.zero())
    return sum(
        (
            RingElement.integer((-1) ** l * comb(nu - 1, l)) * eL ** (n - l)
            for l in range(min(n, nu - 1) + 1)
        ),
        RingElement.zero(),
    )


def stratum_class(st: Stratum, g: ResolutionGraph) -> RingElement:
    """Grothendieck class of a stratum: symmetric powers times unit classes.

    Each open component loses its intersection points with the rest of the
    total transform, ``g.nu_circ``: the other components and the branches of
    ``g``.  On ``g.without_branches`` that is the divisorial class.
    """
    out = RingElement.one()
    for i in range(1, g.s + 1):
        n_i = st.point_mults[i - 1]
        if n_i:
            out = out * sym_power_class(g.component_label(i), g.nu_circ[i - 1], n_i)
    for i1, i2 in st.pairs:
        out = out * units_class(g.pair_label(g.pair_site(i1, i2)))
    for j in st.branches:
        out = out * units_class(g.branch_label(j))
    return out


# ---------------------------------------------------------------------------
# stratum enumeration
# ---------------------------------------------------------------------------


def _subsets(items):
    for mask in range(1 << len(items)):
        yield tuple(items[k] for k in range(len(items)) if mask >> k & 1)


def _lattice(scaled, bound, attach=()):
    """Exponents and bound on the integer lattice ``d * M``.

    ``scaled`` is ``(d, d * M)``, as ``ResolutionGraph.m_lattice`` holds it.
    Returns ``(d, steps, caps)``.  A unit of ``nhat_i`` raises ``d`` times
    (exponent vector, then ``w``) by ``steps[i]``: the columns of ``M`` named
    by the 1-based ``attach`` are the branch series' exponents, and without
    them the exponent vector is ``w`` itself.  An exponent fits under the
    bound exactly when its leading ``len(bound)`` entries are at most ``caps``.
    Every route reads its bound through here, so this is where a bound of the
    wrong length or with a negative entry is rejected.
    """
    d, rows = scaled
    caps = tuple(floor(Fraction(b) * d) for b in bound)
    arity = len(attach) or len(rows[0])
    if len(caps) != arity:
        raise ValueError(f"bound arity {len(caps)} does not match {arity} variables")
    if any(cap < 0 for cap in caps):
        raise ValueError("bounds must be nonnegative")
    return d, tuple(tuple(row[a - 1] for a in attach) + row for row in rows), caps


def _times(poly, factor, caps):
    """``poly * factor`` on the lattice, truncated at ``caps``.

    Both map int exponent tuples to ring values; zero values are dropped.
    """
    out = {}
    for e1, c1 in poly.items():
        for e2, c2 in factor.items():
            e = tuple(map(add, e1, e2))
            if all(map(le, e, caps)):
                out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return {e: value for e, value in out.items() if value}


def _divide(poly, step, c: RingElement, caps):
    """``poly / (1 - c t^step)`` on the lattice, truncated at ``caps``.

    ``poly`` maps int exponent tuples, each at most ``caps``, to ring values;
    ``step`` is nonnegative and not zero.  The quotient is the running sum
    ``out[e] = poly[e] + c * out[e - step]``.  It walks each chain ``base + k
    * step`` from the chain's first term up to the bound, through the
    positions where ``poly`` has no term as well.  Zero values are dropped.
    """
    axis = next((a for a, x in enumerate(step) if x), None)
    if axis is None:
        raise ValueError("geometric expansion needs a nonzero exponent step")
    chains = {}
    for e, value in poly.items():
        k = e[axis] // step[axis]
        chains.setdefault(tuple(x - k * s for x, s in zip(e, step)), {})[k] = value
    power = c._lefschetz_power()  # multiplying by L^power is a shift
    out = {}
    for base, terms in chains.items():
        first = min(terms)
        last = min((cap - b) // s for b, s, cap in zip(base, step, caps) if s)
        e = tuple(b + first * s for b, s in zip(base, step))
        acc = RingElement.zero()
        for k in range(first, last + 1):
            if power is None:
                acc = c * acc
            elif power:
                acc = acc.lefschetz_shift(power)
            if k in terms:
                acc = acc + terms[k]
            if acc:
                out[e] = acc
            e = tuple(map(add, e, step))
    return out


def _from_lattice(arity, bound, d, poly) -> TruncatedSeries:
    """The series whose terms are those of ``poly``, exponents divided by ``d``."""
    series = TruncatedSeries.zero(arity, bound)
    for e, value in poly.items():
        if value:
            series.terms[ExponentVector(e if d == 1 else (Fraction(x, d) for x in e))] = value
    return series


def _walk(steps, mins, start, caps):
    """Yield ``(values, z)`` for every ``values >= mins`` whose ``z`` fits under
    ``caps``, lexicographically.  ``z`` is ``start`` at ``values = mins`` and
    moves by ``steps[k]`` per unit of ``values[k]``.

    Only the leading ``len(caps)`` entries of ``z`` are bounded; the rest ride
    along.  A step is taken only while ``z`` fits, so with no steps ``start``
    is yielded as it is.  Every step raises at least one bounded entry, so the
    walk ends.  ``values`` is one list, changed in place between yields.
    """
    values = list(mins)
    depth = len(steps)
    zs = [start] * (depth + 1)  # zs[k]: z with values[k + 1:] at their minimum
    k = 0
    while True:
        if k == depth:
            yield values, zs[k]
        elif all(map(le, zs[k], caps)):  # map() stops at the end of caps
            zs[k + 1] = zs[k]
            k += 1
            continue
        else:
            values[k] = mins[k]
        k -= 1  # advance the deepest entry that can still move
        if k < 0:
            return
        values[k] += 1
        zs[k] = list(map(add, zs[k], steps[k]))


class Run:
    """One graph and one bound, and what the routes handed them share: the
    ``nhat`` walk and the per-key products, each made on first use, and
    ``_scans``, where ``_scan_strata`` keeps its scan per strictness.  The bound
    is copied into a tuple."""

    def __init__(self, g: ResolutionGraph, bound):
        self.g = g
        self.bound = tuple(bound)
        self._scans = {}  # strictness -> what _scan_strata returns

    @cached_property
    def walk_nhats(self):
        """Every ``nhat`` whose exponent (``v``, or ``w`` if the graph has no
        branches) fits under the bound, lexicographically.

        Holds ``(d, steps, caps, found, t_steps)`` with ``d``, ``steps`` and
        ``caps`` as in ``_lattice``, ``found`` the tuple of ``(nhat, z)``, ``z =
        d * (exponent, w)``, and ``t_steps[j - 1] = d * h``, what a unit of
        ``t''_j`` adds to ``d * v_j`` (``h`` the degree of the component branch
        ``j`` attaches to).  These are exactly the ``nhat`` of the strata
        ``enumerate_strata`` yields, since the stratum with ``n = nhat`` and
        nothing else has them.
        """
        g = self.g
        attach = [b.attach for b in g.branches]
        d, steps, caps = _lattice(g.m_lattice, self.bound, attach)
        found = tuple((tuple(n), tuple(z)) for n, z in _walk(steps, [0] * g.s, [0] * len(steps[0]), caps))
        return d, steps, caps, found, tuple(d * g.degree_of(a) for a in attach)

    @cached_property
    def _sums_per_key(self):
        """The class sums and the stratum counts of ``_coefficients``, per
        branch subset and per ``nhat`` of the walk.  Neither depends on the
        strictness: ``_assemble`` drops keys afterwards."""
        g = self.g
        keys = [n for n, _z in self.walk_nhats[3]]
        position = {n: k for k, n in enumerate(keys)}
        below = [
            [position[n[:a] + (n[a] - 1,) + n[a + 1 :]] if n[a] else -1 for n in keys]
            for a in range(g.s)
        ]
        # per component, its class for every n_i up to the largest in use
        sites = [
            [sym_power_class(g.component_label(i + 1), g.nu_circ[i], n) for n in range(top + 1)]
            for i, top in enumerate(map(max, zip(*keys)))
        ]
        classes = _coefficients(g, keys, below, sites, units_class, RingElement.zero())
        ones = [[1] * len(row) for row in sites]
        return classes, _coefficients(g, keys, below, ones, lambda _label: 1, 0)


class _Strata(Record):
    """The strata of one scan, in scan order: a sized iterable whose items are
    built as they are read.

    ``rows`` holds one ``(family, n, legs)`` per stratum: ``family`` is
    ``(pairs, branches, cut)``, ``n`` the point multiplicities and ``legs`` the
    ``cut = 2 * len(pairs)`` pair leg values, then the branch ones.  Iterating
    builds each ``Stratum`` through ``Stratum.__init__``; ``len`` builds none.
    """

    _FIELDS = ("rows",)

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return map(_stratum, self.rows)


def _stratum(row) -> Stratum:
    (pairs, branches, cut), n, legs = row
    p, b = iter(legs[:cut]), iter(legs[cut:])  # zip(p, p) pairs consecutive legs
    return Stratum(pairs, branches, n, tuple(zip(p, p)), tuple(zip(b, b)))


def _scan_strata(run: Run, strictness: str):
    """All strata whose exponent vector fits under the bound, in a fixed order.

    Returns ``(strata, skipped)`` where ``strata`` is a ``_Strata``, a sized
    iterable that records each stratum as a row and builds its ``Stratum``
    only when a reader iterates it (``len`` builds none), and ``skipped``
    counts the strata dropped in ``integral`` mode for having a non-integral
    valuation or exponent vector.  A stratum is a point ``n`` of the ``nhat``
    walk plus its family's legs, ``(n', n'')`` per chosen pair and ``(t',
    t'')`` per chosen branch, each at least 1.  ``n`` is walked once; a family
    walks its legs from each point with room for all of them at 1, and is
    passed over when ``n = 0`` has none.  The order is family, then ``n``,
    then legs.  The result is kept on ``run``, so its readers share one scan.
    """
    if strictness not in ("literal", "integral"):
        raise ValueError(f"unknown strictness {strictness!r}")
    if strictness in run._scans:
        return run._scans[strictness]
    g = run.g
    d, nhat_step, caps, points, t_steps = run.walk_nhats

    width = len(nhat_step[0])
    rows = []
    skipped = 0

    for pair_subset in _subsets([site.key for site in g.pairs]):
        for branch_subset in _subsets(list(range(1, g.r + 1))):
            legs = [nhat_step[i - 1] for pair in pair_subset for i in pair]
            for j in branch_subset:
                t_step = [t_steps[j - 1] if k == j - 1 else 0 for k in range(width)]
                legs += [nhat_step[g.branch(j).attach - 1], t_step]
            least = list(map(sum, zip([0] * width, *legs)))  # every leg at 1
            if not all(map(le, least, caps)):
                continue  # not even n = 0 has room
            family = (pair_subset, branch_subset, 2 * len(pair_subset))
            for n, z in points:
                for values, z_leg in _walk(legs, [1] * len(legs), list(map(add, z, least)), caps):
                    # integral mode checks the exponent vector and w
                    if strictness == "integral" and any(x % d for x in z_leg):
                        skipped += 1
                        continue
                    rows.append((family, n, tuple(values)))
    return run._scans.setdefault(strictness, (_Strata(tuple(rows)), skipped))


def enumerate_strata(g: ResolutionGraph, bound, strictness: str = "literal"):
    """Every stratum whose exponent (as in ``Run.walk_nhats``) is coordinatewise at
    most ``bound``, built as it is yielded from the scan's rows."""
    yield from _scan_strata(Run(g, bound), strictness)[0]


# ---------------------------------------------------------------------------
# series assembly
# ---------------------------------------------------------------------------


def _mapreduce(arity, bound, strata, term_fn) -> TruncatedSeries:
    series = TruncatedSeries.zero(arity, bound)
    for st in strata:
        series.add_term(*term_fn(st))
    return series


def _tail(values, below, zero):
    """Multiply by ``x_a / (1 - x_a)``: ``out[n] = sum_{k >= 1} values[n - k e_a]``.

    ``below[n]`` is the position of ``n - e_a`` (-1 when ``n_a = 0``); the keys
    are in lexicographic order, so the running sum reads entries already made.
    """
    out = []
    for b in below:
        out.append(values[b] + out[b] if b >= 0 else zero)
    return out


def _coefficients(g, keys, below, site, unit, zero):
    """Per branch subset ``J`` (list index: its bit mask), the coefficient of ``x^nhat`` in

        ``prod_i sum_n site[i][n] x_i^n
        * prod_sigma (1 + U_sigma x_i1 x_i2 / ((1 - x_i1)(1 - x_i2)))
        * prod_{j in J} U_j x_a / (1 - x_a)``,

    the sum of the stratum classes over the strata with that ``nhat`` and
    ``J``; ``a`` is the component branch ``j`` attaches to.  A stratum class
    is the product of its per-site factors, so the sum factors the same way.
    """
    values = [reduce(mul, (site[i][n_i] for i, n_i in enumerate(n))) for n in keys]
    for p in g.pairs:
        both = _tail(_tail(values, below[p.i1 - 1], zero), below[p.i2 - 1], zero)
        u = unit(g.pair_label(p))
        values = [a + u * b for a, b in zip(values, both)]
    per_subset = [values]
    for j in range(1, g.r + 1):
        u = unit(g.branch_label(j))
        below_a = below[g.branch(j).attach - 1]
        per_subset += [[u * b for b in _tail(c, below_a, zero)] for c in per_subset]
    return per_subset


def _assemble(run: Run, strictness: str, *, semigroup: bool = False):
    """The branch series of ``run``, or the divisorial one if its graph has no
    branch, per key; with ``semigroup``, the extended-semigroup stratum sum on a
    branch-free graph, which leaves out ``L^(-F)`` and so computes no
    codimension.

    ``F``, ``v`` and ``w`` depend on a stratum only through ``nhat`` and the
    branch second multiplicities ``t''``, so ``_coefficients`` sums the
    stratum classes per ``(nhat, J)``.  Each key's sum is placed at ``t'' =
    (1, ..., 1)`` with ``L^(-F - sum_J deg_j)``, and the factor
    ``sum_{t''_j >= 1} L^(-deg_j (t''_j - 1)) t_j^(h (t''_j - 1))`` of each
    ``j`` in ``J`` is a running sum (``_divide``).  Each key's composed
    codimension must equal the literal one.  A second product with every
    class set to 1 counts the strata per key; times the number of ``t''``
    that fit, the totals must match the stratum enumeration.  In ``integral`` mode a key is decided by
    its whole ``d * (exponent, w)``, which ``t''`` moves by multiples of
    ``d``; a dropped key adds its total to ``skipped_nonintegral``.
    """
    g = run.g
    what = "extended-semigroup series" if semigroup else "branch series" if g.r else "divisorial series"
    strata, scan_skipped = _scan_strata(run, strictness)
    d, _steps, caps, found, t_steps = run.walk_nhats
    names = ("composed codimension", "literal codimension")
    codims = [0] * len(found) if semigroup else [
        _agree(what, f" at nhat = {n}", names, nhat_codim(n, g), nhat_codim_literal(n, g))
        for n, _z in found
    ]
    class_by_subset, count_by_subset = run._sums_per_key

    width = len(caps)
    terms = {}
    total = skipped = 0
    subsets = _subsets(list(range(1, g.r + 1)))
    for branches, counts, values in zip(subsets, count_by_subset, class_by_subset):
        degree = sum(g.branch(j).degree for j in branches)
        placed = {}
        for k, count in enumerate(counts):
            if not count:
                continue
            z = found[k][1]
            fits = prod((caps[j - 1] - z[j - 1]) // t_steps[j - 1] for j in branches)
            if not fits:
                continue
            total += count * fits
            if strictness == "integral" and any(x % d for x in z):
                skipped += count * fits
                continue
            exp = list(z[:width])
            for j in branches:
                exp[j - 1] += t_steps[j - 1]
            exp = tuple(exp)
            value = values[k].lefschetz_shift(-(codims[k] + degree))
            placed[exp] = placed[exp] + value if exp in placed else value
        for j in branches:
            step = tuple(t_steps[j - 1] if a == j - 1 else 0 for a in range(width))
            placed = _divide(placed, step, RingElement.lefschetz(-g.branch(j).degree), caps)
        for exp, value in placed.items():
            terms[exp] = terms[exp] + value if exp in terms else value

    if total != len(strata) + scan_skipped or skipped != scan_skipped:
        raise SeriesCrossCheckError(
            f"{what}: the nhat generating function counts {total} strata "
            f"({skipped} non-integral), the enumeration {len(strata) + scan_skipped} "
            f"({scan_skipped} non-integral)"
        )
    series = _from_lattice(width, run.bound, d, terms)
    series.skipped_nonintegral = skipped
    return series


def _agree(what: str, where: str, names, x, y):
    """Return ``x`` if it equals ``y``, else raise ``SeriesCrossCheckError`` naming both."""
    if x != y:
        raise SeriesCrossCheckError(
            f"{what}: {names[0]} and {names[1]} disagree{where}: {names[0]} {x}, {names[1]} {y}"
        )
    return x


def require_same_series(what: str, left_name: str, left, right_name: str, right) -> None:
    """Raise ``SeriesCrossCheckError`` unless two series have the same terms.

    The message names the first differing exponent (graded-lex) and both values.
    """
    if left.terms != right.terms:
        for exp in sorted(left.terms.keys() | right.terms.keys(), key=_grlex_key):
            x, y = left.coefficient(exp), right.coefficient(exp)
            _agree(what, f"; first at {monomial_text(exp)}", (left_name, right_name), x, y)


def require_branches(g: ResolutionGraph) -> None:
    """Raise ``ValueError`` unless ``g`` has a branch, as the branch series needs one."""
    if g.r < 1:
        raise ValueError("the branch series needs at least one branch")


def _branch_free(run: Run) -> Run:
    """``run``, if its graph has no branch: on ``g`` itself a divisorial route would give ``pg``."""
    if run.g.r:
        raise ValueError("a divisorial route needs a Run of a branch-free graph, such as g.without_branches")
    return run


def poincare_generalised(run: Run, *, strictness: str = "literal") -> TruncatedSeries:
    """The branch series of ``run.g``, truncated coordinatewise at ``run.bound``.

    The stratum sum ``sum L^(-F) [Y] t^v`` is built once; its composed
    codimensions are checked against the literal ones and its stratum count
    against the enumeration, and a mismatch raises ``SeriesCrossCheckError``.
    """
    require_branches(run.g)
    return _assemble(run, strictness)


def poincare_divisorial(run: Run, *, strictness: str = "literal") -> TruncatedSeries:
    """The divisorial series of ``g``, truncated coordinatewise at the bound,
    from a Run of ``g.without_branches``: the branch series' construction on
    the branch-free graph."""
    return _assemble(_branch_free(run), strictness)


def divisorial_semigroup_stratum_sum(run: Run, *, strictness: str = "literal") -> TruncatedSeries:
    """The stratum sum ``sum [Y^D] t^w`` of the extended-semigroup series, from
    a Run of ``g.without_branches``: the divisorial series' per-key sum without
    its factor ``L^(-F^D)``.

    It must reproduce ``expand(divisorial_closed_form(g), run.bound)``
    exactly, so the closed form checks the engine that builds the branch and
    divisorial series.
    """
    return _assemble(_branch_free(run), strictness, semigroup=True)


# ---------------------------------------------------------------------------
# the closed form
# ---------------------------------------------------------------------------


class ClosedFormExpr(Record):
    """Rational closed form of the extended-semigroup series.

    ``denominator``: one pair of factors ``(1 - t^{m_i}) (1 - e_i L t^{m_i})``
    per component.  ``numerator``: one factor per intersection pair,

        ``D^h + D^(h-1) * (e L - 1) * t^{m_{i1}} * t^{m_{i2}}``

    with ``D = (1 - t^{m_{i1}})(1 - t^{m_{i2}})``, ``h`` the pair degree and
    ``e`` the pair's field symbol.
    """

    _FIELDS = ("arity", "m_rows", "component_classes", "pair_data")

    def __init__(
        self,
        arity: int,
        m_rows: tuple[ExponentVector, ...],
        component_classes: tuple[RingElement, ...],  # e_i, per component
        pair_data: tuple[tuple[int, int, int, RingElement], ...],  # (i1, i2, h, eL-1)
    ):
        super().__init__(arity, m_rows, component_classes, pair_data)

    @property
    def has_integral_exponents(self) -> bool:
        return all(row.is_integral for row in self.m_rows)

    def to_text(self) -> str:
        num_parts = []
        for i1, i2, h, units in self.pair_data:
            a = monomial_text(self.m_rows[i1 - 1])
            b = monomial_text(self.m_rows[i2 - 1])
            ab = monomial_text(self.m_rows[i1 - 1] + self.m_rows[i2 - 1])
            d = f"(1 - {a})*(1 - {b})"
            if h == 1:
                num_parts.append(f"({d} + ({units.to_text()})*{ab})")
            else:
                lead = f"({d})^{h}"
                rest = f"({d})" if h == 2 else f"({d})^{h - 1}"
                num_parts.append(f"({lead} + {rest}*({units.to_text()})*{ab})")
        num = "*".join(num_parts) if num_parts else "1"
        den_parts = []
        for i in range(self.arity):
            a = monomial_text(self.m_rows[i])
            e = self.component_classes[i]
            ratio = "L" if e.is_one else f"{e.to_text()}*L"
            den_parts.append(f"(1 - {a})*(1 - {ratio}*{a})")
        return f"{num} / ({'*'.join(den_parts)})"

    def to_json(self) -> dict:
        return {
            "arity": self.arity,
            "m_rows": [[_frac_json(x) for x in row] for row in self.m_rows],
            "components": [e.to_json() for e in self.component_classes],
            "pairs": [
                {"i1": i1, "i2": i2, "h_sigma": h, "units": units.to_json()}
                for i1, i2, h, units in self.pair_data
            ],
        }


def divisorial_closed_form(g: ResolutionGraph) -> ClosedFormExpr:
    rows = tuple(ExponentVector(row) for row in g.m_matrix)
    classes = tuple(field_class(g.component_label(i)) for i in range(1, g.s + 1))
    pair_data = tuple(
        (site.i1, site.i2, site.degree, units_class(g.pair_label(site)))
        for site in g.pairs
    )
    return ClosedFormExpr(
        arity=g.s, m_rows=rows, component_classes=classes, pair_data=pair_data
    )


def expand(cf: ClosedFormExpr, bound) -> TruncatedSeries:
    """Exact truncated expansion of the closed form.

    Exponents live on the integer lattice ``d * M`` (see ``_lattice``).  The
    numerator is a truncated polynomial product; dividing by each
    denominator factor, ``(1 - t^m)`` and ``(1 - e L t^m)``, is a running sum
    along ``m`` (``_divide``).
    """
    bound = tuple(bound)
    d, rows, caps = _lattice(integer_form(cf.m_rows), bound)
    zero = (0,) * cf.arity
    one = RingElement.one()
    poly = {zero: one}
    for i1, i2, h, units in cf.pair_data:
        a, b = rows[i1 - 1], rows[i2 - 1]
        # D^h + D^(h-1) U t^(a+b) = D^(h-1) (D + U t^(a+b)), D = (1 - t^a)(1 - t^b)
        for _ in range(h - 1):
            poly = _times(poly, {zero: one, a: -one}, caps)
            poly = _times(poly, {zero: one, b: -one}, caps)
        poly = _times(poly, {zero: one, a: -one, b: -one, tuple(map(add, a, b)): one + units}, caps)
    lef = RingElement.lefschetz()
    for row, e in zip(rows, cf.component_classes):
        poly = _divide(poly, row, one, caps)
        poly = _divide(poly, row, e * lef, caps)
    return _from_lattice(cf.arity, bound, d, poly)


def totally_rational_closed_form(g: ResolutionGraph) -> ClosedFormExpr:
    """The all-degrees-one closed form, built from ``M`` alone.

    Numerator factors are ``1 - t^{m_{i1}} - t^{m_{i2}} + L t^{m_{i1}}
    t^{m_{i2}}``; the denominator is ``prod (1 - t^{m_i})(1 - L t^{m_i})``.
    Comparing it with ``divisorial_closed_form(g)`` checks what the general
    closed form reads off a totally rational graph; equal records have equal
    expansions, so the comparison needs none.
    """
    if not g.is_totally_rational:
        raise ValueError("this reduction requires all extension degrees to be 1")
    one = RingElement.one()
    units = RingElement.lefschetz() - one
    return ClosedFormExpr(
        arity=g.s,
        m_rows=tuple(ExponentVector(row) for row in g.m_matrix),
        component_classes=(one,) * g.s,
        pair_data=tuple((site.i1, site.i2, 1, units) for site in g.pairs),
    )


def expand_totally_rational(g: ResolutionGraph, bound) -> TruncatedSeries:
    """Expansion of ``totally_rational_closed_form(g)``."""
    return expand(totally_rational_closed_form(g), bound)


def poincare_generalised_totally_rational(run: Run) -> TruncatedSeries:
    """Independent implementation of the all-degrees-one branch series.

    Coefficients take the symbol-free shape ``L^(#I + #J + sum n_i - F)
    (1 - L^{-1})^(#I + #J)`` times binomial factors in ``L^{-1}``.  The sum
    runs stratum by stratum; ``w`` and the part of ``F`` fixed by ``nhat``,
    each binomial factor, and the class ``(1 - L^{-1})^(#I + #J) prod_i
    inner(nu_i, n_i)`` of each ``(#I + #J, n)`` are computed once.
    """
    g = run.g
    if not g.is_totally_rational:
        raise ValueError("this reduction requires all extension degrees to be 1")
    require_branches(g)
    strata = _scan_strata(run, "literal")[0]  # literal mode skips none
    unit_factor = RingElement.one() - RingElement.lefschetz(-1)  # 1 - L^{-1}
    w_at = cache(lambda nh: w_of(nh, g))
    nhat_part = cache(lambda nh: nhat_codim(nh, g))

    @cache
    def inner(nu: int, n_i: int) -> RingElement:
        # nu >= 1 with a branch: if s = 1 it meets E_1, else E_i meets the last
        # center proximate to it or, if none is, a center it is proximate to
        out = RingElement.zero()
        for l in range(min(n_i, nu - 1) + 1):
            sign = -1 if l % 2 else 1
            out = out + RingElement.integer(sign * comb(nu - 1, l)).lefschetz_shift(-l)
        return out

    @cache
    def stratum_value(count: int, point_mults: tuple[int, ...]) -> RingElement:
        value = unit_factor**count
        for n_i, nu in zip(point_mults, g.nu_circ):
            if n_i:
                value = value * inner(nu, n_i)
        return value

    def term(st: Stratum):
        nh = nhat(st, g)
        exp = _v_from_w(w_at(nh), st, g)
        count = len(st.pairs) + len(st.branches)
        codim = nhat_part(nh) + _branch_codim(st, g)
        value = stratum_value(count, st.point_mults)
        return exp, value.lefschetz_shift(count + sum(st.point_mults) - codim)

    return _mapreduce(g.r, run.bound, strata, term)
