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
``ExponentVector`` once per output term, dividing by ``d`` through
``_linalg._quotient``: an integral series builds no ``Fraction``.

A ``Run`` is one graph, one bound and one strictness (``integral`` or not).
It walks the ``nhat`` lattice when it is built, and forms the per-key
products and scans the strata at most once for all the routes it is handed.
``check`` hands one Run of the branch-free graph to its divisorial lines and
one of the graph to the branch series and its per-stratum reference (the
totally rational branch series).  The scan is one walk per stratum family
(pair subset x branch subset), over the point multiplicities and the
family's legs together.  It records each stratum as a row ``(family,
values)`` and builds its ``Stratum`` only for a reader that iterates (the
reference, ``enumerate_strata``); the count checks read its length, so
``pg``, ``pdg`` and the stratum sum build none.  A Run also holds each key's
codimension, checked once against the literal one.  Nothing a Run computes
outlives it, and nothing is kept per process.  A Run shares inputs, never a
route's result, so no cross-check loses its independence.

Truncation is per variable: a series holds exactly the terms whose exponent
vector is coordinatewise at most the bound.  Because every exponent is a sum
of nonnegative contributions, truncating all intermediate products and sums
at the bound loses nothing below it.  A ``TruncatedSeries`` is a value, built
once from the dict of its terms: each route sums its terms first and drops
zeros in the pass that makes the dict (``_from_lattice``, ``_summed``).
"""

from math import comb, floor, prod
from functools import cache, cached_property, reduce
from operator import add, le, mul

from ._linalg import Record, _exact, _frac_json, _quotient, integer_form
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
from .grothendieck import RingElement, field_class, units_class
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
        elif type(e) is not int:
            parts.append(f"{name}^({e})")
        else:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


class TruncatedSeries(Record):
    """Finite slab of a multivariate series under a per-variable bound.

    Built once from its terms: ``terms`` maps each exponent vector at most
    ``bound`` to its nonzero value, and whoever builds the dict drops zeros
    and exponents past the bound.  The arity is the length of ``bound``.
    ``terms`` is a dict, so a series cannot be hashed.
    """

    _FIELDS = ("bound", "terms", "skipped_nonintegral")

    def __init__(
        self,
        bound: tuple,
        terms: dict[ExponentVector, RingElement] | None = None,
        skipped_nonintegral: int = 0,
    ):
        super().__init__(tuple(map(_exact, bound)), {} if terms is None else terms, skipped_nonintegral)

    @property
    def arity(self) -> int:
        return len(self.bound)

    def coefficient(self, exp) -> RingElement:
        return self.terms.get(ExponentVector(exp), RingElement.zero())

    def sorted_items(self):
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]))

    @property
    def is_integral_lattice(self) -> bool:
        return all(exp.is_integral for exp in self.terms) and all(
            value.has_integral_lefschetz_exponents for value in self.terms.values()
        )

    def specialize(self, spec) -> dict:
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
        """The series ``to_json`` rendered; ``"arity"`` must be the length of ``"bound"``."""
        bound = [_exact(b) for b in data["bound"]]
        if int(data["arity"]) != len(bound):
            raise ValueError(f"series arity {data['arity']} does not match its {len(bound)} bounds")
        terms = (
            (ExponentVector(item["t"]), RingElement.from_json(item["value"]))
            for item in data["terms"]
        )
        return cls(bound, _summed(bound, terms), int(data.get("skipped_nonintegral", 0)))


# ---------------------------------------------------------------------------
# symmetric powers and stratum classes
# ---------------------------------------------------------------------------


def sym_power_class(label: str | None, nu: int, n: int) -> RingElement:
    """Class of the n-th symmetric power of an open exceptional component.

    The component is a projective line over the field named by ``label``
    (``None`` for the base field, which contributes no symbol; see
    ``field_class``) with ``nu`` points removed,
    counted with their degree weights.  The value is the coefficient of
    ``x^n`` in ``(1 - e L x)^{-1} (1 - x)^{nu - 1}``: for ``nu >= 1`` the
    second factor is the finite binomial polynomial, while ``nu = 0`` makes
    it a geometric series, giving ``sum_{k<=n} (e L)^k``.
    """
    if n < 0:
        raise ValueError("symmetric power index must be nonnegative")
    if nu < 0:
        raise ValueError("removed-point count must be nonnegative")
    # (e L)^k is the one monomial L^k e^k, and e is 1 over the base field
    top = n if nu == 0 else min(n, nu - 1)
    return RingElement(
        {
            (n - l, () if label is None else ((label, n - l),)): 1 if nu == 0 else (-1) ** l * comb(nu - 1, l)
            for l in range(top + 1)
        }
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
    caps = tuple(floor(_exact(b) * d) for b in bound)
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


def _divide(poly, step, cs, caps):
    """``poly / prod_c (1 - c t^step)`` over the ring values ``cs``, on the
    lattice, truncated at ``caps``.

    ``poly`` maps int exponent tuples, each at most ``caps``, to ring values;
    ``step`` is nonnegative and not zero.  Dividing by one factor is the
    running sum ``out[e] = in[e] + c * out[e - step]``; the factors share
    ``step``, so they share its chains ``base + k * step``, and each position
    of a chain runs the factors' sums in turn.  A chain is walked from its
    first term, whose value starts every sum, up to the bound, through the
    positions where ``poly`` has no term as well; only the axes that ``step``
    moves bound it.  Zero values are dropped.
    """
    moving = [(a, x) for a, x in enumerate(step) if x]
    if not moving:
        raise ValueError("geometric expansion needs a nonzero exponent step")
    axis, size = moving[0]
    chains = {}
    for e, value in poly.items():
        k = e[axis] // size
        chains.setdefault(tuple([x - k * s for x, s in zip(e, step)]), {})[k] = value
    factors = [(c, c._lefschetz_power()) for c in cs]  # multiplying by L^power is a shift
    out = {}
    for base, terms in chains.items():
        first = min(terms)
        last = min([(caps[a] - base[a]) // x for a, x in moving])
        e = tuple([b + first * s for b, s in zip(base, step)])
        value = terms[first]
        sums = [value] * len(factors)
        if value:
            out[e] = value
        for k in range(first + 1, last + 1):
            e = tuple(map(add, e, step))
            value = terms.get(k)
            for i, (c, power) in enumerate(factors):
                acc = sums[i]
                if power is None:
                    acc = c * acc
                elif power:
                    acc = acc.lefschetz_shift(power)
                if value is not None:
                    acc = acc + value
                sums[i] = value = acc
            if value:
                out[e] = value
    return out


def _from_lattice(bound, d, poly, skipped=0) -> TruncatedSeries:
    """The series whose terms are the nonzero ones of ``poly``, exponents divided by ``d``."""
    terms = {
        ExponentVector(e if d == 1 else (_quotient(x, d) for x in e)): value for e, value in poly.items() if value
    }
    return TruncatedSeries(bound, terms, skipped)


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
    """One graph, one bound and one strictness, and what the routes handed
    them share.

    Building a Run walks its ``nhat`` lattice, so a bound of the wrong length
    or with a negative entry raises here.  ``d``, ``steps`` and ``caps`` are
    as in ``_lattice``.  ``keys`` holds every ``(nhat, z)`` whose exponent
    (``v``, or ``w`` if the graph has no branches) fits under the bound,
    lexicographically, with ``z = d * (exponent, w)``; these are exactly the
    ``nhat`` of the strata ``enumerate_strata`` yields, since the stratum with
    ``n = nhat`` and nothing else has them.  ``t_steps[j - 1]`` is what a
    unit of ``t''_j`` adds to ``z``: ``d * h`` at ``v_j``, ``h`` the degree of
    the component branch ``j`` attaches to.  An ``integral`` Run drops every
    stratum whose ``z`` is not a multiple of ``d``, a non-integral valuation
    or exponent vector.  The per-key codimensions and products and the one
    scan (``_scan_strata``) are made on first use.  The bound is copied into
    a tuple.
    """

    def __init__(self, g: ResolutionGraph, bound, *, integral: bool = False):
        self.g = g
        self.bound = tuple(bound)
        self.integral = integral
        attach = [b.attach for b in g.branches]
        self.d, self.steps, self.caps = _lattice(g.m_lattice, self.bound, attach)
        width = len(self.steps[0])
        self.keys = tuple((tuple(n), tuple(z)) for n, z in _walk(self.steps, [0] * g.s, [0] * width, self.caps))
        self.t_steps = tuple(
            tuple(self.d * g.degree_of(a) if k == j else 0 for k in range(width)) for j, a in enumerate(attach)
        )
        self._scan = None  # what _scan_strata returns, once it has run

    @cached_property
    def codims(self) -> dict:
        """The composed codimension ``nhat_codim`` of every ``nhat`` of the
        walk, each checked against the literal one; a mismatch raises
        ``SeriesCrossCheckError``.  The composed one reads ``d * w`` from the
        walk's ``z``, so the literal one, which reads only ``d * M``, checks
        that too."""
        g = self.g
        what = "branch series" if g.r else "divisorial series"
        lead = g.r  # z is d * (v, w) on a graph with branches, d * w without
        codims = {}
        for n, z in self.keys:
            codims[n] = composed = nhat_codim(n, g, z[lead:])
            literal = nhat_codim_literal(n, g)
            if composed != literal:  # the message is formatted only for a mismatch
                _agree(what, f" at nhat = {n}", ("composed codimension", "literal codimension"), composed, literal)
        return codims

    @cached_property
    def _sums_per_key(self):
        """The class sums and the stratum counts of ``_coefficients``, per
        branch subset and per ``nhat`` of the walk.  Neither depends on
        ``integral``: ``_assemble`` drops keys afterwards."""
        g = self.g
        nhats = [n for n, _z in self.keys]
        position = {n: k for k, n in enumerate(nhats)}
        below = [
            [position[n[:a] + (n[a] - 1,) + n[a + 1 :]] if n[a] else -1 for n in nhats]
            for a in range(g.s)
        ]
        # per component, its class for every n_i up to the largest in use
        sites = [
            [sym_power_class(g.component_label(i + 1), g.nu_circ[i], n) for n in range(top + 1)]
            for i, top in enumerate(map(max, zip(*nhats)))
        ]
        classes = _coefficients(g, nhats, below, sites, units_class, RingElement.zero())
        ones = [[1] * len(row) for row in sites]
        return classes, _coefficients(g, nhats, below, ones, lambda _label: 1, 0)


class _Strata(Record):
    """The strata of one scan, in scan order: a sized iterable whose items are
    built as they are read.

    ``rows`` holds one ``(family, values)`` per stratum: ``family`` is
    ``(pairs, branches, s)`` and ``values`` the ``s`` point multiplicities,
    then the ``2 * len(pairs)`` pair leg values, then the branch ones.
    Iterating builds each ``Stratum`` through ``Stratum.__init__``; ``len``
    builds none.
    """

    _FIELDS = ("rows",)

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        for (pairs, branches, s), values in self.rows:
            cut = s + 2 * len(pairs)
            p, b = iter(values[s:cut]), iter(values[cut:])  # zip(p, p) pairs consecutive legs
            yield Stratum(pairs, branches, values[:s], tuple(zip(p, p)), tuple(zip(b, b)))


def _scan_strata(run: Run):
    """All strata whose exponent vector fits under the bound, in a fixed order.

    Returns ``(strata, skipped)`` where ``strata`` is a ``_Strata``, a sized
    iterable that records each stratum as a row and builds its ``Stratum``
    only when a reader iterates it (``len`` builds none), and ``skipped``
    counts the strata an ``integral`` Run drops for having a non-integral
    valuation or exponent vector.  A stratum is a family (pair subset x
    branch subset), point multiplicities ``n`` and the family's legs, ``(n',
    n'')`` per chosen pair and ``(t', t'')`` per chosen branch, each at least
    1.  A family whose legs at 1 fit at ``n = 0`` is one ``_walk`` over ``n``
    and its legs together, in the order family, then ``n``, then legs.  The
    result is kept on ``run``, so its readers share its one scan.
    """
    if run._scan is not None:
        return run._scan
    g, steps, caps = run.g, run.steps, run.caps
    rows = []
    skipped = 0
    for pair_subset in _subsets([site.key for site in g.pairs]):
        for branch_subset in _subsets(list(range(1, g.r + 1))):
            legs = [steps[i - 1] for pair in pair_subset for i in pair]
            for j in branch_subset:
                legs += [steps[g.branch(j).attach - 1], run.t_steps[j - 1]]
            least = list(map(sum, zip([0] * len(steps[0]), *legs)))  # n = 0, every leg at 1
            if not all(map(le, least, caps)):
                continue  # the walk would yield nothing
            family = (pair_subset, branch_subset, g.s)
            for values, z in _walk(list(steps) + legs, [0] * g.s + [1] * len(legs), least, caps):
                # an integral Run checks the exponent vector and w
                if run.integral and any(x % run.d for x in z):
                    skipped += 1
                    continue
                rows.append((family, tuple(values)))
    run._scan = (_Strata(tuple(rows)), skipped)
    return run._scan


def enumerate_strata(g: ResolutionGraph, bound):
    """Every stratum whose exponent (as in ``Run``) is coordinatewise at most
    ``bound``, in scan order (family, then ``n``, then legs), built as it is
    yielded from the scan's ``(family, values)`` rows."""
    yield from _scan_strata(Run(g, bound))[0]


# ---------------------------------------------------------------------------
# series assembly
# ---------------------------------------------------------------------------


def _summed(bound, terms) -> dict:
    """The ``(exponent, value)`` pairs of ``terms`` summed per exponent, keeping
    the exponents at most ``bound`` whose sum is not zero."""
    sums = {}
    for exp, value in terms:
        sums[exp] = sums[exp] + value if exp in sums else value
    return {exp: value for exp, value in sums.items() if value and exp.leq(bound)}


def _mapreduce(bound, strata, term_fn) -> TruncatedSeries:
    """The series whose terms are ``term_fn(st)`` over ``strata``, as ``_summed`` adds them."""
    return TruncatedSeries(bound, _summed(bound, map(term_fn, strata)))


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
    ``site[i][0]`` is the unit, so a key's product reads only its nonzero
    ``n_i``, and a zero sum is not multiplied by ``U``.
    """
    one = site[0][0]
    values = []
    for n in keys:
        factors = [site[i][n_i] for i, n_i in enumerate(n) if n_i]
        values.append(reduce(mul, factors) if factors else one)
    for p in g.pairs:
        both = _tail(_tail(values, below[p.i1 - 1], zero), below[p.i2 - 1], zero)
        u = unit(g.pair_label(p))
        values = [a + u * b if b else a for a, b in zip(values, both)]
    per_subset = [values]
    for j in range(1, g.r + 1):
        u = unit(g.branch_label(j))
        below_a = below[g.branch(j).attach - 1]
        per_subset += [[u * b if b else b for b in _tail(c, below_a, zero)] for c in per_subset]
    return per_subset


def _assemble(run: Run, *, semigroup: bool = False):
    """The branch series of ``run``, or the divisorial one if its graph has no
    branch, per key; with ``semigroup``, the extended-semigroup stratum sum on a
    branch-free graph, which leaves out ``L^(-F)`` and so computes no
    codimension.

    ``F``, ``v`` and ``w`` depend on a stratum only through ``nhat`` and the
    branch second multiplicities ``t''``, so ``_coefficients`` sums the
    stratum classes per ``(nhat, J)``.  Each key's sum is placed at ``t'' =
    (1, ..., 1)`` with ``L^(-F - sum_J deg_j)``, and the factor
    ``sum_{t''_j >= 1} L^(-deg_j (t''_j - 1)) t_j^(h (t''_j - 1))`` of each
    ``j`` in ``J`` is a running sum (``_divide``).  Each key's codimension
    comes from ``run.codims``, checked against the literal one.  A second
    product with every class set to 1 counts the strata per key; times the
    number of ``t''`` that fit, the totals must match the stratum
    enumeration.  An ``integral`` Run decides a key by its whole ``d *
    (exponent, w)``, which ``t''`` moves by multiples of ``d``; a dropped key
    adds its total to ``skipped_nonintegral``.
    """
    g, d, caps = run.g, run.d, run.caps
    what = "extended-semigroup series" if semigroup else "branch series" if g.r else "divisorial series"
    strata, scan_skipped = _scan_strata(run)
    codims = [0] * len(run.keys) if semigroup else [run.codims[n] for n, _z in run.keys]
    class_by_subset, count_by_subset = run._sums_per_key

    width = len(caps)
    terms = {}
    total = skipped = 0
    subsets = _subsets(list(range(1, g.r + 1)))
    for branches, counts, values in zip(subsets, count_by_subset, class_by_subset):
        degree = sum(g.branch(j).degree for j in branches)
        steps = [run.t_steps[j - 1][:width] for j in branches]
        placed = {}
        for (_n, z), count, value, codim in zip(run.keys, counts, values, codims):
            if not count:
                continue
            fits = prod((caps[j - 1] - z[j - 1]) // step[j - 1] for j, step in zip(branches, steps))
            if not fits:
                continue
            total += count * fits
            if run.integral and any(x % d for x in z):
                skipped += count * fits
                continue
            exp = tuple(map(sum, zip(z[:width], *steps)))  # every t'' at 1
            value = value.lefschetz_shift(-(codim + degree))
            placed[exp] = placed[exp] + value if exp in placed else value
        for j, step in zip(branches, steps):
            placed = _divide(placed, step, (RingElement.lefschetz(-g.branch(j).degree),), caps)
        for exp, value in placed.items():
            terms[exp] = terms[exp] + value if exp in terms else value

    if total != len(strata) + scan_skipped or skipped != scan_skipped:
        raise SeriesCrossCheckError(
            f"{what}: the nhat generating function counts {total} strata "
            f"({skipped} non-integral), the enumeration {len(strata) + scan_skipped} "
            f"({scan_skipped} non-integral)"
        )
    return _from_lattice(run.bound, d, terms, skipped)


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


def poincare_generalised(run: Run) -> TruncatedSeries:
    """The branch series of ``run.g``, truncated coordinatewise at ``run.bound``.

    The stratum sum ``sum L^(-F) [Y] t^v`` is built once; its composed
    codimensions are checked against the literal ones and its stratum count
    against the enumeration, and a mismatch raises ``SeriesCrossCheckError``.
    """
    require_branches(run.g)
    return _assemble(run)


def poincare_divisorial(run: Run) -> TruncatedSeries:
    """The divisorial series of ``g``, truncated coordinatewise at the bound,
    from a Run of ``g.without_branches``: the branch series' construction on
    the branch-free graph."""
    return _assemble(_branch_free(run))


def divisorial_semigroup_stratum_sum(run: Run) -> TruncatedSeries:
    """The stratum sum ``sum [Y^D] t^w`` of the extended-semigroup series, from
    a Run of ``g.without_branches``: the divisorial series' per-key sum without
    its factor ``L^(-F^D)``.

    It must reproduce ``expand(divisorial_closed_form(g), run.bound)``
    exactly, so the closed form checks the engine that builds the branch and
    divisorial series.
    """
    return _assemble(_branch_free(run), semigroup=True)


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

    _FIELDS = ("m_rows", "component_classes", "pair_data")

    def __init__(
        self,
        m_rows: tuple[ExponentVector, ...],
        component_classes: tuple[RingElement, ...],  # e_i, per component
        pair_data: tuple[tuple[int, int, int, RingElement], ...],  # (i1, i2, h, eL-1)
    ):
        super().__init__(m_rows, component_classes, pair_data)

    @property
    def arity(self) -> int:
        return len(self.m_rows)

    @property
    def has_integral_exponents(self) -> bool:
        return all(row.is_integral for row in self.m_rows)

    def to_text(self) -> str:
        num_parts = []
        for i1, i2, h, units in self.pair_data:
            a = monomial_text(self.m_rows[i1 - 1])
            b = monomial_text(self.m_rows[i2 - 1])
            ab = monomial_text(ExponentVector(map(add, self.m_rows[i1 - 1], self.m_rows[i2 - 1])))
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
    return ClosedFormExpr(m_rows=rows, component_classes=classes, pair_data=pair_data)


def expand(cf: ClosedFormExpr, bound) -> TruncatedSeries:
    """Exact truncated expansion of the closed form.

    Exponents live on the integer lattice ``d * M`` (see ``_lattice``).  The
    numerator is a truncated polynomial product; dividing by each
    denominator factor, ``(1 - t^m)`` and ``(1 - e L t^m)``, is a running sum
    along ``m``, and one ``_divide`` walks the two sums of a component's
    ``m`` together.
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
        poly = _divide(poly, row, (one, e * lef), caps)
    return _from_lattice(bound, d, poly)


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
        m_rows=tuple(ExponentVector(row) for row in g.m_matrix),
        component_classes=(one,) * g.s,
        pair_data=tuple((site.i1, site.i2, 1, units) for site in g.pairs),
    )


def poincare_generalised_totally_rational(run: Run) -> TruncatedSeries:
    """Independent implementation of the all-degrees-one branch series.

    Coefficients take the symbol-free shape ``L^(#I + #J + sum n_i - F)
    (1 - L^{-1})^(#I + #J)`` times binomial factors in ``L^{-1}``.  The sum
    runs stratum by stratum; ``w``, each binomial factor, each power
    ``(1 - L^{-1})^(#I + #J)``, and the class ``(1 - L^{-1})^(#I + #J) prod_i
    inner(nu_i, n_i)`` of each ``(#I + #J, n)`` are computed once (factors
    equal to 1 are left out of that product), and the part of ``F`` fixed by
    ``nhat`` is read from ``run.codims``.
    """
    g = run.g
    if not g.is_totally_rational:
        raise ValueError("this reduction requires all extension degrees to be 1")
    require_branches(g)
    strata = _scan_strata(run)[0]  # d = 1 here, so even an integral Run skips none
    unit_power = cache((RingElement.one() - RingElement.lefschetz(-1)).__pow__)  # (1 - L^{-1})^count
    w_at = cache(lambda nh: w_of(nh, g))
    nhat_part = run.codims  # nhat -> its part of F, checked against the literal form

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
        # factors that are 1 (count 0, n_i = 0) are left out of the product
        factors = [inner(nu, n_i) for n_i, nu in zip(point_mults, g.nu_circ) if n_i]
        if count:
            factors.append(unit_power(count))
        return reduce(mul, factors) if factors else RingElement.one()

    def term(st: Stratum):
        nh = nhat(st, g)
        exp = _v_from_w(w_at(nh), st, g)
        count = len(st.pairs) + len(st.branches)
        codim = nhat_part[nh] + _branch_codim(st, g)
        value = stratum_value(count, st.point_mults)
        return exp, value.lefschetz_shift(count + sum(st.point_mults) - codim)

    return _mapreduce(run.bound, strata, term)
