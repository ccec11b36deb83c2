"""Combinatorics of an embedded resolution of a plane curve singularity.

The input is purely combinatorial: ``s`` blowup centers listed in birth
order, each recording the set of earlier centers it is proximate to and the
degree ``h_i`` of its residue-field extension over the base field, plus the
curve branches, each attached to the exceptional component its strict
transform meets.  From that the module derives

* the proximity matrix ``P`` (upper unitriangular, ``-1`` at (i, j) when
  center j is proximate to center i),
* ``Delta = diag(h_1, ..., h_s)`` and the intersection matrix
  ``N = -P Delta P^t``,
* the exact rational matrix ``M = -N^{-1}`` whose rows are curvette value
  vectors, built as ``P^-t Delta^-1 P^-1`` from the integer inverse of ``P``
  and checked against ``-N``,
* the intersection pairs ``I0`` with their point degrees ``h_sigma =
  N[i1][i2]``, the neighbor counts ``nu_bullet`` / ``nu_circ``, and
  ``epsilon_i = 2 h_i - nu_bullet_i``.

A graph is immutable, and each derived value is built and checked on first
use and kept on the graph that built it, never beyond it: a graph and its
``without_branches`` each build their own ``M`` and integer form ``d * M``
(``m_lattice``).

Construction validates the classical proximity constraints (earlier indices
only, divisibility of residue degrees along infinitely near points, branch
attachments) and raises ``GraphValidationError`` carrying every violation.
"""

import reprlib
from functools import cached_property

from . import _linalg
from ._linalg import Record, _exact, _frac_json, _quotient

Pair = tuple[int, int]


class Center(Record):
    _FIELDS = ("proximate_to", "degree")

    def __init__(self, proximate_to: tuple[int, ...], degree: int = 1):
        super().__init__(proximate_to, degree)


class Branch(Record):
    _FIELDS = ("attach", "degree")

    def __init__(self, attach: int, degree: int = 1):
        super().__init__(attach, degree)


class PairSite(Record):
    """An unordered intersection pair sigma = (i1, i2) with its point degree."""

    _FIELDS = ("i1", "i2", "degree")

    def __init__(self, i1: int, i2: int, degree: int):
        # degree is h_sigma = N[i1][i2], the degree of the intersection point
        super().__init__(i1, i2, degree)

    @property
    def key(self) -> Pair:
        return (self.i1, self.i2)


class GraphValidationError(ValueError):
    """Raised when the combinatorial input violates a hard invariant."""

    def __init__(self, issues):
        self.issues = tuple(issues)
        super().__init__("; ".join(self.issues))


def site_component(i: int) -> str:
    return f"E{i}"


def site_pair(i1: int, i2: int) -> str:
    return f"P({i1},{i2})"


def site_branch(j: int) -> str:
    return f"C{j}"


class ResolutionGraph(Record):
    """Validated resolution combinatorics plus derived matrices.

    All data is immutable after construction; every derived attribute is a
    pure function of the input, cached on first access.
    """

    _FIELDS = ("centers", "branches", "labels")

    def __init__(
        self,
        centers: tuple[Center, ...],
        branches: tuple[Branch, ...] = (),
        labels: tuple[tuple[str, str], ...] = (),  # (site key, field label)
    ):
        issues = _validate_input(centers, branches)
        if issues:
            raise GraphValidationError(issues)
        super().__init__(centers, branches, labels)
        issues = self._validate_derived()
        if issues:
            raise GraphValidationError(issues)

    # -- sizes -------------------------------------------------------------

    @property
    def s(self) -> int:
        return len(self.centers)

    @property
    def r(self) -> int:
        return len(self.branches)

    def degree_of(self, i: int) -> int:
        return self.centers[i - 1].degree

    def branch(self, j: int) -> Branch:
        return self.branches[j - 1]

    # -- matrices ----------------------------------------------------------

    @cached_property
    def proximity_matrix(self):
        s = self.s
        p = [[0] * s for _ in range(s)]
        for j in range(1, s + 1):
            p[j - 1][j - 1] = 1
            for i in self.centers[j - 1].proximate_to:
                p[i - 1][j - 1] = -1
        return _linalg.mat(p)

    @cached_property
    def delta(self):
        return tuple(
            tuple(self.centers[i].degree if i == j else 0 for j in range(self.s))
            for i in range(self.s)
        )

    @cached_property
    def intersection_matrix(self):
        p = self.proximity_matrix
        return _linalg.neg(
            _linalg.mat_mul(_linalg.mat_mul(p, self.delta), _linalg.transpose(p))
        )

    @cached_property
    def m_matrix(self):
        """``M = -N^{-1}``, checked: ``M (-N) = I``."""
        # -N = P Delta P^t, so M = -N^{-1} = P^-t Delta^-1 P^-1, where P^-1 is
        # an integer matrix; integral entries are ints, the others Fractions.
        q = _linalg.unitriangular_inverse(self.proximity_matrix)
        scaled = tuple(
            tuple(_quotient(x, center.degree) for x in row)
            for row, center in zip(q, self.centers)
        )
        m = tuple(
            tuple(_exact(x) for x in row)
            for row in _linalg.mat_mul(_linalg.transpose(q), scaled)
        )
        if _linalg.mat_mul(m, _linalg.neg(self.intersection_matrix)) != _linalg.identity(self.s):
            raise ValueError("M verification failed: M times -N is not the identity")
        return m

    @cached_property
    def m_lattice(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """``(d, d * M)`` with ``d`` the least common denominator of ``M``.

        Built on first use (``m_matrix`` does not build it).  The codimensions
        and the stratum sums compute on it in ints.
        """
        return _linalg.integer_form(self.m_matrix)

    def m_row(self, i: int):
        return self.m_matrix[i - 1]

    # -- intersection pairs and neighbor counts ------------------------------

    @cached_property
    def pairs(self) -> tuple[PairSite, ...]:
        n = self.intersection_matrix
        return tuple(
            PairSite(i1, i2, n[i1 - 1][i2 - 1])
            for i1 in range(1, self.s + 1)
            for i2 in range(i1 + 1, self.s + 1)
            if n[i1 - 1][i2 - 1] != 0
        )

    def pair_site(self, i1: int, i2: int) -> PairSite:
        for site in self.pairs:
            if site.key == (i1, i2):
                return site
        raise KeyError(f"components E{i1} and E{i2} do not intersect")

    @cached_property
    def nu_bullet(self) -> tuple[int, ...]:
        n = self.intersection_matrix
        return tuple(
            sum(n[i][j] for j in range(self.s) if j != i) for i in range(self.s)
        )

    @cached_property
    def beta(self) -> tuple[int, ...]:
        n = self.intersection_matrix
        return tuple(
            sum(1 for j in range(self.s) if j != i and n[i][j] != 0)
            for i in range(self.s)
        )

    def branches_at(self, i: int) -> tuple[int, ...]:
        return tuple(j for j in range(1, self.r + 1) if self.branch(j).attach == i)

    @cached_property
    def nu_circ(self) -> tuple[int, ...]:
        # Branch attachments count with weight h_i, the degree of the
        # component the strict transform meets.
        return tuple(
            self.nu_bullet[i - 1] + self.degree_of(i) * len(self.branches_at(i))
            for i in range(1, self.s + 1)
        )

    @cached_property
    def epsilon(self) -> tuple[int, ...]:
        return tuple(
            2 * self.degree_of(i) - self.nu_bullet[i - 1]
            for i in range(1, self.s + 1)
        )

    # -- field labels --------------------------------------------------------

    @cached_property
    def _label_map(self) -> dict[str, str]:
        return {site: label for site, label in self.labels}

    def _site_label(self, site: str, degree: int) -> str | None:
        return None if degree == 1 else self._label_map.get(site, site)

    def component_label(self, i: int) -> str | None:
        return self._site_label(site_component(i), self.degree_of(i))

    def pair_label(self, site: PairSite) -> str | None:
        return self._site_label(site_pair(site.i1, site.i2), site.degree)

    def branch_label(self, j: int) -> str | None:
        return self._site_label(site_branch(j), self.branch(j).degree)

    @cached_property
    def labelled_sites(self) -> tuple[tuple[str, int], ...]:
        """``(label, degree)`` of every site of degree > 1, components first."""
        sites = (
            [(self.component_label(i), self.degree_of(i)) for i in range(1, self.s + 1)]
            + [(self.pair_label(site), site.degree) for site in self.pairs]
            + [(self.branch_label(j), self.branch(j).degree) for j in range(1, self.r + 1)]
        )
        return tuple((label, deg) for label, deg in sites if label is not None)

    def _validate_derived(self):
        issues = []
        n = self.intersection_matrix
        for i in range(self.s):
            for j in range(i + 1, self.s):
                if n[i][j] < 0:
                    issues.append(
                        f"derived intersection number N[{i + 1}][{j + 1}] = {n[i][j]} "
                        "is negative: the proximity data is not realizable"
                    )
        # every default label is its own site's key, so with no labels none
        # names an unknown site and no two sites share one
        if not self.labels:
            return issues
        valid_sites = (
            {site_component(i) for i in range(1, self.s + 1)}
            | {site_pair(p.i1, p.i2) for p in self.pairs}
            | {site_branch(j) for j in range(1, self.r + 1)}
        )
        for site, _label in self.labels:
            if site not in valid_sites:
                issues.append(f"label for unknown site {_shown(site)}")
        if issues:
            return issues
        # a label names one field, so every site carrying it has its degree
        degrees: dict[str, int] = {}
        for label, deg in self.labelled_sites:
            if label in degrees and degrees[label] != deg:
                issues.append(
                    f"label {_shown(label)} is shared by sites of degrees "
                    f"{degrees[label]} and {deg}"
                )
            degrees[label] = deg
        return issues

    @property
    def without_branches(self) -> "ResolutionGraph":
        """The same centers and component and pair labels, with no branches."""
        return self._branch_free if self.r else self  # caching self would make a cycle

    @cached_property
    def _branch_free(self) -> "ResolutionGraph":
        labels = tuple((site, label) for site, label in self.labels if not site.startswith("C"))
        return ResolutionGraph(self.centers, (), labels)

    @property
    def is_totally_rational(self) -> bool:
        return (
            all(c.degree == 1 for c in self.centers)
            and all(b.degree == 1 for b in self.branches)
            and all(site.degree == 1 for site in self.pairs)
        )


def _validate_input(centers, branches):
    issues = []
    if not centers:
        issues.append("at least one blowup center is required")
        return issues
    s = len(centers)
    for i, center in enumerate(centers, start=1):
        if center.degree < 1:
            issues.append(f"center {i}: degree must be a positive integer")
        prox = center.proximate_to
        if len(set(prox)) != len(prox):
            issues.append(f"center {i}: repeated proximity indices")
        for ip in prox:
            if not 1 <= ip < i:
                issues.append(
                    f"center {i}: proximity must reference earlier center, got {_shown(ip)}"
                )
            elif center.degree % centers[ip - 1].degree != 0:
                issues.append(
                    f"center {i}: degree {_shown(center.degree)} is not divisible by "
                    f"degree {_shown(centers[ip - 1].degree)} of center {ip}"
                )
        if i >= 2 and not prox:
            issues.append(
                f"center {i}: every center after the first is proximate to at "
                "least one earlier center"
            )
    for j, branch in enumerate(branches, start=1):
        if branch.degree < 1:
            issues.append(f"branch {j}: degree must be a positive integer")
        if not 1 <= branch.attach <= s:
            issues.append(
                f"branch {j}: dangling attachment to component {_shown(branch.attach)}"
            )
        elif branch.degree % centers[branch.attach - 1].degree != 0:
            issues.append(
                f"branch {j}: degree {_shown(branch.degree)} is not divisible by degree "
                f"{_shown(centers[branch.attach - 1].degree)} of component {branch.attach}"
            )
    return issues


# A message shows a value of the input by its repr, cut to _SHOWN characters.
# Under these limits reprlib cuts nothing from a value whose repr is that short
# (each entry and each level of a list or dict adds at least two characters),
# and whatever it does cut comes out longer than that.
_SHOWN = 80
_CUT = reprlib.Repr()
_CUT.maxlevel = _CUT.maxlist = _CUT.maxdict = _SHOWN // 2
_CUT.maxstring = _CUT.maxlong = _CUT.maxother = _SHOWN + 1


def _shown(x) -> str:
    """``repr(x)`` if it has at most 80 characters, else 80 characters ending in ``...``.

    ``reprlib`` bounds the work for a value of any size or depth.  When its
    text is short enough, nothing was cut, and ``repr`` gives the value as it
    is (a dict in its own key order, which ``reprlib`` sorts); otherwise its
    text, which may already skip the middle of a long string or number, is
    cut to 77 characters.
    """
    text = _CUT.repr(x)
    if len(text) <= _SHOWN:
        return repr(x)
    return text[: _SHOWN - 3] + "..."


def _json_int(x) -> int:
    """``x`` itself if it is a JSON integer; a float or bool is not truncated."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {_shown(x)}")
    return x


def _json_label(x) -> str:
    """``x`` itself if ``--specialize`` can name it as ``e[x]``.

    That is a non-empty string without ``=`` (which ends the name) or
    brackets (which decide where an assignment ends).
    """
    if type(x) is not str or not x or any(c in x for c in "=[]"):
        raise TypeError(f"a label is a non-empty string without '=', '[' or ']', got {_shown(x)}")
    return x


def build(description: dict) -> ResolutionGraph:
    """Build and validate a graph from its JSON-shaped description.

    Expected keys: ``centers`` (list of ``{"prox": [...], "h": int}`` in
    blowup order), ``branches`` (list of ``{"attach": int, "h": int}``) and
    optional ``labels`` (site key such as ``"E2"``, ``"P(1,2)"`` or ``"C1"``
    -> field label).  Every other site degree, a pair's ``h_sigma``
    included, is derived from these.
    """
    if not isinstance(description, dict):
        raise GraphValidationError(["graph description must be a JSON object"])
    unknown = set(description) - {"centers", "branches", "labels"}
    if unknown:
        raise GraphValidationError([f"unknown top-level keys {_shown(sorted(unknown))}"])
    try:
        centers = tuple(
            Center(
                proximate_to=tuple(sorted(_json_int(x) for x in c.get("prox", ()))),
                degree=_json_int(c.get("h", 1)),
            )
            for c in description.get("centers", ())
        )
        branches = tuple(
            Branch(attach=_json_int(b["attach"]), degree=_json_int(b.get("h", 1)))
            for b in description.get("branches", ())
        )
        labels = tuple(sorted((k, _json_label(v)) for k, v in description.get("labels", {}).items()))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise GraphValidationError([f"malformed graph record: {exc}"]) from exc
    return ResolutionGraph(centers=centers, branches=branches, labels=labels)


def matrices_report(g: ResolutionGraph) -> dict:
    """All four matrices with exact entries, JSON-ready."""
    def render(mtx):
        return [[_frac_json(x) for x in row] for row in mtx]

    return {
        "s": g.s,
        "P": render(g.proximity_matrix),
        "Delta": render(g.delta),
        "N": render(g.intersection_matrix),
        "M": render(g.m_matrix),
        "pairs": [
            {"i1": p.i1, "i2": p.i2, "h_sigma": p.degree} for p in g.pairs
        ],
        "nu_bullet": list(g.nu_bullet),
        "nu_circ": list(g.nu_circ),
        "beta": list(g.beta),
        "epsilon": list(g.epsilon),
    }
