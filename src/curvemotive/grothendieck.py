"""Formal coefficient ring for motivic series.

An element is a Laurent polynomial in the Lefschetz class ``L`` (the class of
the affine line) whose coefficients are integer polynomials in opaque
commuting symbols ``e[label]``, one per residue-field label.  The symbols
stand for classes of spectra of finite field extensions; no relations among
distinct symbols are imposed, so products like ``e[a]*e[b]`` stay formal.
A site's field enters only through ``field_class(label)``: the unit when the
label is ``None`` (the site's field is the base field), else ``e[label]``.
``units_class(label)`` is the class of the punctured affine line over it.

``L``-exponents are exact rationals, stored as ``int`` when integral and as
``Fraction`` only when not (see ``_exact``): codimension exponents of strata
can be non-integral when extension degrees exceed one, and such terms are
carried exactly rather than rounded.  Symbol exponents are nonnegative
integers by construction (formulas that would produce ``e^(n-l)`` with
``l > n`` are never formed).  Coefficients are arbitrary-precision integers.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import lcm

from ._record import Record

# A monomial key is (L-exponent, ((label, exponent), ...)) with the L-exponent
# normalised by _exact, the symbol part sorted by label and all symbol
# exponents positive.
MonomialKey = tuple[int | Fraction, tuple[tuple[str, int], ...]]

_ZERO = 0


def _canonical_syms(syms) -> tuple[tuple[str, int], ...]:
    items = [(str(k), int(v)) for k, v in syms if v != 0]
    for label, exp in items:
        if exp < 0:
            raise ValueError(f"negative exponent for symbol e[{label}]")
    items.sort()
    return tuple(items)


class RingElement:
    """Immutable element of the localized Grothendieck-ring model."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[MonomialKey, int] | None = None):
        canon: dict[MonomialKey, int] = {}
        if terms:
            for (lexp, syms), coeff in terms.items():
                if coeff == 0:
                    continue
                key = (_exact(lexp), _canonical_syms(syms))
                canon[key] = canon.get(key, 0) + int(coeff)
                if canon[key] == 0:
                    del canon[key]
        self._terms = canon

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "RingElement":
        return cls()

    @classmethod
    def one(cls) -> "RingElement":
        return cls({(_ZERO, ()): 1})

    @classmethod
    def integer(cls, n: int) -> "RingElement":
        return cls({(_ZERO, ()): int(n)})

    @classmethod
    def lefschetz(cls, exp=1) -> "RingElement":
        """The monomial L**exp; exp may be any exact rational."""
        return cls({(_exact(exp), ()): 1})

    @classmethod
    def symbol(cls, label: str, exp: int = 1) -> "RingElement":
        return cls({(_ZERO, ((str(label), int(exp)),)): 1})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            c = out.get(key, 0) + coeff
            if c:
                out[key] = c
            else:  # only a key already in out can cancel
                del out[key]
        result = RingElement.__new__(RingElement)
        result._terms = out
        return result

    __radd__ = __add__

    def __neg__(self):
        result = RingElement.__new__(RingElement)
        result._terms = {k: -c for k, c in self._terms.items()}
        return result

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[MonomialKey, int] = {}
        for (l1, s1), c1 in self._terms.items():
            for (l2, s2), c2 in other._terms.items():
                key = (_exact(l1 + l2), _merge_syms(s1, s2))
                c = out.get(key, 0) + c1 * c2
                if c:
                    out[key] = c
                elif key in out:
                    del out[key]
        result = RingElement.__new__(RingElement)
        result._terms = out
        return result

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are only defined for L itself")
        result = RingElement.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def lefschetz_shift(self, exp) -> "RingElement":
        """Multiply by L**exp without building an intermediate element."""
        exp = _exact(exp)
        result = RingElement.__new__(RingElement)
        result._terms = {(_exact(l + exp), s): c for (l, s), c in self._terms.items()}
        return result

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_one(self) -> bool:
        return self._terms == {(_ZERO, ()): 1}

    @property
    def has_integral_lefschetz_exponents(self) -> bool:
        return all(l.denominator == 1 for l, _ in self._terms)

    def sorted_terms(self):
        """Terms in the canonical order: L-degree descending, then symbols.

        L-exponents are compared as ints, each times the least common
        multiple of their denominators, which orders them as the exact
        rationals but without ``Fraction`` comparisons.
        """
        scale = lcm(*{lexp.denominator for lexp, _syms in self._terms})

        def key(item):
            lexp, syms = item[0]
            return -lexp.numerator * (scale // lexp.denominator), syms

        return sorted(self._terms.items(), key=key)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    # -- specialization ----------------------------------------------------

    def specialize(self, spec: "Specialization") -> Fraction:
        total = Fraction(0)
        for (lexp, syms), coeff in self._terms.items():
            value = Fraction(coeff)
            value *= _rational_power(spec.lefschetz, lexp)
            for label, exp in syms:
                value *= spec.value_of(label) ** exp
            total += value
        return total

    # -- rendering ---------------------------------------------------------

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (lexp, syms), coeff in self.sorted_terms():
            factors = []
            if lexp != 0:
                factors.append("L" if lexp == 1 else f"L^{_exp_text(lexp)}")
            for label, exp in syms:
                factors.append(f"e[{label}]" + (f"^{exp}" if exp > 1 else ""))
            mag = abs(coeff)
            if factors:
                body = "*".join(factors)
                if mag != 1:
                    body = f"{mag}*{body}"
            else:
                body = str(mag)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(parts)

    __str__ = to_text

    def __repr__(self):
        return f"RingElement({self.to_text()})"

    def to_json(self):
        out = []
        for (lexp, syms), coeff in self.sorted_terms():
            out.append(
                {
                    "Lexp": _frac_json(lexp),
                    "symbols": {label: exp for label, exp in syms},
                    "coeff": coeff,
                }
            )
        return out

    @classmethod
    def from_json(cls, data) -> "RingElement":
        terms: dict[MonomialKey, int] = {}
        for item in data:
            key = (
                Fraction(item["Lexp"]),
                tuple(sorted((str(k), int(v)) for k, v in item.get("symbols", {}).items())),
            )
            terms[key] = terms.get(key, 0) + int(item["coeff"])
        return cls(terms)


def _coerce(value):
    if isinstance(value, RingElement):
        return value
    if isinstance(value, int):
        return RingElement.integer(value)
    return NotImplemented


def _merge_syms(s1, s2):
    if not s1:
        return s2
    if not s2:
        return s1
    merged = dict(s1)
    for label, exp in s2:
        merged[label] = merged.get(label, 0) + exp
    return tuple(sorted(merged.items()))


def _rational_power(base: Fraction, exp: int | Fraction) -> Fraction:
    if exp == 0:
        return Fraction(1)
    if base == 1:
        return Fraction(1)
    if base == 0:
        if exp < 0:
            raise ZeroDivisionError("specializing L to 0 with a negative L-exponent")
        return Fraction(0)
    if exp.denominator != 1:
        raise ValueError(
            f"cannot specialize a non-integral L-exponent {exp} at L={base}; "
            "only L in {0, 1} admits fractional exponents"
        )
    return base ** exp.numerator


def _exp_text(exp: int | Fraction) -> str:
    return str(exp.numerator) if exp.denominator == 1 else f"({exp})"


def _exact(x) -> int | Fraction:
    """An exact rational as an ``int`` when integral, else as a ``Fraction``.

    The two compare, hash, sort and render alike, but ``int`` arithmetic is
    much cheaper, and on a totally rational graph every exponent is integral.
    """
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _frac_json(x: Fraction | int):
    """An exact rational as JSON: an integer when integral, else ``"p/q"``."""
    return x.numerator if x.denominator == 1 else str(x)


class Specialization(Record):
    """Exact-rational target values for L and for the field symbols.

    ``symbols`` maps labels to values and is empty when not given.
    ``default`` (when given) supplies a value for any symbol not listed
    explicitly; otherwise specializing an element with an unassigned symbol
    is an error.
    """

    _FIELDS = ("lefschetz", "symbols", "default")

    def __init__(
        self,
        lefschetz: Fraction,
        symbols: Mapping[str, Fraction] | None = None,
        default: Fraction | None = None,
    ):
        super().__init__(lefschetz, {} if symbols is None else symbols, default)

    def value_of(self, label: str) -> Fraction:
        if label in self.symbols:
            return Fraction(self.symbols[label])
        if self.default is not None:
            return Fraction(self.default)
        raise KeyError(f"no specialization value for symbol e[{label}]")


def field_class(label: str | None) -> RingElement:
    """The class of Spec of a site's residue field: 1 over the base field."""
    return RingElement.one() if label is None else RingElement.symbol(label)


def units_class(label: str | None) -> RingElement:
    """Class of the punctured affine line over the labelled field."""
    return field_class(label) * RingElement.lefschetz() - RingElement.one()
