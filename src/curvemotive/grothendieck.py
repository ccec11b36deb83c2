"""Formal coefficient ring for motivic series.

An element is a Laurent polynomial in the Lefschetz class ``L`` (the class of
the affine line) whose coefficients are integer polynomials in opaque
commuting symbols ``e[label]``, one per residue-field label.  The symbols
stand for classes of spectra of finite field extensions; no relations among
distinct symbols are imposed, so products like ``e[a]*e[b]`` stay formal.
A site's field enters only through ``field_class(label)``: the unit when the
label is ``None`` (the site's field is the base field), else ``e[label]``.
``units_class(label)`` is the class of the punctured affine line over it.

``L``-exponents are exact rationals: codimension exponents of strata can be
non-integral when extension degrees exceed one, and such terms are carried
exactly rather than rounded.  An element keeps them as ``int`` numerators
``k`` over one denominator ``_den`` per element, the least common
denominator of its exponents, so the exponent of a term is ``k / _den`` and
``_den`` is 1 on an element whose exponents are all integral.  Sums,
products and shifts add ``int``s; they rescale only when two denominators
differ, and a result over ``_den > 1`` is brought back to the least
denominator by one ``gcd`` over its keys, which keeps ``==`` and ``hash``
canonical.  Equality is between elements only: ``RingElement.integer(3)``
is not equal to ``3``, whose hash differs, while ``+``, ``-`` and ``*``
take an ``int`` as the element it names.  The constructor, ``lefschetz``,
``lefschetz_shift`` and ``sorted_terms`` take and give exact rationals
(``int`` when integral, else ``Fraction``), so an element whose exponents
are all integral builds no ``Fraction``; ``specialize`` always gives one.
Symbol exponents are nonnegative integers by construction (formulas that
would produce ``e^(n-l)`` with ``l > n`` are never formed).  Coefficients
are arbitrary-precision integers.
"""

from collections.abc import Mapping
from math import gcd, lcm

from ._linalg import Record, _exact, _quotient

# The constructor's monomial key: (L-exponent, ((label, exponent), ...)), the
# L-exponent any exact rational.  An element's own keys are (k, symbols) with
# k the int numerator of the L-exponent over the element's _den, the symbol
# part sorted by label and all symbol exponents positive.


def _canonical_syms(syms) -> tuple[tuple[str, int], ...]:
    items = [(str(k), int(v)) for k, v in syms if v != 0]
    for label, exp in items:
        if exp < 0:
            raise ValueError(f"negative exponent for symbol e[{label}]")
    items.sort()
    return tuple(items)


class RingElement:
    """Immutable element of the localized Grothendieck-ring model."""

    __slots__ = ("_terms", "_den")

    def __init__(self, terms: Mapping | None = None):
        canon = {}
        if terms:
            for (lexp, syms), coeff in terms.items():
                if coeff == 0:
                    continue
                key = (_exact(lexp), _canonical_syms(syms))
                canon[key] = canon.get(key, 0) + int(coeff)
                if canon[key] == 0:
                    del canon[key]
        den = lcm(*[lexp.denominator for lexp, _syms in canon])
        if den != 1:
            canon = {
                (lexp.numerator * (den // lexp.denominator), syms): coeff
                for (lexp, syms), coeff in canon.items()
            }
        self._terms = canon
        self._den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "RingElement":
        return _element({}, 1)

    @classmethod
    def one(cls) -> "RingElement":
        return _element({(0, ()): 1}, 1)

    @classmethod
    def integer(cls, n: int) -> "RingElement":
        n = int(n)
        return _element({(0, ()): n} if n else {}, 1)

    @classmethod
    def lefschetz(cls, exp=1) -> "RingElement":
        """The monomial L**exp; exp may be any exact rational."""
        exp = _exact(exp)
        return _element({(exp.numerator, ()): 1}, exp.denominator)

    @classmethod
    def symbol(cls, label: str, exp: int = 1) -> "RingElement":
        return cls({(0, ((str(label), int(exp)),)): 1})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if type(other) is not RingElement:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not other._terms:  # elements are immutable, so a sum with 0 is shared
            return self
        if not self._terms:
            return other
        den = self._den
        if den == other._den:
            out, more = dict(self._terms), other._terms
        else:
            den = lcm(den, other._den)
            out = dict(self._terms) if den == self._den else _rescaled(self, den)
            more = _rescaled(other, den)
        for key, coeff in more.items():
            c = out.get(key, 0) + coeff
            if c:
                out[key] = c
            else:  # only a key already in out can cancel
                del out[key]
        return _element(out, den)

    __radd__ = __add__

    def __neg__(self):
        return _element({k: -c for k, c in self._terms.items()}, self._den)

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
        if type(other) is not RingElement:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        den = self._den
        if den == other._den:
            left, right = self._terms, other._terms
        else:
            den = lcm(den, other._den)
            left, right = _rescaled(self, den), _rescaled(other, den)
        out = {}
        for (k1, s1), c1 in left.items():
            for (k2, s2), c2 in right.items():
                key = (k1 + k2, _merge_syms(s1, s2))
                c = out.get(key, 0) + c1 * c2
                if c:
                    out[key] = c
                elif key in out:
                    del out[key]
        return _element(out, den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            exp = self._lefschetz_power()
            if exp is None:
                raise ValueError(
                    "negative powers are only defined for a power of L "
                    "(coefficient 1, no symbols)"
                )
            return RingElement.one().lefschetz_shift(exp * n)
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
        den = self._den
        if type(exp) is not int:
            exp = _exact(exp)
        if type(exp) is int:  # an integral shift needs no rescaling
            shift = exp * den
            return _element({(k + shift, s): c for (k, s), c in self._terms.items()}, den)
        den = lcm(den, exp.denominator)
        scale = den // self._den
        shift = exp.numerator * (den // exp.denominator)
        return _element({(k * scale + shift, s): c for (k, s), c in self._terms.items()}, den)

    def _lefschetz_power(self):
        """The exact exponent ``a`` when this element is ``L^a``, else ``None``."""
        if len(self._terms) != 1:
            return None
        ((k, syms), coeff), = self._terms.items()
        if coeff != 1 or syms:
            return None
        return _quotient(k, self._den)

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_one(self) -> bool:
        return self._terms == {(0, ()): 1}

    @property
    def has_integral_lefschetz_exponents(self) -> bool:
        return self._den == 1

    def _ordered(self):
        """``(-k, symbols, coefficient)`` per term, in the canonical order:
        L-degree descending, then symbols (the pairs ``(k, symbols)`` are
        distinct, so the tuples sort without comparing coefficients)."""
        return sorted([(-k, s, c) for (k, s), c in self._terms.items()])

    def sorted_terms(self):
        """Terms in the canonical order: L-degree descending, then symbols.

        Each item is ``((L-exponent, symbols), coefficient)``, the exponent
        an exact rational; the order compares the int keys.
        """
        return [((_quotient(-neg, self._den), s), c) for neg, s, c in self._ordered()]

    def __eq__(self, other):
        if type(other) is not RingElement:
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self):
        return hash((self._den, frozenset(self._terms.items())))

    def __bool__(self):
        return bool(self._terms)

    # -- specialization ----------------------------------------------------

    def specialize(self, spec: "Specialization"):
        """The ``Fraction`` this element takes at ``spec``."""
        from fractions import Fraction
        den = self._den
        top, bottom = 0, 1  # the sum so far is top / bottom, reduced once at the end
        for (k, syms), coeff in self._terms.items():
            value = _rational_power(spec.lefschetz, _quotient(k, den))
            for label, exp in syms:
                value *= spec.value_of(label) ** exp
            top, bottom = top * value.denominator + coeff * value.numerator * bottom, bottom * value.denominator
        return Fraction(top, bottom)

    # -- rendering ---------------------------------------------------------

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        den = self._den
        parts = []
        last = None
        for neg, syms, coeff in self._ordered():
            if neg != last:  # the terms of one L-degree are adjacent
                last = neg
                p, q = _lowest_terms(-neg, den)
                power = "" if not p else "L" if p == q else f"L^{p}" if q == 1 else f"L^({p}/{q})"
            factors = [power] if power else []
            for label, exp in syms:
                factors.append(f"e[{label}]^{exp}" if exp > 1 else f"e[{label}]")
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
        for neg, syms, coeff in self._ordered():
            p, q = _lowest_terms(-neg, self._den)
            out.append(
                {
                    "Lexp": p if q == 1 else f"{p}/{q}",
                    "symbols": {label: exp for label, exp in syms},
                    "coeff": coeff,
                }
            )
        return out

    @classmethod
    def from_json(cls, data) -> "RingElement":
        terms = {}
        for item in data:
            key = (
                _exact(item["Lexp"]),
                tuple(sorted((str(k), int(v)) for k, v in item.get("symbols", {}).items())),
            )
            terms[key] = terms.get(key, 0) + int(item["coeff"])
        return cls(terms)


def _element(terms, den: int) -> RingElement:
    """The element with int keys ``terms`` over ``den``, at its least denominator."""
    if den != 1:
        common = gcd(den, *[k for k, _syms in terms])
        if common != 1:
            den //= common
            terms = {(k // common, s): c for (k, s), c in terms.items()}
    result = object.__new__(RingElement)
    result._terms = terms
    result._den = den
    return result


def _rescaled(x: RingElement, den: int):
    """``x``'s terms with int keys over ``den``, a multiple of ``x._den``.

    The result is ``x``'s own dict when ``den`` is ``x._den``: read it only.
    """
    scale = den // x._den
    if scale == 1:
        return x._terms
    return {(k * scale, s): c for (k, s), c in x._terms.items()}


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


def _rational_power(base, exp):
    from fractions import Fraction
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
    return Fraction(base) ** exp.numerator  # a Fraction at a negative exponent too


def _lowest_terms(k: int, den: int) -> tuple[int, int]:
    """The numerator and denominator of ``k / den`` in lowest terms."""
    common = gcd(k, den)
    return k // common, den // common


class Specialization(Record):
    """Exact-rational target values (``int`` or ``Fraction``) for L and for the field symbols.

    ``symbols`` maps labels to values and is empty when not given.
    ``default`` (when given) supplies a value for any symbol not listed
    explicitly; otherwise specializing an element with an unassigned symbol
    is an error.
    """

    _FIELDS = ("lefschetz", "symbols", "default")

    def __init__(
        self,
        lefschetz,
        symbols: Mapping | None = None,
        default=None,
    ):
        super().__init__(lefschetz, {} if symbols is None else symbols, default)

    def value_of(self, label: str):
        from fractions import Fraction
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
