"""Property tests: the int-keyed ring against a Fraction-keyed reference model."""

import json
import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from curvemotive import RingElement, Specialization  # noqa: E402

from test_grothendieck import random_element  # noqa: E402

DENOMINATORS = (1, 2, 3, 4, 6, 8)


# -- reference model: a dict {(Fraction L-exponent, symbols): coeff}, summed,
# multiplied and rendered as the ring did with Fraction keys, in the same
# insertion order (a product deletes a key that cancels and may add it again)


def _ref_add(a, b):
    out = dict(a)
    for key, c in b.items():
        c += out.get(key, 0)
        if c:
            out[key] = c
        else:
            del out[key]
    return out


def _ref_mul(a, b):
    out = {}
    for (l1, s1), c1 in a.items():
        for (l2, s2), c2 in b.items():
            syms = dict(s1)
            for label, e in s2:
                syms[label] = syms.get(label, 0) + e
            key = (l1 + l2, tuple(sorted(syms.items())))
            c = out.get(key, 0) + c1 * c2
            if c:
                out[key] = c
            elif key in out:
                del out[key]
    return out


def _ref_pow(a, n):
    result = {(Fraction(0), ()): 1}
    while n:
        if n & 1:
            result = _ref_mul(result, a)
        a = _ref_mul(a, a)
        n >>= 1
    return result


def _ref_sorted(a):
    return sorted(a.items(), key=lambda item: (-item[0][0], item[0][1]))


def _ref_text(a):
    parts = []
    for (l, syms), c in _ref_sorted(a):
        factors = [] if l == 0 else ["L" if l == 1 else f"L^{l}" if l.denominator == 1 else f"L^({l})"]
        factors += [f"e[{label}]" + (f"^{e}" if e > 1 else "") for label, e in syms]
        body = "*".join(factors) if factors else str(abs(c))
        if factors and abs(c) != 1:
            body = f"{abs(c)}*{body}"
        sign = ("-" if c < 0 else "") if not parts else ("- " if c < 0 else "+ ")
        parts.append(sign + body)
    return " ".join(parts) or "0"


def _ref_json(a):
    return [
        {"Lexp": l.numerator if l.denominator == 1 else str(l), "symbols": dict(syms), "coeff": c}
        for (l, syms), c in _ref_sorted(a)
    ]


def _ref_specialize(a, spec):
    total = Fraction(0)
    for (l, syms), c in a.items():
        if l == 0 or spec.lefschetz == 1:
            value = Fraction(c)
        elif spec.lefschetz == 0:
            if l < 0:
                raise ZeroDivisionError("specializing L to 0 with a negative L-exponent")
            value = Fraction(0)
        elif l.denominator != 1:
            raise ValueError(
                f"cannot specialize a non-integral L-exponent {l} at L={spec.lefschetz}; "
                "only L in {0, 1} admits fractional exponents"
            )
        else:
            value = c * spec.lefschetz ** l.numerator
        for label, e in syms:
            value *= spec.symbols[label] ** e
        total += value
    return total


def _outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def _random_terms(rng):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        lexp = Fraction(rng.randint(-12, 12), rng.choice(DENOMINATORS))
        syms = tuple((label, rng.randint(1, 2)) for label in ("a", "b") if rng.random() < 0.4)
        terms[(lexp, syms)] = rng.choice((-3, -1, 1, 2))
    return terms


SPECS = [
    Specialization(lefschetz=Fraction(v), symbols={"a": Fraction(2), "b": Fraction(-1, 3)})
    for v in (0, 1, 2)
]


def _agrees(x: RingElement, ref) -> None:
    again = RingElement(ref)
    assert x == again and hash(x) == hash(again)
    assert x.has_integral_lefschetz_exponents == all(l.denominator == 1 for l, _s in ref)
    assert x.sorted_terms() == _ref_sorted(ref)
    assert x.to_text() == _ref_text(ref)
    assert json.dumps(x.to_json()) == json.dumps(_ref_json(ref))
    for spec in SPECS:
        # L = 2 raises on the first non-integral exponent in insertion order
        assert _outcome(x.specialize, spec) == _outcome(_ref_specialize, ref, spec)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_ring_agrees_with_the_fraction_keyed_reference(seed):
    rng = random.Random(seed)
    a_ref, b_ref = _random_terms(rng), _random_terms(rng)
    a, b = RingElement(a_ref), RingElement(b_ref)
    neg_b = {key: -c for key, c in b_ref.items()}
    shift = Fraction(rng.randint(-6, 6), rng.choice(DENOMINATORS))
    n = rng.randint(0, 3)
    _agrees(a, a_ref)
    _agrees(a + b, _ref_add(a_ref, b_ref))
    _agrees(a - b, _ref_add(a_ref, neg_b))
    _agrees(a * b, _ref_mul(a_ref, b_ref))
    _agrees(a ** n, _ref_pow(a_ref, n))
    _agrees(a.lefschetz_shift(shift), {(l + shift, s): c for (l, s), c in a_ref.items()})
    _agrees((a + b) - b, _ref_add(_ref_add(a_ref, b_ref), neg_b))
    assert (a == b) == (a_ref == b_ref)
    # halving the exponents keeps the numerators of an integral element
    halved = {(l / 2, s): c for (l, s), c in a_ref.items()}
    assert (a == RingElement(halved)) == (a_ref == halved)
    assert (a + b) - b == a and hash((a + b) - b) == hash(a)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_fraction_and_int_exponents_are_interchangeable(seed):
    x = random_element(random.Random(seed), fractional=True)
    terms = x.sorted_terms()
    # sorted_terms gives an integral exponent as an int, any other as a Fraction
    assert all(type(l) is int or type(l) is Fraction and l.denominator != 1 for (l, _s), _c in terms)
    boxed = RingElement({(Fraction(l), s): c for (l, s), c in terms})
    plain = RingElement(dict(terms))
    assert boxed == plain == x
    assert hash(boxed) == hash(plain) == hash(x)
    assert boxed.to_text() == plain.to_text() == x.to_text()
    assert json.dumps(boxed.to_json()) == json.dumps(plain.to_json()) == json.dumps(x.to_json())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_sorted_terms_orders_as_the_exact_exponents(seed):
    # sorted_terms compares int keys; the reference compares the exponents as Fractions
    rng = random.Random(seed)
    labels = rng.choice(((), ("a",), ("a", "b"), ("b", "c", "k2")))
    terms = {}
    for _ in range(rng.randint(0, 16)):
        lexp = Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3, 4, 6, 8)))
        syms = tuple((label, rng.randint(1, 2)) for label in labels if rng.random() < 0.5)
        terms[(lexp, syms)] = rng.choice((-3, -1, 1, 2))
    want = sorted(terms.items(), key=lambda item: (-item[0][0], item[0][1]))
    assert RingElement(terms).sorted_terms() == want
