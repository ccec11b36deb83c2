"""Property test: an L-exponent stored as ``int`` or as ``Fraction`` is one exponent."""

import json
import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from curvemotive import RingElement  # noqa: E402

from test_grothendieck import random_element  # noqa: E402


def _with_exponents(x: RingElement, convert) -> RingElement:
    """``x`` with each L-exponent stored as ``convert(exponent)``, bypassing normalisation."""
    out = RingElement.__new__(RingElement)
    out._terms = {(convert(l), s): c for (l, s), c in x._terms.items()}
    return out


def _normalised(l):
    return l.numerator if l.denominator == 1 else Fraction(l)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_fraction_and_int_exponents_are_interchangeable(seed):
    x = random_element(random.Random(seed), fractional=True)
    boxed = _with_exponents(x, Fraction)
    plain = _with_exponents(x, _normalised)
    assert boxed == plain
    assert hash(boxed) == hash(plain)
    assert boxed.to_text() == plain.to_text()
    assert json.dumps(boxed.to_json()) == json.dumps(plain.to_json())


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
    x = RingElement(terms)  # stores integral exponents as ints, the others as Fractions
    want = sorted(x._terms, key=lambda key: (-Fraction(key[0]), key[1]))
    assert [key for key, _coeff in x.sorted_terms()] == want
