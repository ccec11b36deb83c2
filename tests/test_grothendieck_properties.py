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
