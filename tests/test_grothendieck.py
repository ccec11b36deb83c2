"""Ring laws, canonical form, specialization, rendering."""

import random
from fractions import Fraction

import pytest

from curvemotive import RingElement, Specialization, field_class, units_class
from curvemotive._linalg import _quotient

L = RingElement.lefschetz
one = RingElement.one()


def random_element(rng: random.Random, fractional=False) -> RingElement:
    out = RingElement.zero()
    for _ in range(rng.randint(0, 5)):
        lexp = Fraction(rng.randint(-3, 3))
        if fractional and rng.random() < 0.3:
            lexp += Fraction(1, rng.choice((2, 3)))
        term = RingElement.integer(rng.randint(-5, 5)).lefschetz_shift(lexp)
        for label in ("a", "b"):
            if rng.random() < 0.4:
                term = term * RingElement.symbol(label, rng.randint(1, 2))
        out = out + term
    return out


def test_difference_of_squares():
    assert (L() - one) * (L() + one) == L(2) - one


def test_symbols_stay_formal():
    ea, eb = RingElement.symbol("a"), RingElement.symbol("b")
    product = ea * eb
    assert product == RingElement({(Fraction(0), (("a", 1), ("b", 1))): 1})
    assert product != RingElement.symbol("ab")


def test_localization():
    assert L() * L(-1) == one
    assert L(Fraction(1, 2)) * L(Fraction(1, 2)) == L()


def test_exponents_return_to_the_least_denominator():
    half = L(Fraction(1, 2))
    for x in (half + L() - half, half * half, L(Fraction(3, 2)).lefschetz_shift(Fraction(-1, 2))):
        assert x == L()
        assert hash(x) == hash(L())
        assert x.has_integral_lefschetz_exponents
        assert x.to_text() == "L"
        assert x.sorted_terms() == [((1, ()), 1)]
        assert type(x.sorted_terms()[0][0][0]) is int
    assert not half.has_integral_lefschetz_exponents
    assert half != L() and half * half != half


def test_equality_is_between_elements_and_agrees_with_hash():
    three = RingElement.integer(3)
    assert three != 3 and 3 != three
    assert 3 not in {three} and three not in {3}
    assert three == 3 * one and three * 1 == three  # arithmetic still takes ints
    rng = random.Random(24)
    for _ in range(200):
        x = random_element(rng, fractional=True)
        y = random_element(rng, fractional=True)
        for a, b in ((x + y, y + x), (x * y, y * x), (x - x, RingElement.zero()), (x * one, x)):
            assert a == b and hash(a) == hash(b)


def test_negative_power_of_a_power_of_L():
    assert L() ** -1 == L(-1)
    assert L(3) ** -2 == L(-6)
    assert L(Fraction(3, 4)) ** -2 == L(Fraction(-3, 2))
    assert L(Fraction(1, 2)) ** -2 == L(-1)
    assert (L(Fraction(1, 2)) ** -2).has_integral_lefschetz_exponents
    assert one ** -3 == one


@pytest.mark.parametrize(
    "x",
    [2 * L(), L() + one, -L(), RingElement.symbol("a") * L(), RingElement.zero()],
    ids=["coefficient-2", "two-terms", "coefficient-minus-1", "symbol", "zero"],
)
def test_negative_power_of_anything_else_is_refused(x):
    with pytest.raises(ValueError, match="only defined for a power of L"):
        x ** -1


def test_negative_symbol_exponent_forbidden():
    with pytest.raises(ValueError):
        RingElement.symbol("a", -1)


def test_canonical_form_drops_zeros():
    x = L() - L()
    assert x.is_zero
    assert x == RingElement.zero()
    assert (one + one - RingElement.integer(2)).is_zero


def test_ring_laws_on_random_elements():
    rng = random.Random(97)
    for _ in range(150):
        a = random_element(rng, fractional=True)
        b = random_element(rng, fractional=True)
        c = random_element(rng, fractional=True)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + RingElement.zero() == a
        assert a * one == a
        assert a - a == RingElement.zero()
        # canonical-form idempotence: rebuilding from terms changes nothing
        assert RingElement(dict(a.sorted_terms())) == a


def test_specialize_is_a_homomorphism():
    rng = random.Random(1031)
    spec = Specialization(
        lefschetz=Fraction(3), symbols={"a": Fraction(2), "b": Fraction(-1, 2)}
    )
    for _ in range(100):
        a = random_element(rng)
        b = random_element(rng)
        assert (a * b).specialize(spec) == a.specialize(spec) * b.specialize(spec)
        assert (a + b).specialize(spec) == a.specialize(spec) + b.specialize(spec)


def test_specialize_examples():
    spec1 = Specialization(lefschetz=Fraction(1))
    assert (L() - one).specialize(spec1) == 0
    # a degree>1 field has no rational points: e -> 0 at L -> q
    e = RingElement.symbol("k2")
    spec_q = Specialization(lefschetz=Fraction(2), symbols={"k2": Fraction(0)})
    assert (e * L() - one).specialize(spec_q) == -1
    assert L(-2).specialize(spec_q) == Fraction(1, 4)


def test_specialize_gives_a_fraction_on_integral_elements_too():
    spec = Specialization(lefschetz=Fraction(2), default=Fraction(1))
    for x in (RingElement.zero(), one, L(3) - 2 * one, L(-2) * RingElement.symbol("a")):
        assert type(x.specialize(spec)) is Fraction
    assert L(-2).specialize(spec) == Fraction(1, 4) and (L(2) - one).specialize(spec) == 3


def test_an_int_lefschetz_specializes_like_its_fraction():
    for k in (-2, 0, 3):
        at_int = L(k).specialize(Specialization(lefschetz=2))
        at_fraction = L(k).specialize(Specialization(lefschetz=Fraction(2)))
        assert type(at_int) is type(at_fraction) is Fraction and at_int == at_fraction == Fraction(2) ** k


def test_specialize_requires_total_assignment():
    x = RingElement.symbol("mystery")
    with pytest.raises(KeyError):
        x.specialize(Specialization(lefschetz=Fraction(1)))
    assert x.specialize(Specialization(lefschetz=Fraction(1), default=Fraction(5))) == 5


def test_specialize_zero_with_negative_exponent():
    with pytest.raises(ZeroDivisionError):
        L(-1).specialize(Specialization(lefschetz=Fraction(0)))


def test_specialize_fractional_exponent_rules():
    half = L(Fraction(1, 2))
    assert half.specialize(Specialization(lefschetz=Fraction(1))) == 1
    assert half.specialize(Specialization(lefschetz=Fraction(0))) == 0
    with pytest.raises(ValueError):
        half.specialize(Specialization(lefschetz=Fraction(2)))


def test_units_class_variants():
    # a site over the base field has no label; any label names a proper extension
    assert field_class(None) == one
    assert field_class("k2") == RingElement.symbol("k2")
    assert units_class(None) == L() - one
    assert units_class("k2") == RingElement.symbol("k2") * L() - one
    # product over a two-element degree-one index set
    assert units_class(None) ** 2 == L(2) - 2 * L() + one


def test_text_rendering():
    x = 3 * L(2) * RingElement.symbol("k2") - L(-1)
    assert x.to_text() == "3*L^2*e[k2] - L^-1"
    assert RingElement.zero().to_text() == "0"
    assert (L(Fraction(3, 2)) + one).to_text() == "L^(3/2) + 1"


def test_integral_fraction_exponent_merges_with_int():
    x = RingElement.lefschetz(Fraction(2)) + RingElement.lefschetz(2)
    assert len(x._terms) == 1
    assert x == 2 * L(2)
    assert x.to_text() == "2*L^2"


def test_json_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        x = random_element(rng, fractional=True)
        assert RingElement.from_json(x.to_json()) == x


def test_quotient_divides_exactly_with_either_sign():
    # negative numerators floor toward minus infinity, so a remainder test on
    # them must not turn -7/2 into -4
    for num in range(-40, 41):
        for den in (1, 2, 3, 4, 6, 12, -1, -4):
            got = _quotient(num, den)
            assert got == Fraction(num, den)
            assert type(got) is (int if num % den == 0 else Fraction)
    assert _quotient(-7, 2) == Fraction(-7, 2) and _quotient(-8, 2) == -4
    assert _quotient(-(10**30), 10**15) == -(10**15)
