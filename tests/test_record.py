"""The value types: equality, hashing, immutability and ``repr``."""

from fractions import Fraction

import pytest

from curvemotive import (
    Branch,
    Center,
    ClosedFormExpr,
    ExponentVector,
    MonomialValuationSystem,
    PairSite,
    ResolutionGraph,
    RingElement,
    Specialization,
    Stratum,
    TruncatedSeries,
    divisorial_closed_form,
)


def _cusp():
    return ResolutionGraph(
        centers=(Center(()), Center((1,)), Center((1, 2))), branches=(Branch(3),)
    )


# name -> (two ways of building equal objects, field names in order).  The
# second way spells out defaults or uses keywords where the type allows it.
CASES = {
    "Center": (
        (lambda: Center((1,)), lambda: Center(proximate_to=(1,), degree=1)),
        ("proximate_to", "degree"),
    ),
    "Branch": (
        (lambda: Branch(3, 2), lambda: Branch(attach=3, degree=2)),
        ("attach", "degree"),
    ),
    "PairSite": (
        (lambda: PairSite(1, 3, 2), lambda: PairSite(i1=1, i2=3, degree=2)),
        ("i1", "i2", "degree"),
    ),
    "ResolutionGraph": (
        (_cusp, lambda: ResolutionGraph(_cusp().centers, _cusp().branches, ())),
        ("centers", "branches", "labels"),
    ),
    "Stratum": (
        (
            lambda: Stratum((), (1,), (0, 0, 1), (), ((1, 1),)),
            lambda: Stratum(pairs=(), branches=(1,), point_mults=(0, 0, 1), branch_mults=((1, 1),)),
        ),
        ("pairs", "branches", "point_mults", "pair_mults", "branch_mults"),
    ),
    "Specialization": (
        (
            lambda: Specialization(Fraction(1), {"a": Fraction(2)}),
            lambda: Specialization(lefschetz=Fraction(1), symbols={"a": Fraction(2)}, default=None),
        ),
        ("lefschetz", "symbols", "default"),
    ),
    "MonomialValuationSystem": (
        (
            lambda: MonomialValuationSystem(((1, 1), (1, 2))),
            lambda: MonomialValuationSystem(weights=((1, 1), (1, 2))),
        ),
        ("weights",),
    ),
    "ClosedFormExpr": (
        (
            lambda: divisorial_closed_form(_cusp()),
            lambda: ClosedFormExpr(**vars(divisorial_closed_form(_cusp()))),
        ),
        ("m_rows", "component_classes", "pair_data"),
    ),
    "TruncatedSeries": (
        (
            lambda: TruncatedSeries((3,), {ExponentVector((0,)): RingElement.one()}),
            lambda: TruncatedSeries(
                bound=(Fraction(3),), terms={ExponentVector((0,)): RingElement.one()}, skipped_nonintegral=0
            ),
        ),
        ("bound", "terms", "skipped_nonintegral"),
    ),
}
# Specialization holds its symbols in a dict, and TruncatedSeries its terms:
# neither can be hashed.
UNHASHABLE = {"Specialization", "TruncatedSeries"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_equal_fields_give_equal_objects(name):
    (make_a, make_b), _fields = CASES[name]
    a, b = make_a(), make_b()
    assert a is not b and a == b and not a != b
    assert type(a).__name__ == name
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("name", sorted(CASES))
def test_repr_lists_the_fields(name):
    (make, _), fields = CASES[name]
    obj = make()
    shown = ", ".join(f"{field}={getattr(obj, field)!r}" for field in fields)
    assert repr(obj) == f"{name}({shown})"


@pytest.mark.parametrize("name", sorted(CASES))
def test_fields_cannot_be_assigned(name):
    (make, _), fields = CASES[name]
    obj = make()
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(obj, field, getattr(obj, field))
        with pytest.raises(AttributeError):
            delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert obj == make()


def test_objects_of_different_types_never_compare_equal():
    objects = [make() for (make, _), _fields in CASES.values()]
    for i, a in enumerate(objects):
        for b in objects[i + 1 :]:
            assert a != b and b != a
    # the same field values in another type
    assert Center(1, 2) != Branch(1, 2)
    assert Branch(1, 2) != (1, 2)


def test_field_values_decide_equality():
    assert Center((1,), 2) != Center((1,), 1)
    assert Stratum((), (), (0, 1)) != Stratum((), (), (1, 0))
    assert repr(Center((1,), 2)) == "Center(proximate_to=(1,), degree=2)"
    assert Specialization(Fraction(1)).symbols == {}
    assert Specialization(Fraction(1)).default is None

