"""Semantics of the frozen records that replace ``@dataclass(frozen=True)``."""

import dataclasses

import pytest

from limext import DomainError, ExtCardinal, GroupDescriptor, GroupStructure, PrimeMultiplicity
from limext._record import FrozenRecordError, record, replace


def make(decorate):
    class Pair:
        left: int
        right: tuple = ()

    return decorate(Pair)


Pair = make(record)
DataPair = make(dataclasses.dataclass(frozen=True))


def test_repr_eq_and_hash_match_a_frozen_dataclass():
    for args, kwargs in [((1, (2, 3)), {}), ((1,), {}), ((), {"right": (), "left": -4})]:
        ours, theirs = Pair(*args, **kwargs), DataPair(*args, **kwargs)
        assert repr(ours) == repr(theirs)
        assert hash(ours) == hash(theirs) == hash((ours.left, ours.right))
    assert repr(Pair(1)) == "make.<locals>.Pair(left=1, right=())"
    assert repr(ExtCardinal(3)) == "ExtCardinal(value=3)"
    # One field: the hash is still that of a 1-tuple.
    assert hash(ExtCardinal(3)) == hash((3,))


def test_equality_across_construction_styles():
    a = GroupStructure(1, (2, 6))
    b = GroupStructure(invariant_factors=(2, 6), free_rank=1)
    c = replace(GroupStructure(0, ()), free_rank=1, invariant_factors=(2, 6))
    assert a == b == c and hash(a) == hash(b) == hash(c) and len({a, b, c}) == 1
    assert a != GroupStructure(2, (2, 6))
    assert Pair(1) != DataPair(1) and Pair(1) != (1, ())
    # The defaults of the class body, a shared zero multiplicity included.
    assert GroupDescriptor() == GroupDescriptor.build()
    assert GroupDescriptor().pruefer == PrimeMultiplicity() == PrimeMultiplicity.build(0)


def test_replace_runs_post_init_and_rejects_unknown_fields():
    assert replace(Pair(1, (2,)), right=(3,)) == Pair(1, (3,))
    with pytest.raises(DomainError):
        replace(ExtCardinal(1), value=-1)
    with pytest.raises(TypeError):
        replace(Pair(1), middle=2)


def test_fields_cannot_be_assigned_or_deleted():
    g = GroupStructure(0, (2,))
    with pytest.raises(FrozenRecordError, match="cannot assign to field 'free_rank'"):
        g.free_rank = 3
    with pytest.raises(AttributeError):
        g.other = 3
    with pytest.raises(FrozenRecordError, match="cannot delete field 'free_rank'"):
        del g.free_rank
    assert g == GroupStructure(0, (2,))


def test_a_field_may_have_any_name():
    @record
    class Tensor:
        d: int
        d_: int = 2

    assert repr(Tensor(1)) == repr(Tensor(d=1, d_=2)) == (
        "test_a_field_may_have_any_name.<locals>.Tensor(d=1, d_=2)")


def test_missing_or_unknown_arguments_are_type_errors():
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'left'"):
        Pair()
    with pytest.raises(TypeError, match="unexpected keyword argument 'middle'"):
        Pair(1, middle=2)
    with pytest.raises(TypeError):
        Pair(1, (), 3)
