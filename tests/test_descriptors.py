import random
from functools import reduce
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limext import DomainError, ExtCardinal, GroupDescriptor, GroupStructure
from limext.descriptors import CONTINUUM, PrimeMultiplicity, as_cardinal
from support import blockwise_descriptor_sum, pointwise_multiplicity_sum, random_descriptor

PRIMES = (2, 3, 5, 7, 11, 13)
# Finite counts and the continuum, weighted so continuum terms are common.
cardinals = st.one_of(st.integers(min_value=0, max_value=3), st.just("continuum"))
multiplicities = st.builds(
    PrimeMultiplicity.build,
    cardinals,
    st.dictionaries(st.sampled_from(PRIMES), cardinals, max_size=4),
)
counts = st.dictionaries(st.sampled_from(PRIMES), st.integers(min_value=0, max_value=3),
                         max_size=3)
descriptors = st.builds(
    GroupDescriptor.build,
    free_rank=st.integers(min_value=0, max_value=3),
    cyclic=st.lists(st.integers(min_value=1, max_value=72), max_size=3),
    local=counts,
    inverted=st.lists(st.tuples(st.sets(st.sampled_from(PRIMES), min_size=1, max_size=2),
                                st.integers(min_value=0, max_value=3)), max_size=2),
    rational=cardinals,
    pruefer=multiplicities,
    padic=counts,
)


def test_cardinal_arithmetic():
    assert ExtCardinal(2) + ExtCardinal(3) == ExtCardinal(5)
    assert ExtCardinal(2) + CONTINUUM == CONTINUUM
    assert CONTINUUM + CONTINUUM == CONTINUUM
    assert as_cardinal("continuum") == CONTINUUM
    with pytest.raises(DomainError):
        ExtCardinal(-1)


def test_cardinal_json():
    assert ExtCardinal(7).to_json() == 7
    assert CONTINUUM.to_json() == "continuum"
    assert ExtCardinal.from_json("continuum") == CONTINUUM
    assert ExtCardinal.from_json(3) == ExtCardinal(3)


def test_prime_multiplicity_normalization():
    pm = PrimeMultiplicity.build(1, {2: 1, 3: 0})
    # Exceptions equal to the default are dropped.
    assert pm.exceptions == ((3, ExtCardinal(0)),)
    assert pm.at(2) == ExtCardinal(1)
    assert pm.at(3) == ExtCardinal(0)
    with pytest.raises(DomainError):
        PrimeMultiplicity.build(0, {4: 1})


def test_prime_multiplicity_addition_pointwise():
    a = PrimeMultiplicity.build(1, {2: 0})
    b = PrimeMultiplicity.build(2, {3: 5})
    total = a + b
    for p in (2, 3, 5, 97):
        assert total.at(p) == a.at(p) + b.at(p)


@settings(max_examples=300, deadline=None)
@given(st.lists(multiplicities, max_size=8))
def test_prime_multiplicity_total_matches_pointwise_sum(parts):
    total = PrimeMultiplicity.total(parts)
    assert total == pointwise_multiplicity_sum(parts)
    assert total == reduce(add, parts, PrimeMultiplicity())


@settings(max_examples=200, deadline=None)
@given(st.lists(descriptors, max_size=8))
def test_descriptor_total_matches_blockwise_sum(parts):
    total = GroupDescriptor.total(parts)
    assert total == blockwise_descriptor_sum(parts)
    assert total == reduce(add, parts, GroupDescriptor.build())


def test_descriptor_normalization():
    g = GroupDescriptor.build(cyclic=[2, 3], local={5: 0, 7: 2})
    assert g.cyclic == (6,)
    assert g.local == ((7, 2),)
    h = GroupDescriptor.build(inverted=[((3, 2), 1), ((2, 3), 2)])
    assert h.inverted == (((2, 3), 3),)
    with pytest.raises(DomainError):
        GroupDescriptor.build(inverted=[((), 1)])
    with pytest.raises(DomainError):
        GroupDescriptor.build(free_rank=-1)


def test_descriptor_identities():
    # Q/Z is the constant-1 Pruefer multiplicity by encoding.
    assert GroupDescriptor.q_mod_z().pruefer == PrimeMultiplicity.build(1)
    qzp = GroupDescriptor.q_mod_z_prime_to(5)
    assert qzp.pruefer.at(5) == ExtCardinal(0)
    assert qzp.pruefer.at(3) == ExtCardinal(1)


def test_descriptor_addition_is_blockwise():
    rng = random.Random(7)
    for _ in range(60):
        a = random_descriptor(rng)
        b = random_descriptor(rng)
        total = a + b
        assert total.free_rank == a.free_rank + b.free_rank
        assert total.rational == a.rational + b.rational
        for p in (2, 3, 5, 7):
            assert total.pruefer.at(p) == a.pruefer.at(p) + b.pruefer.at(p)
            assert total.local_count(p) == a.local_count(p) + b.local_count(p)
            assert total.padic_count(p) == a.padic_count(p) + b.padic_count(p)
        assert (
            GroupStructure(0, total.cyclic)
            == GroupStructure.from_factors(a.cyclic + b.cyclic)
        )


def test_descriptor_json_round_trip():
    rng = random.Random(13)
    for _ in range(40):
        g = random_descriptor(rng)
        assert GroupDescriptor.from_json(g.to_json()) == g
    g = GroupDescriptor.build(cyclic=[10**30])
    assert g.to_json()["cyclic"] == [str(10**30)]


def test_descriptor_divisibility_predicate():
    assert GroupDescriptor.rationals(CONTINUUM).is_divisible()
    assert GroupDescriptor.pruefer_group(2).is_divisible()
    assert not GroupDescriptor.free().is_divisible()
    assert not GroupDescriptor.localized(3).is_divisible()
    assert not GroupDescriptor.padic_integers(5).is_divisible()


def test_descriptor_str_smoke():
    g = (GroupDescriptor.free(2) + GroupDescriptor.cyclic_group(4)
         + GroupDescriptor.localized(2) + GroupDescriptor.s_inverted([2, 3])
         + GroupDescriptor.rationals(CONTINUUM) + GroupDescriptor.pruefer_group(5)
         + GroupDescriptor.padic_integers(7))
    text = str(g)
    for fragment in ("Z^2", "C4", "Z_(2)", "Z[1/6]", "Q^continuum", "Pruefer(5)", "Zp(7)"):
        assert fragment in text
