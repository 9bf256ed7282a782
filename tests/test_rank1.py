import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limext import (
    DomainError,
    EProfile,
    GroupDescriptor,
    GroupStructure,
    INFINITE,
    UnsupportedInputError,
    eprofile_from_multipliers,
    ext_to_z,
    finite_coefficients_descriptor,
    hom_to_z,
    is_free,
    quotient_mod_z,
)
from limext.descriptors import CONTINUUM, PrimeMultiplicity


def test_profile_normalization():
    # Defaults collapse to {0, 1, infinity}; matching exceptions are dropped.
    assert EProfile.build(3) == EProfile.build(1)
    p = EProfile.build(0, {2: 0, 3: 4})
    assert p.exceptions == ((3, 4),)
    # Negative exponents shift by a finite amount and are clamped away.
    assert EProfile.build(0, {5: -2}) == EProfile.build(0)
    with pytest.raises(DomainError):
        EProfile.build(0, {6: 1})


def test_profile_json_round_trip():
    p = EProfile.build(1, {2: INFINITE, 7: 0})
    data = p.to_json()
    assert data["exceptions"]["2"] == "inf"
    assert EProfile.from_json(data) == p


def test_multipliers_examples():
    # Prefix contributions are finite and absorbed; period entries invert.
    prof = eprofile_from_multipliers([6], [5])
    assert prof == EProfile.build(0, {5: INFINITE})
    assert prof.at(2) == 0 and prof.at(3) == 0

    assert eprofile_from_multipliers([], [1]) == EProfile.z_profile()
    assert eprofile_from_multipliers([], [-1, 1]) == EProfile.z_profile()

    prof = eprofile_from_multipliers([], [6])
    assert prof.at(2) == INFINITE and prof.at(3) == INFINITE and prof.at(5) == 0

    with pytest.raises(DomainError):
        eprofile_from_multipliers([0], [2])
    with pytest.raises(DomainError):
        eprofile_from_multipliers([], [2, 0])


def test_is_free():
    assert is_free(EProfile.z_profile())
    assert is_free(EProfile.build(0, {2: 5, 3: 1}))
    assert not is_free(EProfile.build(0, {2: INFINITE}))
    assert not is_free(EProfile.build(1))
    assert not is_free(EProfile.localized_profile(3))


def test_hom_to_z():
    assert hom_to_z(EProfile.z_profile()) == GroupStructure(free_rank=1)
    assert hom_to_z(EProfile.inverted_profile([5])) == GroupStructure()
    assert hom_to_z(EProfile.build(1)) == GroupStructure()


def test_ext_landmark_table():
    # Z[1/p]: torsion part is Q/Z with the p-part removed.
    out = ext_to_z(EProfile.inverted_profile([5]))
    assert out.rational == CONTINUUM
    assert out.pruefer == PrimeMultiplicity.build(1, {5: 0})

    # Localization at p: torsion part is the Pruefer group at p.
    out = ext_to_z(EProfile.localized_profile(5))
    assert out.rational == CONTINUUM
    assert out.pruefer == PrimeMultiplicity.build(0, {5: 1})

    # Exponent 1 at almost all primes: torsion part is all of Q/Z.
    out = ext_to_z(EProfile.build(1))
    assert out.rational == CONTINUUM
    assert out.pruefer == PrimeMultiplicity.build(1)

    # Free profile: Ext vanishes.
    assert ext_to_z(EProfile.z_profile()).is_zero()


@pytest.mark.parametrize("p", (2, 3, 5))
def test_ext_torsion_cardinality_law(p):
    # For nonfree M: the p^r-torsion of Ext(M, Z) has order p^r exactly when
    # e_p is finite, and is trivial when e_p is infinite.
    finite_e = EProfile.build(0, {p: 4, 7: INFINITE})
    infinite_e = EProfile.build(0, {p: INFINITE})
    for r in range(1, 7):
        _, torsion = finite_coefficients_descriptor(ext_to_z(finite_e), p, r)
        assert torsion.order() == p ** r
        _, torsion = finite_coefficients_descriptor(ext_to_z(infinite_e), p, r)
        assert torsion.order() == 1


def test_ext_invariant_under_finite_shifts():
    rng = random.Random(505)
    for _ in range(40):
        exceptions = {}
        for q in (2, 3, 5, 7, 11):
            roll = rng.random()
            if roll < 0.3:
                exceptions[q] = INFINITE
            elif roll < 0.6:
                exceptions[q] = rng.randint(1, 9)
        base = EProfile.build(rng.choice([0, 1]), exceptions)
        shifted = {
            q: (e if e == INFINITE else e + rng.randint(0, 5))
            for q, e in exceptions.items()
        }
        other = EProfile.build(base.default, shifted)
        assert ext_to_z(base) == ext_to_z(other)
        assert is_free(base) == is_free(other)


def test_quotient_mod_z():
    assert quotient_mod_z(EProfile.inverted_profile([5])) \
        == GroupDescriptor.pruefer_group(5)
    assert quotient_mod_z(EProfile.inverted_profile([2, 3])) \
        == GroupDescriptor.pruefer_group(2) + GroupDescriptor.pruefer_group(3)
    assert quotient_mod_z(EProfile.z_profile()).is_zero()
    assert quotient_mod_z(EProfile.build(0, {3: 2})) == GroupDescriptor.cyclic_group(9)
    # Cofinitely many infinite exponents: Q/Z minus the finite-exponent part,
    # plus the finite cyclic pieces.
    prof = EProfile.build(INFINITE, {5: 1})
    out = quotient_mod_z(prof)
    assert out.pruefer == PrimeMultiplicity.build(1, {5: 0})
    assert out.cyclic == (5,)
    with pytest.raises(UnsupportedInputError):
        quotient_mod_z(EProfile.build(1))


def test_quotient_cardinality_consistency():
    # |torsion at p of M/Z| matches e_p for finite exponents: Z/p^e has
    # p^min(j, e) elements of order dividing p^j.
    prof = EProfile.build(0, {3: 2, 5: INFINITE})
    out = quotient_mod_z(prof)
    _, t3 = finite_coefficients_descriptor(out, 3, 5)
    assert t3.order() == 3 ** 2
    _, t5 = finite_coefficients_descriptor(out, 5, 4)
    assert t5.order() == 5 ** 4


def ext_to_z_by_build(m):
    """Ext(M, Z) through the normalising constructors, as ext_to_z once did."""
    if is_free(m):
        return GroupDescriptor.build()
    return GroupDescriptor.build(rational=CONTINUUM, pruefer=PrimeMultiplicity.build(
        0 if m.default == INFINITE else 1,
        {p: 0 if e == INFINITE else 1 for p, e in m.exceptions},
    ))


exponents_st = st.one_of(st.integers(min_value=0, max_value=6), st.just(INFINITE))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from((0, 1, INFINITE)),
       st.dictionaries(st.sampled_from((2, 3, 5, 7, 11, 13, 97, 65537)), exponents_st,
                       max_size=5))
def test_ext_to_z_equals_normalising_build(default, exceptions):
    m = EProfile.build(default, exceptions)
    got, want = ext_to_z(m), ext_to_z_by_build(m)
    assert got == want and got.to_json() == want.to_json()
