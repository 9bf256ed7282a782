import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limext import (
    DimensionError,
    DomainError,
    GroupPresentation,
    GroupStructure,
    IntMatrix,
    cokernel_structure,
    direct_sum,
    finite_coefficients,
)
from limext.errors import BudgetExceededError
from support import primewise_invariant_factors

factor_lists = st.lists(st.integers(min_value=0, max_value=64), max_size=5)


def groups(draw=None):
    return st.builds(
        lambda fs, r: GroupStructure.from_factors(fs, free_rank=r),
        factor_lists,
        st.integers(min_value=0, max_value=3),
    )


def test_normalization_merges_coprime_factors():
    assert GroupStructure.from_factors([2, 3]) == GroupStructure.from_factors([6])
    assert GroupStructure.from_factors([2, 4]).invariant_factors == (2, 4)
    assert GroupStructure.from_factors([12, 60]).invariant_factors == (12, 60)
    assert GroupStructure.from_factors([4, 6]).invariant_factors == (2, 12)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.just(0), st.integers(min_value=1, max_value=10 ** 6)),
                max_size=6))
def test_normalization_matches_primewise_merge(orders):
    g = GroupStructure.from_factors(orders)
    assert g.free_rank == orders.count(0)
    assert g.invariant_factors == primewise_invariant_factors(d for d in orders if d)


def test_normalization_of_large_semiprimes_matches_cokernel():
    # Neither order can be factored by trial division; the chain needs none.
    p, q = (1 << 40) + 15, (1 << 40) + 27
    for orders in ([p * q, 6], [p * q, p * 3], [p * q, q * q, 0]):
        assert GroupStructure.from_factors(orders) == cokernel_structure(
            IntMatrix.diagonal(orders)
        )
    assert GroupStructure.from_factors([p * q, p * 3]).invariant_factors == (p, 3 * p * q)


def test_normalization_drops_units_and_counts_zeros():
    g = GroupStructure.from_factors([1, 0, 5, 0])
    assert g.free_rank == 2 and g.invariant_factors == (5,)


def test_invalid_chains_rejected():
    with pytest.raises(DomainError):
        GroupStructure(invariant_factors=(4, 2))
    with pytest.raises(DomainError):
        GroupStructure(invariant_factors=(1,))
    with pytest.raises(DomainError):
        GroupStructure(free_rank=-1)


def test_direct_sum_examples():
    c2, c3, c4 = (GroupStructure.from_factors([k]) for k in (2, 3, 4))
    z = GroupStructure(free_rank=1)
    assert direct_sum(c2, c3) == GroupStructure.from_factors([6])
    assert direct_sum(c2, c4).invariant_factors == (2, 4)
    assert direct_sum(z, GroupStructure()) == z


@settings(max_examples=150, deadline=None)
@given(groups(), groups(), groups())
def test_direct_sum_commutative_associative(a, b, c):
    assert direct_sum(a, b) == direct_sum(b, a)
    assert direct_sum(direct_sum(a, b), c) == direct_sum(a, direct_sum(b, c))


def enumerate_coefficients(factors, m: int):
    """Orders of T/mT and the m-torsion of T by element-level enumeration."""
    elements = [()]
    for d in factors:
        elements = [e + (x,) for e in elements for x in range(d)]
    image = {tuple((m * x) % d for x, d in zip(e, factors)) for e in elements}
    torsion = [
        e for e in elements
        if all((m * x) % d == 0 for x, d in zip(e, factors))
    ]
    return len(elements) // len(image), len(torsion)


def test_finite_coefficients_examples():
    z = GroupStructure(free_rank=1)
    q, t = finite_coefficients(z, 7)
    assert q == GroupStructure.from_factors([7]) and t.is_trivial()

    c4 = GroupStructure.from_factors([4])
    q, t = finite_coefficients(c4, 2)
    # Enumeration in Z/4: doubles are {0, 2}, so the quotient has order 2;
    # the 2-torsion is {0, 2}.
    assert q == GroupStructure.from_factors([2])
    assert t == GroupStructure.from_factors([2])

    mixed = GroupStructure.from_factors([6], free_rank=2)
    q, t = finite_coefficients(mixed, 6)
    assert q == GroupStructure.from_factors([6, 6, 6])
    assert t == GroupStructure.from_factors([6])


def test_finite_coefficients_rejects_zero():
    with pytest.raises(DomainError):
        finite_coefficients(GroupStructure(free_rank=1), 0)


def test_finite_coefficients_refuses_listings_past_the_budget():
    # One quotient factor per free-rank copy: 2^20 are listed, one more is not.
    q, t = finite_coefficients(GroupStructure(free_rank=2 ** 20), 2)
    assert q.invariant_factors == (2,) * 2 ** 20 and t.is_trivial()
    for rank, factors in ((2 ** 20 + 1, []), (2 ** 20, [3]), (2 ** 61 - 1, [])):
        with pytest.raises(BudgetExceededError):
            finite_coefficients(GroupStructure.from_factors(factors, free_rank=rank), 2)
    # Modulus 1 lists nothing.
    q, t = finite_coefficients(GroupStructure.from_factors([4], free_rank=2 ** 61 - 1), 1)
    assert q.is_trivial() and t.is_trivial()


@settings(max_examples=200, deadline=None)
@given(groups(), st.integers(min_value=1, max_value=48))
def test_finite_coefficients_cardinality_identity(a, m):
    q, t = finite_coefficients(a, m)
    assert q.is_finite() and t.is_finite()
    assert q.order() == t.order() * m ** a.free_rank


def test_finite_coefficients_against_enumeration():
    rng = random.Random(2718)
    for _ in range(50):
        factors = [rng.randint(2, 12) for _ in range(rng.randint(0, 3))]
        a = GroupStructure.from_factors(factors)
        m = rng.randint(1, 16)
        q, t = finite_coefficients(a, m)
        # The torsion part is enumerated in the literal product group; the
        # free part contributes analytically (Z/m per copy, no torsion).
        eq, et = enumerate_coefficients(factors, m)
        assert q.order() == eq
        assert t.order() == et
        # Exponents agree too: the largest invariant factor of the reported
        # torsion group is the maximal element order found by enumeration.
        elements = [()]
        for d in factors:
            elements = [e + (x,) for e in elements for x in range(d)]
        torsion_elems = [
            e for e in elements
            if all((m * x) % d == 0 for x, d in zip(e, factors))
        ]
        max_order = 1
        for e in torsion_elems:
            k = 1
            while any((k * x) % d for x, d in zip(e, factors)):
                k += 1
            max_order = max(max_order, k)
        reported = t.invariant_factors[-1] if t.invariant_factors else 1
        assert reported == max_order


def test_direct_sum_agrees_with_block_matrix_cokernel():
    # The cokernel of a block-diagonal matrix is the direct sum of the block
    # cokernels; this ties direct_sum to the Smith-normal-form route.
    from limext import IntMatrix, cokernel_structure

    rng = random.Random(112)
    for _ in range(40):
        ra, ca = rng.randint(1, 3), rng.randint(1, 3)
        rb, cb = rng.randint(1, 3), rng.randint(1, 3)
        a = [[rng.randint(-9, 9) for _ in range(ca)] for _ in range(ra)]
        b = [[rng.randint(-9, 9) for _ in range(cb)] for _ in range(rb)]
        block = [row + [0] * cb for row in a] + [[0] * ca + row for row in b]
        combined = cokernel_structure(IntMatrix.from_rows(block))
        summed = direct_sum(
            cokernel_structure(IntMatrix.from_rows(a)),
            cokernel_structure(IntMatrix.from_rows(b)),
        )
        assert combined == summed


def test_presentation_structure():
    pres = GroupPresentation(2, IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert pres.structure() == GroupStructure.from_factors([6])
    free = GroupPresentation(3, IntMatrix.zero(0, 3))
    assert free.structure() == GroupStructure(free_rank=3)
    with pytest.raises(DimensionError):
        GroupPresentation(2, IntMatrix.from_rows([[1, 2, 3]]))


def test_group_str_and_json():
    g = GroupStructure.from_factors([2, 6], free_rank=2)
    assert str(g) == "Z^2 x C2 x C6"
    assert GroupStructure.from_json(g.to_json()) == g
    assert str(GroupStructure()) == "0"


def test_p_exponents():
    g = GroupStructure.from_factors([4, 12, 9])
    assert g.p_exponents(2) == (2, 2)
    assert g.p_exponents(3) == (2, 1)
    assert g.p_exponents(5) == ()
    assert g.p_exponents(4) == g.p_exponents(1) == ()
    assert GroupStructure.from_factors([8, 4]).is_p_group(2)
    assert not GroupStructure.from_factors([8, 4]).is_p_group(4)
    assert not g.is_p_group(2) and GroupStructure().is_p_group(4)
    # A factor with two 40-bit prime cofactors is answered without factoring.
    big = GroupStructure.from_factors([((1 << 40) + 15) * ((1 << 40) + 27) * 8])
    assert big.p_exponents(2) == (3,) and not big.is_p_group(2)
