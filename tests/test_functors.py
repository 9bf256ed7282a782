import itertools
import json
import math
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limext import (
    ContinuumError,
    DomainError,
    GroupDescriptor,
    GroupStructure,
    ModuleHypothesisError,
    completion_cokernel,
    extension_classes,
    finite_coefficients_descriptor,
    finite_quotients,
    lim1_mult_p,
    max_p_divisible,
    six_term_mult_p,
    tate_module,
)
from limext.descriptors import CONTINUUM, PrimeMultiplicity
from limext.errors import BudgetExceededError
from limext.fg_groups import direct_sum, finite_coefficients
from limext.functors import _count_dominated_partitions, _dominated_partitions
from support import (
    ExplicitCyclic,
    all_quotient_structures,
    finite_tower_limit,
    random_descriptor,
)

DATA = Path(__file__).resolve().parent / "data" / "block_tables.json"

FUNCTOR_PRIMES = (2, 3, 5)


# ---------------------------------------------------------------------------
# Exhaustive verification of the finite-block entries: every functor value on
# Z/p^k must agree with element-level computation in the explicit cyclic
# group and its truncated towers (depth 10).


@pytest.mark.parametrize("p", FUNCTOR_PRIMES)
@pytest.mark.parametrize("k", range(1, 7))
def test_finite_block_against_explicit_cyclic(p, k):
    m = p ** k
    grp = ExplicitCyclic(m)
    desc = GroupDescriptor.cyclic_group(m)

    # Tate module: the p-power torsion tower T_j with multiplication-by-p
    # transitions has stable images shrinking to zero, so the limit is 0.
    depth = 10
    towers = [grp.torsion_subgroup(p ** j) for j in range(1, depth + 1)]
    maps = [(lambda x, p=p, m=m: (p * x) % m) for _ in range(depth - 1)]
    _, ml, limit_size = finite_tower_limit(towers, maps)
    assert ml, "torsion tower of a finite group must be Mittag-Leffler"
    assert limit_size == 1
    assert tate_module(desc, p).is_zero()

    # Maximal p-divisible subgroup by direct stabilization.
    stable = grp.max_divisible_subgroup(p)
    expected = GroupDescriptor.cyclic_group(len(stable)) if len(stable) > 1 \
        else GroupDescriptor.build()
    assert max_p_divisible(desc, p) == expected
    assert len(stable) == 1  # p-power cyclic group has no p-divisible part

    # Coefficient pairs for every exponent.
    for j in range(1, 7):
        quotient, torsion = finite_coefficients_descriptor(desc, p, j)
        assert quotient.order() == grp.quotient_order(p, j)
        assert torsion.order() == grp.torsion_order(p, j)
        # Both are cyclic here.
        assert len(quotient.invariant_factors) <= 1
        assert len(torsion.invariant_factors) <= 1

    # Derived limit of (G, p): images of the constant-G tower stabilize
    # (finite group), so the derived limit vanishes.
    const = [grp.elements for _ in range(depth)]
    _, ml2, lim_size = finite_tower_limit(const, maps)
    assert ml2
    assert lim1_mult_p(desc, p).is_zero()
    # And the limit is the prime-to-p part, trivial for a p-power modulus.
    assert lim_size == 1


@pytest.mark.parametrize("p", FUNCTOR_PRIMES)
def test_finite_block_mixed_modulus(p):
    # Mixed order: the prime-to-p part survives limits and divisibility.
    m = p ** 2 * 77  # 77 is coprime to 2, 3, 5
    grp = ExplicitCyclic(m)
    desc = GroupDescriptor.cyclic_group(m)
    stable = grp.max_divisible_subgroup(p)
    assert max_p_divisible(desc, p) == GroupDescriptor.cyclic_group(77)
    assert len(stable) == 77
    depth = 10
    maps = [(lambda x, p=p, m=m: (p * x) % m) for _ in range(depth - 1)]
    const = [grp.elements for _ in range(depth)]
    _, ml, lim_size = finite_tower_limit(const, maps)
    assert ml and lim_size == 77
    seq = six_term_mult_p(desc, p)
    assert seq.lim == GroupDescriptor.cyclic_group(77)
    assert seq.lim_power_images == GroupDescriptor.cyclic_group(77)


def test_max_divisible_worked_example():
    # Exhaustive check of 2-divisibility in Z/12: the largest subgroup equal
    # to twice itself is {0, 4, 8}.
    grp = ExplicitCyclic(12)
    stable = grp.max_divisible_subgroup(2)
    assert stable == frozenset({0, 4, 8})
    assert max_p_divisible(GroupDescriptor.cyclic_group(12), 2) \
        == GroupDescriptor.cyclic_group(3)


def test_tate_module_of_q_mod_z_via_truncated_tower():
    # The p-power torsion of Q/Z at level j is (1/p^j)Z / Z = Z/p^j (a/p^j
    # encoded by a), and the times-p transition sends a/p^{j+1} to a/p^j,
    # i.e. a to a mod p^j: surjective with kernel of order p.  That is the
    # standard tower whose limit is the p-adic integers.  Verified at depth
    # 10, then frozen.
    p = 3
    for j in range(1, 11):
        level = range(p ** (j + 1))
        image = {x % (p ** j) for x in level}
        assert image == set(range(p ** j))            # surjective
        kernel = [x for x in level if x % (p ** j) == 0]
        assert len(kernel) == p                        # kernel Z/p each step
    assert tate_module(GroupDescriptor.q_mod_z(), p) \
        == GroupDescriptor.padic_integers(p)


def test_tate_trivial_on_torsion_free_plus_finite():
    g = GroupDescriptor.free() + GroupDescriptor.cyclic_group(5 ** 3)
    assert tate_module(g, 5).is_zero()


def test_tate_rejects_continuum_pruefer():
    g = GroupDescriptor.build(pruefer=PrimeMultiplicity.build(0, {3: CONTINUUM}))
    with pytest.raises(ContinuumError):
        tate_module(g, 3)


def test_finite_coefficients_examples():
    q, t = finite_coefficients_descriptor(GroupDescriptor.localized(5), 5, 1)
    assert q == GroupStructure.from_factors([5]) and t.is_trivial()
    q, t = finite_coefficients_descriptor(GroupDescriptor.pruefer_group(5), 5, 2)
    assert q.is_trivial() and t == GroupStructure.from_factors([25])
    q, t = finite_coefficients_descriptor(GroupDescriptor.cyclic_group(5 ** 3), 5, 2)
    assert q == GroupStructure.from_factors([25])
    assert t == GroupStructure.from_factors([25])


def test_finite_coefficients_continuum_rule():
    # Continuum-many Pruefer copies at p would have torsion (Z/p^j)^continuum:
    # rejected.  A continuum Q block contributes nothing and passes.
    bad = GroupDescriptor.build(pruefer=PrimeMultiplicity.build(0, {3: CONTINUUM}))
    with pytest.raises(ContinuumError):
        finite_coefficients_descriptor(bad, 3)
    q, t = finite_coefficients_descriptor(GroupDescriptor.rationals(CONTINUUM), 3)
    assert q.is_trivial() and t.is_trivial()
    # Continuum Pruefer away from p is inert as well.
    q, t = finite_coefficients_descriptor(bad, 5)
    assert q.is_trivial() and t.is_trivial()


def test_finite_coefficients_descriptor_refuses_listings_past_the_budget():
    # Z/p^j per free copy in the quotient, and per Pruefer copy at p in the
    # torsion: 2^20 factors in all are listed, one more is not.
    def descriptor(free, pruefer):
        return GroupDescriptor.build(free_rank=free,
                                     pruefer=PrimeMultiplicity.build(0, {2: pruefer}))

    q, t = finite_coefficients_descriptor(descriptor(1, 2 ** 20 - 1), 2, 3)
    assert q == GroupStructure.from_factors([8])
    assert t.invariant_factors == (8,) * (2 ** 20 - 1)
    for free, pruefer in ((1, 2 ** 20), (2 ** 20 + 1, 0), (0, 2 ** 61 - 1), (2 ** 61 - 1, 0)):
        with pytest.raises(BudgetExceededError):
            finite_coefficients_descriptor(descriptor(free, pruefer), 2)
    # Pruefer copies away from p list nothing.
    q, t = finite_coefficients_descriptor(descriptor(0, 2 ** 61 - 1), 3)
    assert q.is_trivial() and t.is_trivial()


def _coefficients_with_p_to_the_j(g, p, j):
    # finite_coefficients_descriptor as it formed p ** j for every j.
    separated = g.free_rank + g.local_count(p) + g.padic_count(p)
    separated += sum(c for s, c in g.inverted if p not in s)
    quotient, torsion = finite_coefficients(GroupStructure(separated, g.cyclic), p ** j)
    pruefer = GroupStructure.from_factors([p ** j] * g.pruefer.at(p).value)
    return quotient, direct_sum(torsion, pruefer)


def test_finite_coefficients_descriptor_matches_p_to_the_j():
    # p^min(j, e) for the largest exponent e of p in the cyclic orders where
    # no block lists p^j itself, p^j where one does: the same pairs for
    # j = 1..6, and past every e.
    rng = random.Random(1227)
    capped = 0
    for _ in range(300):
        g = random_descriptor(rng, max_blocks=4)
        g += GroupDescriptor.cyclic_group(rng.choice((2, 3, 5)) ** rng.randint(1, 5))
        p = rng.choice(FUNCTOR_PRIMES)
        capped += not (g.free_rank or g.local_count(p) or g.padic_count(p)
                       or any(p not in s for s, _ in g.inverted) or g.pruefer.at(p).value)
        for j in (1, 2, 3, 4, 5, 6, 40):
            assert finite_coefficients_descriptor(g, p, j) == _coefficients_with_p_to_the_j(g, p, j)
    assert capped > 50


def test_finite_coefficients_descriptor_bounds_a_huge_j():
    # Cyclic orders alone never list p^j, so j past their exponents is cheap;
    # a listed p^j of over 2^16 bits is refused before it is formed.
    start = time.monotonic()
    q, t = finite_coefficients_descriptor(GroupDescriptor.cyclic_group(125), 5, 10 ** 8)
    assert str(q) == str(t) == "C125"
    q, t = finite_coefficients_descriptor(GroupDescriptor.cyclic_group(12), 5, 10 ** 4300 - 1)
    assert q.is_trivial() and t.is_trivial()
    for g in (GroupDescriptor.free(), GroupDescriptor.pruefer_group(5), GroupDescriptor.localized(5)):
        with pytest.raises(BudgetExceededError):
            finite_coefficients_descriptor(g, 5, 10 ** 4300 - 1)
        with pytest.raises(BudgetExceededError):
            finite_coefficients_descriptor(g + GroupDescriptor.cyclic_group(5), 5, 2 ** 16 // 3 + 1)
    assert time.monotonic() - start < 1
    # 5 has 3 bits: j * 3 <= 2^16 is still listed.
    q, _ = finite_coefficients_descriptor(GroupDescriptor.free(), 5, 2 ** 16 // 3)
    assert q.invariant_factors == (5 ** (2 ** 16 // 3),)


def test_lim1_landmark_values():
    # The localization at p has derived limit a continuum Q-space.
    assert lim1_mult_p(GroupDescriptor.localized(7), 7) \
        == GroupDescriptor.rationals(CONTINUUM)
    # Q and all Pruefer groups and finite groups are inert.
    assert lim1_mult_p(GroupDescriptor.rationals(), 7).is_zero()
    assert lim1_mult_p(GroupDescriptor.pruefer_group(7), 7).is_zero()
    assert lim1_mult_p(GroupDescriptor.cyclic_group(7 ** 4), 7).is_zero()
    # Z picks up the full torsion of Z_p/Z.
    out = lim1_mult_p(GroupDescriptor.free(), 7)
    assert out.rational == CONTINUUM
    assert out.pruefer == PrimeMultiplicity.build(1, {7: 0})


def test_functor_additivity():
    rng = random.Random(20260808)
    ops = [tate_module, max_p_divisible, lim1_mult_p]
    for _ in range(120):
        a = random_descriptor(rng)
        b = random_descriptor(rng)
        p = rng.choice(FUNCTOR_PRIMES)
        for op in ops:
            assert op(a + b, p) == op(a, p) + op(b, p)
        if not (a + b).has_continuum():
            qa, ta = finite_coefficients_descriptor(a, p, 2)
            qb, tb = finite_coefficients_descriptor(b, p, 2)
            qab, tab = finite_coefficients_descriptor(a + b, p, 2)
            from limext import direct_sum

            assert qab == direct_sum(qa, qb)
            assert tab == direct_sum(ta, tb)


def test_max_divisible_idempotent_and_divisible():
    rng = random.Random(5150)
    for _ in range(80):
        g = random_descriptor(rng)
        p = rng.choice(FUNCTOR_PRIMES)
        once = max_p_divisible(g, p)
        assert max_p_divisible(once, p) == once
        # Block-level p-divisibility: quotient mod p must vanish.
        if not once.has_continuum():
            quotient, _ = finite_coefficients_descriptor(once, p, 1)
            assert quotient.is_trivial()


def test_six_term_consistency_on_random_descriptors():
    rng = random.Random(424242)
    for _ in range(150):
        g = random_descriptor(rng)
        p = rng.choice(FUNCTOR_PRIMES)
        seq = six_term_mult_p(g, p)
        assert seq.tate == tate_module(g, p)
        assert seq.lim1 == lim1_mult_p(g, p)
        assert seq.lim1_power_images == seq.lim1
        assert seq.lim1_torsion.is_zero()


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(FUNCTOR_PRIMES))
def test_six_term_additive_over_pairs(rng, p):
    # Every term is additive, so the sequence of a sum is the termwise sum;
    # with the per-block appendix rows this pins the sequence on every sum.
    a = random_descriptor(rng)
    b = random_descriptor(rng)
    sums = tuple(
        x + y
        for x, y in zip(six_term_mult_p(a, p).terms(), six_term_mult_p(b, p).terms())
    )
    assert six_term_mult_p(a + b, p).terms() == sums


def test_six_term_worked_rows():
    z = GroupDescriptor.free()
    seq = six_term_mult_p(z, 5)
    zp_mod_z = GroupDescriptor.build(
        rational=CONTINUUM, pruefer=PrimeMultiplicity.build(1, {5: 0})
    )
    assert seq.terms() == (
        GroupDescriptor.build(), GroupDescriptor.build(), GroupDescriptor.build(),
        GroupDescriptor.build(), zp_mod_z, zp_mod_z,
    )

    pruefer = GroupDescriptor.pruefer_group(5)
    seq = six_term_mult_p(pruefer, 5)
    assert seq.tate == GroupDescriptor.padic_integers(5)
    assert seq.lim == GroupDescriptor.rationals(CONTINUUM)
    assert seq.lim_power_images == pruefer
    assert seq.lim1_torsion.is_zero() and seq.lim1.is_zero()

    q = GroupDescriptor.rationals()
    seq = six_term_mult_p(q, 5)
    assert seq.terms() == (
        GroupDescriptor.build(), q, q,
        GroupDescriptor.build(), GroupDescriptor.build(), GroupDescriptor.build(),
    )


def test_six_term_finite_group_is_mittag_leffler():
    for m in (8, 9, 12, 30):
        for p in FUNCTOR_PRIMES:
            seq = six_term_mult_p(GroupDescriptor.cyclic_group(m), p)
            assert seq.tate.is_zero()
            assert seq.lim1_torsion.is_zero()
            assert seq.lim1.is_zero()
            assert seq.lim1_power_images.is_zero()
            if GroupStructure.from_factors([m]).is_p_group(p):
                assert all(term.is_zero() for term in seq.terms())


def test_completion_cokernel_examples():
    out = completion_cokernel(
        GroupDescriptor.localized(5), GroupDescriptor.pruefer_group(5), 5
    )
    assert out == GroupDescriptor.padic_integers(5) + GroupDescriptor.rationals(CONTINUUM)

    assert completion_cokernel(
        GroupDescriptor.rationals(), GroupDescriptor.build(), 5
    ).is_zero()

    out = completion_cokernel(
        GroupDescriptor.cyclic_group(5 ** 2), GroupDescriptor.pruefer_group(5), 5
    )
    assert out == GroupDescriptor.padic_integers(5)


def test_completion_cokernel_hypothesis_enforced():
    with pytest.raises(ModuleHypothesisError):
        completion_cokernel(GroupDescriptor.free(), GroupDescriptor.build(), 5)
    with pytest.raises(ModuleHypothesisError):
        completion_cokernel(
            GroupDescriptor.s_inverted([2, 3]), GroupDescriptor.build(), 5
        )
    # p inside S is fine.
    completion_cokernel(GroupDescriptor.s_inverted([2, 5]), GroupDescriptor.build(), 5)


# ---------------------------------------------------------------------------
# Extensions of divisible groups by finite groups.


def test_extension_classes_examples():
    d = GroupDescriptor.pruefer_group(3)
    out = extension_classes(d, GroupStructure.from_factors([3]))
    assert out == {d, d + GroupDescriptor.cyclic_group(3)}

    out = extension_classes(GroupDescriptor.build(), GroupStructure.from_factors([6]))
    assert out == {
        GroupDescriptor.build(),
        GroupDescriptor.cyclic_group(2),
        GroupDescriptor.cyclic_group(3),
        GroupDescriptor.cyclic_group(6),
    }

    q = GroupDescriptor.rationals()
    out = extension_classes(q, GroupStructure.from_factors([4]))
    assert out == {q, q + GroupDescriptor.cyclic_group(2), q + GroupDescriptor.cyclic_group(4)}


def test_extension_classes_preconditions():
    with pytest.raises(DomainError):
        extension_classes(GroupDescriptor.free(), GroupStructure.from_factors([2]))
    with pytest.raises(DomainError):
        extension_classes(GroupDescriptor.rationals(), GroupStructure(free_rank=1))


@pytest.mark.parametrize(
    "factors", [(4,), (6,), (2, 4), (12,), (2, 2), (8, 2), (9, 3)]
)
def test_finite_quotients_against_subgroup_enumeration(factors):
    # Independent oracle: enumerate every subgroup (pairs of generators are
    # enough for two factors), quotient via Smith normal form.
    expected = all_quotient_structures(list(factors))
    got = finite_quotients(GroupStructure.from_factors(list(factors)))
    assert got == expected


def test_dominated_partitions_against_brute_force():
    rng = random.Random(34)
    for _ in range(200):
        lam = tuple(sorted((rng.randint(1, 6) for _ in range(rng.randint(1, 5))), reverse=True))
        # Every weakly decreasing mu <= lam entrywise, zeros stripped.
        expected = {tuple(x for x in mu if x)
                    for mu in itertools.product(*(range(b + 1) for b in lam))
                    if list(mu) == sorted(mu, reverse=True)}
        mus = _dominated_partitions(lam)
        assert len(mus) == len(expected) and set(mus) == expected, lam
        assert _count_dominated_partitions(lam) == len(expected), lam
    assert _count_dominated_partitions((30,) * 6) == math.comb(36, 6)


def test_finite_quotients_budget():
    # 2^12 classes are enumerated; one more is refused before any work.
    assert len(finite_quotients(GroupStructure.from_factors([6 ** 63]))) == 2 ** 12
    with pytest.raises(BudgetExceededError):
        finite_quotients(GroupStructure.from_factors([2 ** 4096]))
    # A long chain counts against the factor budget.
    with pytest.raises(BudgetExceededError):
        finite_quotients(GroupStructure.from_factors([2] * 512))


def test_extension_classes_torsion_comparison():
    # For every member E: the p-torsion of E contains that of D, and divides
    # that of D + F, at each prime and small exponent.
    rng = random.Random(33)
    for _ in range(20):
        d = GroupDescriptor.pruefer_group(rng.choice(FUNCTOR_PRIMES), rng.randint(1, 2))
        f = GroupStructure.from_factors(
            [rng.choice([2, 3, 4, 5, 8, 9, 12]) for _ in range(rng.randint(1, 2))]
        )
        full = d + GroupDescriptor.from_structure(f)
        for e in extension_classes(d, f):
            for p in FUNCTOR_PRIMES:
                for j in (1, 2, 3):
                    _, te = finite_coefficients_descriptor(e, p, j)
                    _, td = finite_coefficients_descriptor(d, p, j)
                    _, tfull = finite_coefficients_descriptor(full, p, j)
                    assert te.order() % td.order() == 0
                    assert tfull.order() % te.order() == 0


def test_descriptor_coefficients_agree_with_fg_arithmetic():
    # On finitely generated descriptors the block functor must reproduce the
    # invariant-factor computation of (A / p^j A, p^j-torsion).
    from limext import finite_coefficients

    rng = random.Random(51)
    for _ in range(80):
        free = rng.randint(0, 3)
        factors = [rng.randint(2, 400) for _ in range(rng.randint(0, 4))]
        a = GroupStructure.from_factors(factors, free_rank=free)
        desc = GroupDescriptor.from_structure(a)
        p = rng.choice(FUNCTOR_PRIMES)
        j = rng.randint(1, 3)
        assert finite_coefficients_descriptor(desc, p, j) \
            == finite_coefficients(a, p ** j)


def test_lim1_matches_ext_of_p_inverted_subgroup():
    # Cross-module identity: for a p-adically dense, separated subgroup D,
    # the derived limit of (D, times p) is the quotient of the p-adic
    # integers by D, which the rank-1 classification computes independently
    # as Ext(D[1/p], Z).
    from limext import EProfile, INFINITE, ext_to_z

    rationals_profile = EProfile.build(INFINITE)   # every prime inverted
    for p in FUNCTOR_PRIMES:
        assert lim1_mult_p(GroupDescriptor.free(), p) \
            == ext_to_z(EProfile.inverted_profile([p]))
        # Z_(p) with p inverted is all of Q, and Ext(Q, Z) is the continuum
        # Q-space, matching the uniquely divisible derived limit.
        assert lim1_mult_p(GroupDescriptor.localized(p), p) \
            == ext_to_z(rationals_profile)
        for s in ([2], [7], [2, 7], [11, 13]):
            if p in s:
                continue
            assert lim1_mult_p(GroupDescriptor.s_inverted(s), p) \
                == ext_to_z(EProfile.inverted_profile(sorted(set(s) | {p})))


# ---------------------------------------------------------------------------
# The machine-readable appendix of the derivations document.


def _descriptor(data):
    return GroupDescriptor.from_json(data)


def test_block_tables_match_derivations_appendix():
    appendix = json.loads(DATA.read_text())
    p = int(appendix["functor_prime"])
    j = int(appendix["coefficient_exponent"])
    for entry in appendix["entries"]:
        g = _descriptor(entry["input"])
        label = entry["case"]
        assert tate_module(g, p) == _descriptor(entry["tate"]), label
        assert max_p_divisible(g, p) == _descriptor(entry["max_divisible"]), label
        assert lim1_mult_p(g, p) == _descriptor(entry["lim1"]), label
        quotient, torsion = finite_coefficients_descriptor(g, p, j)
        assert quotient == GroupStructure.from_factors(
            [int(x) for x in entry["finite_coefficients"]["quotient"]]
        ), label
        assert torsion == GroupStructure.from_factors(
            [int(x) for x in entry["finite_coefficients"]["torsion"]]
        ), label
        seq = six_term_mult_p(g, p)
        expected_terms = tuple(_descriptor(term) for term in entry["six_term"])
        assert seq.terms() == expected_terms, label
