import random
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limext import (
    DomainError,
    GroupDescriptor,
    GroupStructure,
    InvalidSystemError,
    InverseSystemSpec,
    drop_prefix,
    eprofile_from_multipliers,
    ext_to_z,
    is_mittag_leffler,
    lim1_classify,
    lim_structure,
    validate_system,
)
from limext.descriptors import CONTINUUM, PrimeMultiplicity
from limext.inverse_systems import Lim1Class
from support import random_nonsingular, random_system


def diag_system(*vecs, rank=None, prefix=()):
    r = rank if rank is not None else len(vecs[0])
    return InverseSystemSpec.build(r, list(prefix), [list(v) for v in vecs])


def test_validate_attaches_cokernel_metadata():
    v = validate_system(diag_system([5]))
    assert v.cokernel_orders == (5,)
    assert v.p_group_prime == 5

    v = validate_system(diag_system([1, 6]))
    assert v.cokernel_orders == (6,)
    assert v.p_group_prime is None
    assert v.cokernel_prime_support == (2, 3)


_entry = st.integers(1, 10**9) | st.integers(-10**9, -1)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda r: st.tuples(
    st.just(r), st.integers(0, 2), st.integers(0, 2**32),
    st.lists(st.lists(_entry, min_size=r, max_size=r), min_size=1, max_size=3))))
def test_cokernel_orders_equal_the_eager_products(case):
    rank, prefix_len, seed, tail = case
    rng = random.Random(seed)
    prefix = [random_nonsingular(rng, rank, bound=10) for _ in range(prefix_len)]
    v = validate_system(InverseSystemSpec.build(rank, prefix, tail))
    # The tuple validate_system built before the tail products were deferred.
    eager = [abs(m.determinant()) for m in prefix]
    eager += [prod(abs(d) for d in vec) for vec in tail]
    assert v.cokernel_orders == tuple(eager)


# Units and small repeated entries often, so that all-unit coordinates occur.
_tail_entry = st.sampled_from((1, -1)) | st.sampled_from((1, -1, 2, -2, 3, 6)) | _entry


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda r: st.tuples(
    st.just(r), st.integers(0, 2), st.integers(0, 2**32),
    st.lists(st.lists(_tail_entry, min_size=r, max_size=r), min_size=1, max_size=3))))
def test_validated_and_bare_systems_give_the_same_limit(case):
    # A validated system answers from its coordinate primes, a bare spec
    # from its tail entries.
    rank, prefix_len, seed, tail = case
    rng = random.Random(seed)
    prefix = [random_nonsingular(rng, rank, bound=10) for _ in range(prefix_len)]
    spec = InverseSystemSpec.build(rank, prefix, tail)
    v = validate_system(spec)
    assert lim_structure(v) == lim_structure(spec)
    assert is_mittag_leffler(v) is is_mittag_leffler(spec)


def test_validate_rejections():
    with pytest.raises(InvalidSystemError):
        validate_system(InverseSystemSpec.build(
            2, [[[1, 0], [0, 0]]], [[1, 1]]
        ))
    with pytest.raises(InvalidSystemError):
        validate_system(diag_system([1, 0]))
    with pytest.raises(InvalidSystemError):
        validate_system(InverseSystemSpec.build(2, [[[1, 0, 0], [0, 1, 0]]], [[1, 1]]))
    with pytest.raises(InvalidSystemError):
        validate_system(InverseSystemSpec.build(2, [], [[1]]))
    with pytest.raises(InvalidSystemError):
        validate_system(InverseSystemSpec.build(0, [], [[]]))


def test_lim_structure_cases():
    assert lim_structure(diag_system([1, 1])) == GroupStructure(free_rank=2)
    assert lim_structure(diag_system([5])) == GroupStructure()
    assert lim_structure(diag_system([1, 6])) == GroupStructure(free_rank=1)
    # Alternating signs still give units.
    assert lim_structure(diag_system([-1, 2], [1, 3])) == GroupStructure(free_rank=1)


def test_lim_rank_accounting():
    rng = random.Random(777)
    for _ in range(60):
        spec = random_system(rng)
        units = lim_structure(spec).free_rank
        non_units = sum(
            1 for col in zip(*spec.tail_diagonals) if any(abs(d) != 1 for d in col)
        )
        assert units + non_units == spec.rank


def test_mittag_leffler_cases():
    assert is_mittag_leffler(diag_system([1, -1]))
    assert not is_mittag_leffler(diag_system([5]))
    # A prefix never spoils stabilization.
    spec = InverseSystemSpec.build(2, [[[2, 1], [0, 3]]], [[1, 1]])
    assert is_mittag_leffler(spec)


def test_lim1_rank_one_example():
    cls = lim1_classify(diag_system([5]))
    assert cls.rational == CONTINUUM
    assert cls.multiplicity(5) == 0
    assert cls.multiplicity(2) == 1
    assert cls.multiplicity(97) == 1


def test_lim1_identity_system_vanishes():
    assert lim1_classify(diag_system([1, 1])).is_zero


def test_lim1_mixed_example():
    cls = lim1_classify(diag_system([1, 6]))
    assert cls.rational == CONTINUUM
    assert cls.multiplicity(2) == 0 and cls.multiplicity(3) == 0
    assert cls.multiplicity(5) == 1 and cls.multiplicity(7) == 1


def test_strategies_agree_on_examples():
    for spec in (
        diag_system([5]),
        diag_system([1, 1]),
        diag_system([1, 6]),
        diag_system([2, 3], [4, 9]),
        diag_system([-2, 1, 30], [1, 1, 1]),
    ):
        assert lim1_classify(spec, "recursive") == lim1_classify(spec, "ext_oracle")
    with pytest.raises(DomainError):
        lim1_classify(diag_system([5]), "guess")


def test_strategies_agree_at_high_rank():
    # Deeper than the default recursion limit: the coordinates are folded, not recursed.
    rng = random.Random(2000)
    vec = [rng.choice((1, -1, 2, 3, 5, 6, 7, 10, 35)) for _ in range(2000)]
    spec = diag_system(vec)
    c = lim1_classify(spec, "recursive")
    assert c == lim1_classify(spec, "ext_oracle")
    nonunit = [d for d in vec if abs(d) > 1]
    assert c.multiplicity(11) == len(nonunit)
    assert c.multiplicity(5) == sum(d % 5 != 0 for d in nonunit)


def test_strategies_agree_with_counting_at_high_rank():
    # 600 coordinates over a pool of 24 primes, so primes are shared widely.
    # Each coordinate's primes are drawn first and split over a period of 2
    # (with powers and signs), so n and the c_p are known from the draw.
    rng = random.Random(8)
    pool = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
            67, 71, 73, 79, 83, 89)
    cols = []
    drawn = []
    for _ in range(600):
        primes = rng.sample(pool, rng.choice((0, 0, 1, 2, 3)))
        entries = [rng.choice((1, -1)), rng.choice((1, -1))]
        for p in primes:
            entries[rng.randrange(2)] *= p ** rng.randint(1, 3)
        cols.append(entries)
        drawn.append(primes)
    spec = InverseSystemSpec.build(600, [], [[c[t] for c in cols] for t in range(2)])
    n = sum(1 for primes in drawn if primes)
    c = {p: sum(p in primes for primes in drawn) for p in pool}
    expected = Lim1Class(CONTINUUM, PrimeMultiplicity.build(
        n, {p: n - cp for p, cp in c.items()}))
    assert 0 < n < 600 and min(c.values()) > 10
    assert lim1_classify(spec, "recursive") == expected
    assert lim1_classify(spec, "ext_oracle") == expected


def test_strategies_agree_up_to_rank_200():
    # Ranks up to 200, periods up to 3, negative and unit entries.  Each
    # coordinate's primes are drawn first, so the class is known without
    # factoring; the per-coordinate Ext route of the multipliers (which
    # factors them itself) must give it too.
    rng = random.Random(14)
    pool = (2, 3, 5, 7, 11, 13, 31, 97, 101, 8191)
    for _ in range(40):
        rank, period = rng.randint(1, 200), rng.randint(1, 3)
        cols, drawn = [], []
        for _ in range(rank):
            primes = rng.sample(pool, rng.choice((0, 0, 1, 2, 3)))
            entries = [rng.choice((1, -1)) for _ in range(period)]
            for p in primes:
                entries[rng.randrange(period)] *= p ** rng.randint(1, 2)
            cols.append(entries)
            drawn.append(primes)
        spec = InverseSystemSpec.build(rank, [], [[c[t] for c in cols] for t in range(period)])
        n = sum(1 for primes in drawn if primes)
        expected = Lim1Class(CONTINUUM, PrimeMultiplicity.build(
            n, {p: n - sum(p in primes for primes in drawn) for p in pool})) if n else Lim1Class()
        assert lim1_classify(spec, "recursive") == expected
        assert lim1_classify(spec, "ext_oracle") == expected
        assert Lim1Class.from_descriptor(GroupDescriptor.total(
            ext_to_z(eprofile_from_multipliers([], col)) for col in cols
        )) == expected


def test_oracle_equivalence_randomized():
    # Seeded run; the acceptance suite does 500+, this is the quick version.
    rng = random.Random(20260808)
    for i in range(120):
        single = rng.choice((None, 2, 3, 5)) if i % 3 == 0 else None
        spec = random_system(rng, single_prime=single)
        rec = lim1_classify(spec, "recursive")
        ora = lim1_classify(spec, "ext_oracle")
        assert rec == ora
        # Rank bound and rational dichotomy.
        assert rec.rational in (CONTINUUM,) or rec.is_zero
        for p in (2, 3, 5, 7, 11, 13):
            assert 0 <= rec.multiplicity(p) <= spec.rank


def test_single_prime_cokernel_clause():
    rng = random.Random(31337)
    seen_nonzero = 0
    for _ in range(80):
        p = rng.choice((2, 3, 5))
        spec = random_system(rng, single_prime=p)
        v = validate_system(spec)
        cls = lim1_classify(v)
        if v.p_group_prime is None:
            continue
        assert v.p_group_prime == p
        if cls.is_zero:
            continue
        seen_nonzero += 1
        n_p = cls.multiplicity(p)
        others = {cls.multiplicity(l) for l in (2, 3, 5, 7, 11, 97) if l != p}
        assert len(others) == 1
        n_l = others.pop()
        assert n_p < n_l
    assert seen_nonzero > 10


def test_prefix_invariance():
    rng = random.Random(99)
    for _ in range(40):
        spec = random_system(rng)
        base = lim1_classify(spec)
        for k in range(len(spec.prefix) + 1):
            assert lim1_classify(drop_prefix(spec, k)) == base
    with pytest.raises(DomainError):
        drop_prefix(diag_system([2]), 1)


def test_drop_prefix_identity():
    spec = InverseSystemSpec.build(1, [[[3]], [[2]]], [[5]])
    assert drop_prefix(spec, 0) == spec
    assert drop_prefix(spec, 2).prefix == ()


def test_ml_iff_lim1_vanishes():
    rng = random.Random(2024)
    for _ in range(80):
        spec = random_system(rng)
        assert is_mittag_leffler(spec) == lim1_classify(spec).is_zero


def test_spec_json_round_trip():
    spec = InverseSystemSpec.build(2, [[[2, 1], [0, 3]]], [[1, -6], [2, 1]])
    again = InverseSystemSpec.from_json(spec.to_json())
    assert again == spec
    bad = spec.to_json()
    bad["tail"]["period"] = "3"
    with pytest.raises(InvalidSystemError):
        InverseSystemSpec.from_json(bad)
