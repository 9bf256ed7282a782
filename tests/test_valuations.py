import math

import pytest

from limext import (
    DomainError,
    NotPrimeError,
    TruncatedPolyRing,
    check_binomial_lemma,
    unit_power_check,
    vp_binomial,
    vp_factorial,
)
from limext.errors import BudgetExceededError
from support import vp_int


def test_factorial_examples():
    assert vp_factorial(2, 10) == 8      # 5 + 2 + 1
    assert vp_factorial(3, 9) == 4       # 3 + 1
    assert vp_factorial(7, 0) == 0
    with pytest.raises(NotPrimeError):
        vp_factorial(6, 5)
    with pytest.raises(DomainError):
        vp_factorial(2, -1)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_factorial_against_repeated_division(p):
    # v_p(n!) = sum of v_p(k): divide every k out by hand, up to 2000.
    total = 0
    for n in range(1, 2001):
        total += vp_int(n, p)
        assert vp_factorial(p, n) == total


def test_binomial_examples():
    assert vp_binomial(2, 8, 2) == 2     # C(8, 2) = 28 = 4 * 7
    assert vp_binomial(2, 8, 3) == 3     # C(8, 3) = 56 = 8 * 7
    assert vp_binomial(5, 12, 0) == 0
    assert vp_binomial(3, 12, 12) == 0
    with pytest.raises(DomainError):
        vp_binomial(2, 3, 4)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_binomial_against_exact_factorization(p):
    for z in range(0, 201):
        for u in range(0, z + 1):
            assert vp_binomial(p, z, u) == vp_int(math.comb(z, u), p)


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("n", (1, 2, 3, 4))
@pytest.mark.parametrize("s", (1, 2, 3, 4))
def test_binomial_lemma_exhaustive(p, n, s):
    assert check_binomial_lemma(p, n, s) is True


def test_binomial_lemma_rejects_bad_inputs():
    with pytest.raises(DomainError):
        check_binomial_lemma(2, 0, 1)
    with pytest.raises(NotPrimeError):
        check_binomial_lemma(9, 1, 1)


def test_binomial_lemma_budget():
    assert check_binomial_lemma(2, 1, 14) is True       # p^s = 2^14, the largest run
    for p, n, s in ((2, 1, 15), (3, 1, 9), (2, 51, 14), (2, 1, 10 ** 4000)):
        with pytest.raises(BudgetExceededError):
            check_binomial_lemma(p, n, s)


def expand_by_binomial_formula(ring: TruncatedPolyRing, exponent: int):
    # Independent expansion: (1 + p y)^N has coefficient C(N, j) p^j at y^j.
    mod = ring.modulus
    return tuple(
        (math.comb(exponent, j) * ring.p ** j) % mod if j <= exponent else 0
        for j in range(ring.degree_bound + 1)
    )


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_unit_power_against_binomial_expansion(p, n):
    s = 0
    while p ** s < n:
        s += 1
    ring = TruncatedPolyRing(p, n, 2 * p ** s)
    exponent = p ** (n + s)
    by_ring = ring.power(ring.principal_unit(), exponent)
    by_formula = expand_by_binomial_formula(ring, exponent)
    assert by_ring == by_formula
    assert unit_power_check(ring, s) is True


def test_unit_power_examples():
    # (1 + 2y)^2 = 1 + 4y + 4y^2 = 1 mod 4, so the 8th power is 1 as well.
    assert unit_power_check(TruncatedPolyRing(2, 2, 8), 1) is True
    assert unit_power_check(TruncatedPolyRing(3, 1, 5), 1) is True
    assert unit_power_check(TruncatedPolyRing(2, 3, 10), 2) is True


def test_unit_power_threshold_enforced():
    with pytest.raises(DomainError):
        unit_power_check(TruncatedPolyRing(2, 3, 6), 1)   # 2^1 < 3


def test_unit_power_monotone_in_exponent():
    for p, n in ((2, 2), (2, 4), (3, 2), (5, 2)):
        s = 0
        while p ** s < n:
            s += 1
        ring = TruncatedPolyRing(p, n, 2 * p ** s + 3)
        assert unit_power_check(ring, s) is True
        for higher in (s + 1, s + 2):
            assert unit_power_check(ring, higher) is True


def test_ring_validation():
    with pytest.raises(NotPrimeError):
        TruncatedPolyRing(8, 2, 4)
    with pytest.raises(DomainError):
        TruncatedPolyRing(2, 0, 4)
