import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

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


def unit_power_by_full_exponent(ring: TruncatedPolyRing, s: int) -> bool:
    # The check as first written: p^s and p^(n+s) in full, then one power.
    if s < 0:
        raise DomainError("s must be nonnegative")
    if ring.p ** s < ring.n:
        raise DomainError(f"need p^s >= n, got {ring.p}^{s} < {ring.n}")
    return ring.power(ring.principal_unit(), ring.p ** (ring.n + s)) == ring.one()


def outcome(check, ring, s):
    try:
        return check(ring, s)
    except DomainError as exc:
        return type(exc), str(exc)


def test_unit_power_matches_the_full_exponent():
    for p, n, degree, s in itertools.product((2, 3, 5, 7), range(1, 7), range(1, 7), range(-1, 4)):
        ring = TruncatedPolyRing(p, n, degree)
        assert outcome(unit_power_check, ring, s) == outcome(unit_power_by_full_exponent, ring, s)


UNIT_POWER_PROBE = """
import sys, time
from limext import TruncatedPolyRing, unit_power_check
start = time.monotonic()
result = unit_power_check(TruncatedPolyRing(3, 2, 4), int(sys.argv[1]))
print(result, time.monotonic() - start)
"""


@pytest.mark.parametrize("s", (10 ** 8, 2 ** 31 - 1))
def test_unit_power_does_not_grow_with_s(s):
    # In a child process, so that a check that forms p^(n+s) is stopped.
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", UNIT_POWER_PROBE, str(s)],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=10, check=True)
    result, seconds = proc.stdout.split()
    assert result == "True" and float(seconds) < 1


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
