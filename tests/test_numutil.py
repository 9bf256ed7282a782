import math
import random

import pytest
from support import iroot_bisect, trial_factor

from limext.errors import NotPrimeError, UnsupportedInputError
from limext.numutil import (_iroot, _strong_lucas_probable_prime, _strong_probable_prime,
                            is_prime, prime_factors, prime_to_p_part, require_prime, vp)


def test_is_prime_small_range():
    sieve = [True] * 2000
    sieve[0] = sieve[1] = False
    for i in range(2, 2000):
        if sieve[i]:
            for j in range(2 * i, 2000, i):
                sieve[j] = False
    for n in range(2000):
        assert is_prime(n) == sieve[n], n


def test_is_prime_larger_values():
    assert is_prime(2 ** 61 - 1)          # Mersenne prime
    assert not is_prime(2 ** 61 + 1)
    assert is_prime(1_000_000_007)
    assert not is_prime(1_000_000_007 * 998_244_353)
    assert is_prime(2 ** 521 - 1)
    # The least strong pseudoprimes to the prime bases 2..37 and 2..41.
    assert not is_prime(399165290221 * 798330580441)
    assert not is_prime(1287836182261 * 2575672364521)


def test_baillie_psw_from_psi_13_up():
    psi_13 = 1287836182261 * 2575672364521
    above = [2 ** 89 - 1, 2 ** 127 - 1, 2 ** 521 - 1]
    for m in above:
        assert m > psi_13 and is_prime(m)
    mersenne = [2 ** 31 - 1, 2 ** 61 - 1, *above]
    for i, p in enumerate(mersenne):
        for q in mersenne[i:]:
            if p * q >= psi_13:
                assert not is_prime(p * q), (p, q)


def test_strong_lucas_step_against_trial_division():
    # Odd n < 10**5: the strong Lucas pseudoprimes there start 5459, 5777,
    # and none of them is a strong probable prime to base 2.
    lucas_pseudoprimes = []
    for n in range(3, 10 ** 5, 2):
        prime = trial_factor(n) == {n: 1}
        lucas = _strong_lucas_probable_prime(n)
        assert lucas or not prime, n
        if lucas and not prime:
            lucas_pseudoprimes.append(n)
            assert not _strong_probable_prime(n, (2,)), n
    assert lucas_pseudoprimes[:2] == [5459, 5777]


def _strong_probable_prime_base_2(n: int) -> bool:
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(2, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_is_prime_rejects_base_2_strong_pseudoprimes():
    # Every odd composite below 10**6 that passes the strong test to base 2,
    # found by brute force over a sieve (a strong pseudoprime is a Fermat one
    # first, which is the cheap filter).
    limit = 10 ** 6
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, limit, i)))
    pseudoprimes = [n for n in range(3, limit, 2) if not sieve[n]
                    and pow(2, n - 1, n) == 1 and _strong_probable_prime_base_2(n)]
    assert pseudoprimes[:3] == [2047, 3277, 4033] and len(pseudoprimes) == 46
    for n in pseudoprimes:
        assert not is_prime(n), n


def test_is_prime_rejects_carmichael_numbers():
    for n in (2465, 2821, 6601, 8911, 41041, 62745, 825265, 321197185):
        factors = trial_factor(n)
        # Korselt: squarefree, and p - 1 divides n - 1 for every prime p | n.
        assert set(factors.values()) == {1} and len(factors) >= 3
        assert all((n - 1) % (p - 1) == 0 for p in factors)
        assert not is_prime(n), n
        assert prime_factors(n) == factors


def test_psi_9():
    # The least strong pseudoprime to the prime bases 2..23; it passes 29 and
    # 31 too, so it is also psi_10 and psi_11.
    psi_9 = 3825123056546413051
    assert not is_prime(psi_9)
    assert prime_factors(psi_9) == {149491: 1, 747451: 1, 34233211: 1}


def test_primes_agree_with_trial_division():
    rng = random.Random(20)
    for _ in range(100):
        n = rng.randrange(2, 10 ** 12)
        factors = trial_factor(n)
        assert is_prime(n) == (factors == {n: 1}), n
        assert prime_factors(n) == factors, n


def _random_prime(rng, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo, hi) | 1
        if trial_factor(n) == {n: 1}:
            return n


def test_semiprimes_of_two_large_factors():
    # Rho splits a product of two primes in [2**20, 2**31], which trial
    # division showed prime, into those primes, smaller first.
    rng = random.Random(21)
    for _ in range(20):
        p, q = sorted(_random_prime(rng, 2 ** 20, 2 ** 31) for _ in range(2))
        assert is_prime(p) and is_prime(q)
        assert not is_prime(p * q)
        factors = list(prime_factors(p * q).items())
        assert factors == ([(p, 2)] if p == q else [(p, 1), (q, 1)])


def test_powers_of_large_primes():
    rng = random.Random(22)
    for _ in range(4):
        p = _random_prime(rng, 2 ** 20, 2 ** 31)
        for k in (2, 3):
            assert not is_prime(p ** k)
            assert prime_factors(p ** k) == {p: k}


def test_many_primes_between_the_trial_limits():
    # Hundreds of primes in (2**12, 2**20) take rho more steps than its
    # budget holds; trial division to 2**20 then factors them, with or
    # without one large prime beside them.
    rng = random.Random(23)
    ps = [_random_prime(rng, 2 ** 12, 2 ** 20) for _ in range(300)]
    above = [p for p in range(2 ** 19 + 1, 2 ** 20, 2) if trial_factor(p) == {p: 1}][:200]
    big = 2 ** 521 - 1
    for n in (math.prod(ps), math.prod(ps[:150]) ** 2, math.prod(above)):
        expected = trial_factor(n)
        assert list(prime_factors(n).items()) == sorted(expected.items())
        assert list(prime_factors(n * big).items()) == sorted(expected.items()) + [(big, 1)]


def test_rho_budget_charges_the_tests_of_each_split(monkeypatch):
    # Rho splits primes just above 2**12 off in a few steps each, but each
    # split's parts are then tested, at up to _TEST_STEPS_PER_BIT steps a
    # bit, and that is charged to the budget too.  So the bits tested after
    # n itself stay within the budget's share, plus the one test that
    # follows trial division to 2**20 when the budget runs out.
    import limext.numutil as numutil

    tested = []
    real_is_prime = numutil.is_prime
    monkeypatch.setattr(numutil, "is_prime", lambda m: tested.append(m) or real_is_prime(m))
    ps = [p for p in range(2 ** 12 + 1, 2 ** 13, 2) if trial_factor(p) == {p: 1}][:300]
    n = math.prod(ps)
    assert prime_factors(n) == dict.fromkeys(ps, 1)
    tested = [m for m in tested if m.bit_length() > 30]     # not exponents
    assert tested[0] == n
    share = numutil._RHO_BUDGET // n.bit_length() // numutil._TEST_STEPS_PER_BIT
    assert sum(m.bit_length() for m in tested[1:]) <= share + len(tested) + n.bit_length()


def test_iroot_against_bisection():
    # Exact powers, powers +-1 and random integers of up to 20,000 bits, with
    # roots long enough for Newton's iteration and short enough to bisect.
    # The bisection oracle takes one step per bit of the root, so roots of
    # more than 2,000 bits are checked on exact powers alone.
    rng = random.Random(1000)
    for k in [2, 3, 5, 7, 64, 97, 500, 900, 1000] + [rng.randint(2, 1000) for _ in range(12)]:
        for bits in (1, k, 3 * k, 20 * k, 97 * k, 20_000):
            if bits > 20_000:
                continue
            root = rng.getrandbits(max(1, bits // k)) | 1
            assert [_iroot(root ** k + e, k) for e in (-1, 0, 1)] == [root - 1, root, root]
            n = rng.getrandbits(bits)
            if bits // k <= 2_000:
                assert _iroot(n, k) == iroot_bisect(n, k), (bits, k)


def test_require_prime():
    assert require_prime(13) == 13
    with pytest.raises(NotPrimeError):
        require_prime(1)
    with pytest.raises(NotPrimeError):
        require_prime(91)


def test_prime_factors_reconstructs():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randint(1, 10 ** 7)
        factors = prime_factors(n)
        assert math.prod(p ** e for p, e in factors.items()) == n
        assert all(is_prime(p) for p in factors)
    with pytest.raises(ValueError):
        prime_factors(0)


def test_prime_factors_desk_scale_boundary():
    p = 1_000_000_007
    assert prime_factors(p) == {p: 1}
    assert prime_factors(p ** 2 * 12) == {2: 2, 3: 1, p: 2}
    big = 2 ** 521 - 1              # a large prime, far beyond trial division
    assert prime_factors(big) == {big: 1}
    assert prime_factors(big ** 3) == {big: 3}
    with pytest.raises(UnsupportedInputError):
        prime_factors((2 ** 61 - 1) * (2 ** 89 - 1))


def test_vp_and_prime_to_p_part():
    assert vp(24, 2) == 3
    assert vp(-45, 3) == 2
    assert prime_to_p_part(24, 2) == 3
    assert prime_to_p_part(-45, 3) == 5
    with pytest.raises(ValueError):
        vp(0, 2)
