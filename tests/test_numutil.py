import math
import random

import pytest

from limext.errors import NotPrimeError
from limext.numutil import is_prime, prime_factors, prime_to_p_part, require_prime, vp


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
    from limext.errors import UnsupportedInputError

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
