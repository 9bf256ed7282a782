"""Small exact number-theory helpers shared across the package."""

from __future__ import annotations

from math import gcd, isqrt

from .errors import NotPrimeError, UnsupportedInputError

# Miller-Rabin to the prime bases 2..41 is proven exact below
# psi_13 = 3317044064679887385961981 (about 3.3 * 10**24), the least strong
# pseudoprime to all of them (Sorenson and Webster 2017); 2..37 alone pass
# psi_12 = 318665857834031151167461.  No fixed base set is exact above
# that: composites built to pass one exist (Arnault 1995).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact below psi_13.  From psi_13 up, a Baillie-PSW probable prime: a
    strong probable prime to base 2 and a strong Lucas probable prime with
    Selfridge's parameters (Baillie and Wagstaff 1980).  No composite is
    known to pass both, and none below 2**64 does."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 43 * 43:
        # A composite this small has a prime factor below 43.
        return True
    if n < _PSI_13:
        return _strong_probable_prime(n, _MR_BASES)
    return _strong_probable_prime(n, (2,)) and _strong_lucas_probable_prime(n)


def _strong_probable_prime(n: int, bases) -> bool:
    """Whether odd n > 2 passes the strong (Miller-Rabin) test to every base."""
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas test of odd n > 2 with Selfridge's parameters: D is
    the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1, Q = (1 - D)/4.
    Write n + 1 = d * 2**s with d odd; n passes when U_d = 0 or
    V_{d * 2**r} = 0 (mod n) for some 0 <= r < s."""
    if isqrt(n) ** 2 == n:
        return False        # no D has (D/n) = -1
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and gcd(D, n) != n:
            return False    # D shares a proper factor with n
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    half = (n + 1) // 2     # the inverse of 2 mod n
    # U_k, V_k and Q**k mod n, from k = 1 up along the bits of d.
    u, v, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = (u + v) * half % n, (D * u + v) * half % n, qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def require_prime(p: int, what: str = "modulus") -> int:
    if not isinstance(p, int) or not is_prime(p):
        raise NotPrimeError(f"{what} must be a prime number, got {p!r}")
    return p


_TRIAL_LIMIT = 1 << 20


def prime_factors(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}.

    Trial division up to about a million, then a primality test on the
    remainder.  Fine at desk scale and for large prime or near-prime
    inputs; a remainder with two huge prime factors is rejected rather than
    ground at.  Call it only where primes are the answer: normalising cyclic
    orders needs none (see ``GroupStructure.from_factors``).
    """
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n and f < _TRIAL_LIMIT:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        if f * f <= n and not is_prime(n):
            # Perfect powers of a large prime still factor cheaply.
            root, exp = _perfect_prime_power(n)
            if root is None:
                raise UnsupportedInputError(
                    f"factorization beyond desk scale: remaining factor {n}"
                )
            out[root] = out.get(root, 0) + exp
        else:
            out[n] = out.get(n, 0) + 1
    return out


def _iroot(n: int, k: int) -> int:
    # Floor k-th root by integer Newton iteration.
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_prime_power(n: int):
    for exp in range(2, n.bit_length()):
        root = _iroot(n, exp)
        for candidate in (root, root + 1):
            if candidate > 1 and candidate ** exp == n and is_prime(candidate):
                return candidate, exp
    return None, None


def vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("v_p(0) is not defined")
    n = abs(n)
    v = 0
    while n % p == 0:
        v += 1
        n //= p
    return v


def prime_to_p_part(n: int, p: int) -> int:
    """Largest divisor of |n| coprime to p."""
    return abs(n) // p ** vp(n, p)
