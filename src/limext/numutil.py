"""Small exact number-theory helpers shared across the package."""

from __future__ import annotations

from itertools import count
from math import gcd, isqrt, prod

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


_TRIAL_LIMIT = 1 << 12
# When rho's step budget runs out, trial division goes on to here, so that
# every integer whose part past 2**20 is 1, a prime or a prime power is
# factored however many primes it has below 2**20.
_TRIAL_CEILING = 1 << 20
# Brent's rho takes at most this many steps divided by the bit length of
# what trial division leaves (at least 128): 2**21 steps up to 128 bits,
# fewer beyond, since a step squares an integer of that length.
_RHO_BUDGET = 1 << 28
# Testing both parts of a split m for being a prime or a prime power costs
# up to about this many steps per bit of m (a strong base-2 and a Lucas
# test, when one part is a prime of nearly m's size), charged to the same
# budget.
_TEST_STEPS_PER_BIT = 5


def prime_factors(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}, primes ascending.

    Trial division below 2**12, then a primality test, a perfect-power test
    and Brent's rho on what remains, under one step budget.  Rho splits off
    prime factors up to about 2**38 within the budget.  If the budget runs
    out, trial division goes on to 2**20 and what is left must be a prime
    or a prime power; any other remainder is rejected rather than ground
    at.  Call it only where primes are the answer: normalising cyclic
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
    n, f = _trial_divide(n, 5, _TRIAL_LIMIT, out)
    if f * f <= n:
        return _large_prime_factors(n, f, out)
    if n > 1:
        out[n] = 1
    return out


def _trial_divide(n: int, f: int, limit: int, out: dict[int, int]):
    """Divide the primes from f (5 mod 6) below about limit out of n into
    out.  Returns what is left and where the search stopped: at limit, or
    once f * f exceeds what is left, which is then 1 or a prime."""
    while f * f <= n and f < limit:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    return n, f


class _OutOfSteps(Exception):
    """Rho's step budget ran out."""


def _large_prime_factors(n: int, f: int, out: dict[int, int]) -> dict[int, int]:
    """``out``, the primes below f of some integer, with those of n added,
    primes ascending.  n > 1 has no prime factor below f, where trial
    division stopped at ``_TRIAL_LIMIT``."""
    steps = _RHO_BUDGET // max(n.bit_length(), 128)
    todo = [(n, 1)]
    try:
        while todo:
            m, e = todo[-1]
            if _add_prime_power(m, e, out):
                todo.pop()
                continue
            d, steps = _brent_rho(m, steps)
            steps = _spend(steps, _TEST_STEPS_PER_BIT * m.bit_length())
            todo[-1:] = [(d, e), (m // d, e)]
    except _OutOfSteps:
        # What is unsplit is trial-divided on to 2**20 and must then be 1, a
        # prime or a prime power.  A lone unsplit entry that loses nothing to
        # trial division has been tested already.
        rest = prod(m ** e for m, e in todo)
        left, _ = _trial_divide(rest, f, _TRIAL_CEILING, out)
        if left > 1 and (left == rest and len(todo) == 1
                         or not _add_prime_power(left, 1, out)):
            raise UnsupportedInputError(
                f"factorization beyond desk scale: remaining factor {left}"
            ) from None
    return dict(sorted(out.items()))


def _add_prime_power(m: int, e: int, out: dict[int, int]) -> bool:
    """Whether m > 1, with no prime factor below ``_TRIAL_LIMIT``, is p**k
    for a prime p; if so, p gains e * k in out."""
    if is_prime(m):
        p, k = m, 1
    else:
        # rho cannot split the power of a large prime, but this finds it.
        p, k = _perfect_prime_power(m)
        if p is None:
            return False
    out[p] = out.get(p, 0) + e * k
    return True


def _brent_rho(n: int, steps: int) -> tuple[int, int]:
    """A proper divisor of n, an odd composite that is not a prime power, and
    the steps left of ``steps``.  Brent's rho (BIT 1980) iterates
    x -> x*x + c from x = 2 for c = 1, 2, ... in turn, so the same n always
    takes the same path; it multiplies 128 differences before each gcd, and
    steps back one at a time when a batch gives n itself."""
    for c in count(1):          # ends when a c splits n or the steps run out
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            steps = _spend(steps, r)
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys, batch = y, min(128, r - k)
                steps = _spend(steps, batch)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += batch
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g, steps


def _spend(steps: int, cost: int) -> int:
    """The steps left after ``cost`` more; ``_OutOfSteps`` if too few are left."""
    if cost > steps:
        raise _OutOfSteps
    return steps - cost


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
    """(p, e) with n = p**e, p prime and e >= 2, or (None, None), for n with
    no prime factor below _TRIAL_LIMIT: so p**e >= _TRIAL_LIMIT**e bounds e.
    Prime exponents suffice, since p**e is the q-th power of p**(e/q) for
    any prime q dividing e, and that root is a prime power exactly when n is.
    """
    for exp in range(2, (n.bit_length() - 1) // (_TRIAL_LIMIT.bit_length() - 1) + 1):
        if not is_prime(exp):
            continue
        root = _iroot(n, exp)
        for candidate in (root, root + 1):
            if candidate ** exp == n:
                if is_prime(candidate):
                    return candidate, exp
                p, e = _perfect_prime_power(candidate)
                return (p, e * exp) if p else (None, None)
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
