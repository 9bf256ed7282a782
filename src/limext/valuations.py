"""p-adic valuations of factorials and binomial coefficients, and the
unit-torsion check in truncated polynomial rings.

The binomial bound proved here by exhaustion is the engine behind the
pro-nilpotence of principal units in Z/p^n-algebras: v_p of C(p^(n+s), u)
exceeds n for every 0 < u < p^s, so raising a principal unit 1 + x (with
x divisible by p) to the power p^(n+s) kills every cross term once p^s >= n.
"""

from __future__ import annotations

from ._record import record
from .errors import BudgetExceededError, DomainError
from .numutil import require_prime


def vp_factorial(p: int, n: int) -> int:
    """v_p(n!) by the floor-sum formula: sum of floor(n / p^i).

    >>> vp_factorial(2, 10)
    8
    >>> vp_factorial(3, 9)
    4
    """
    require_prime(p)
    if n < 0:
        raise DomainError("factorial argument must be nonnegative")
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


def vp_binomial(p: int, z: int, u: int) -> int:
    """v_p of the binomial coefficient C(z, u) via the floor-sum differences.

    Each term floor(z/p^i) - floor(u/p^i) - floor((z-u)/p^i) is 0 or 1; it is
    1 exactly when adding u and z-u carries in base p at position i.

    >>> vp_binomial(2, 8, 2)   # C(8, 2) = 28
    2
    >>> vp_binomial(2, 8, 3)   # C(8, 3) = 56
    3
    """
    require_prime(p)
    if u < 0 or u > z:
        raise DomainError("need 0 <= u <= z")
    total = 0
    q = p
    while q <= z:
        total += z // q - u // q - (z - u) // q
        q *= p
    return total


LEMMA_MAX_ITERATIONS = 2 ** 14
LEMMA_MAX_Z_BITS = 64


def check_binomial_lemma(p: int, n: int, s: int) -> bool:
    """Whether v_p(C(p^(n+s), u)) > n for every u strictly between 0 and p^s.

    This inequality always holds (for z = p^(n+s) the base-p addition of u
    and z - u carries at every position from s through n+s when u < p^s), so
    the check doubles as a theorem verification at the given parameters.

    The check takes p^s - 1 valuations of binomials of z, so before any
    work it is refused with :class:`BudgetExceededError` when p^s exceeds
    2^14 or z needs more than 64 bits.  Within both bounds it returns in
    well under a second.

    >>> check_binomial_lemma(2, 1, 2)
    True
    """
    require_prime(p)
    if n < 1 or s < 1:
        raise DomainError("need n >= 1 and s >= 1")
    # z >= 2^((n+s)(bits(p)-1)), so the first test refuses a huge exponent
    # before p^(n+s) is formed.
    if ((n + s) * (p.bit_length() - 1) >= LEMMA_MAX_Z_BITS
            or (z := p ** (n + s)).bit_length() > LEMMA_MAX_Z_BITS):
        raise BudgetExceededError(f"z = p^(n+s) needs more than {LEMMA_MAX_Z_BITS} bits")
    if p ** s > LEMMA_MAX_ITERATIONS:
        raise BudgetExceededError(
            f"p^s = {p}^{s} iterations exceed the budget of {LEMMA_MAX_ITERATIONS}"
        )
    return all(vp_binomial(p, z, u) > n for u in range(1, p ** s))


@record
class TruncatedPolyRing:
    """The ring (Z/p^n)[y] / (y^(degree_bound+1)).

    A desk-scale stand-in for a local Z/p^n-algebra: elements are coefficient
    tuples of length degree_bound + 1, reduced mod p^n.

    >>> ring = TruncatedPolyRing(2, 2, 8)
    >>> x = ring.principal_unit()          # 1 + 2y
    >>> ring.power(x, 4) == ring.one()
    True
    """

    p: int
    n: int
    degree_bound: int

    def __post_init__(self):
        require_prime(self.p)
        if self.n < 1 or self.degree_bound < 1:
            raise DomainError("need nilpotency modulus >= 1 and degree bound >= 1")

    @property
    def modulus(self) -> int:
        return self.p ** self.n

    def one(self) -> tuple[int, ...]:
        return (1,) + (0,) * self.degree_bound

    def principal_unit(self) -> tuple[int, ...]:
        """The witness element 1 + p*y."""
        coeffs = [1, self.p % self.modulus] + [0] * (self.degree_bound - 1)
        return tuple(coeffs)

    def multiply(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        mod = self.modulus
        out = [0] * (self.degree_bound + 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                if i + j > self.degree_bound:
                    break
                out[i + j] = (out[i + j] + ai * bj) % mod
        return tuple(out)

    def power(self, a: tuple[int, ...], e: int) -> tuple[int, ...]:
        result = self.one()
        base = a
        while e:
            if e & 1:
                result = self.multiply(result, base)
            base = self.multiply(base, base)
            e >>= 1
        return result


def unit_power_check(ring: TruncatedPolyRing, s: int) -> bool:
    """Whether (1 + p*y)^(p^(n+s)) equals 1 in the truncated ring.

    Requires p^s >= n: beyond that threshold the monomial C(p^(n+s), j) p^j y^j
    dies for j >= p^s because p^j vanishes mod p^n, and for 0 < j < p^s
    because of the binomial valuation bound.  The check expands the power by
    exact ring arithmetic, providing a computational witness independent of
    the valuation argument: it takes p-th powers n + s times, and stops once
    the result is one, which stays one.  Every coefficient of y^j, j > 0, in
    (1 + p*y)^(p^k) has valuation at least k + 1 (Kummer), so that happens
    after at most n - 1 powers, and neither p^s nor p^(n+s) is formed.

    >>> unit_power_check(TruncatedPolyRing(2, 2, 8), 1)
    True
    """
    if s < 0:
        raise DomainError("s must be nonnegative")
    ps, k = 1, 0
    while ps < ring.n and k < s:
        ps, k = ps * ring.p, k + 1
    if ps < ring.n:
        raise DomainError(
            f"need p^s >= n, got {ring.p}^{s} < {ring.n}",
            citation="exponent threshold for principal-unit torsion",
        )
    x, one, k = ring.principal_unit(), ring.one(), 0
    while x != one and k < ring.n + s:
        x, k = ring.power(x, ring.p), k + 1
    return x == one
