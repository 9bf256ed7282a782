"""Finitely generated abelian groups in invariant-factor normal form.

A finitely generated abelian group is Z^r + Z/d1 + ... + Z/dk with
d1 | d2 | ... | dk, and that normal form is unique.  :class:`GroupStructure`
stores exactly this data, so group equality is literal equality of the
normalized fields and no isomorphism testing is ever needed.
"""

from __future__ import annotations

from collections import Counter
from math import gcd, prod

from ._record import record
from .errors import DimensionError, DomainError
from .matrices import IntMatrix, smith_diagonal
from .numutil import is_prime, prime_to_p_part, vp


@record
class GroupStructure:
    """Isomorphism type of a finitely generated abelian group.

    ``invariant_factors`` is the divisibility chain (each factor >= 2).
    Build one from an arbitrary bag of cyclic orders with
    :meth:`from_factors`, which merges them primewise:

    >>> GroupStructure.from_factors([2, 3])
    GroupStructure(free_rank=0, invariant_factors=(6,))
    >>> GroupStructure.from_factors([2, 4]).invariant_factors
    (2, 4)
    >>> print(GroupStructure(free_rank=2, invariant_factors=(2, 6)))
    Z^2 x C2 x C6

    The trivial group prints as 0:

    >>> print(GroupStructure())
    0
    """

    free_rank: int = 0
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise DomainError("free rank must be nonnegative")
        for d in self.invariant_factors:
            if d < 2:
                raise DomainError("invariant factors must be >= 2")
        for a, b in zip(self.invariant_factors, self.invariant_factors[1:]):
            if b % a:
                raise DomainError(
                    f"invariant factors must form a divisibility chain, got {a} before {b}"
                )

    @classmethod
    def from_factors(cls, factors, free_rank: int = 0) -> "GroupStructure":
        """Normalize arbitrary cyclic orders into the invariant-factor chain.

        Zero factors count toward the free rank; order-1 factors vanish.
        Nothing is factored: the orders are split over a pairwise coprime
        base (see :func:`_coprime_base`), and the i-th largest exponent at
        each base element multiplies into the i-th largest invariant
        factor.  Every prime divides exactly one base element b, and its
        valuation in each order is a fixed multiple of the exponent at b,
        so this is the primewise merge without the primes.
        """
        counts = Counter(abs(int(d)) for d in factors)
        rank = free_rank + counts.pop(0, 0)
        counts.pop(1, None)
        exponents: dict[int, list[int]] = {b: [] for b in _coprime_base(counts)}
        for d, count in counts.items():
            for b, es in exponents.items():
                if d == 1:
                    break
                e = 0
                while d % b == 0:
                    d //= b
                    e += 1
                if e:
                    es += [e] * count
        chain = [1] * max(map(len, exponents.values()), default=0)
        for b, es in exponents.items():
            es.sort(reverse=True)
            for i, e in enumerate(es):
                chain[i] *= b ** e
        chain.reverse()
        return cls(free_rank=rank, invariant_factors=tuple(chain))

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        return prod(self.invariant_factors) if self.invariant_factors else 1

    def is_p_group(self, p: int) -> bool:
        """Whether the group is finite of p-power order (only the trivial
        group when p is not prime)."""
        if self.free_rank:
            return False
        if not is_prime(p):
            return not self.invariant_factors
        return all(prime_to_p_part(d, p) == 1 for d in self.invariant_factors)

    def p_exponents(self, p: int) -> tuple[int, ...]:
        """Exponent partition of the p-primary part, sorted descending
        (empty when p is not prime)."""
        if not is_prime(p):
            return ()
        exps = (vp(d, p) for d in self.invariant_factors)
        return tuple(sorted((e for e in exps if e), reverse=True))

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"C{d}" for d in self.invariant_factors)
        return " x ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {
            "free_rank": str(self.free_rank),
            "invariant_factors": [str(d) for d in self.invariant_factors],
        }

    @classmethod
    def from_json(cls, data: dict) -> "GroupStructure":
        return cls.from_factors(
            [int(d) for d in data.get("invariant_factors", [])],
            free_rank=int(data.get("free_rank", 0)),
        )


TRIVIAL_GROUP = GroupStructure()


def _coprime_base(orders) -> list[int]:
    """Pairwise coprime integers >= 2 of which every order is a product of
    powers, found with gcds alone.

    Two elements x, b sharing g = gcd(x, b) > 1 are replaced by g and
    what is left of x and of b once every factor g is divided out, dropping
    1s (the refinement step of Bernstein, "Factoring into coprimes in
    essentially linear time", J. Algorithms 2005; dividing out every factor
    g at once splits p**k against p in one step).  Each step divides the
    product of all elements by at least g, so the loop ends.

    >>> sorted(_coprime_base([12, 18]))
    [2, 3]
    >>> sorted(_coprime_base([6, 35]))
    [6, 35]
    """
    base: list[int] = []
    pending = [d for d in orders if d > 1]
    while pending:
        x = pending.pop()
        for i, b in enumerate(base):
            g = gcd(x, b)
            if g > 1:
                base[i] = base[-1]
                base.pop()
                pending.append(g)
                for y in (x, b):
                    while y % g == 0:
                        y //= g
                    if y > 1:
                        pending.append(y)
                break
        else:
            base.append(x)
    return base


@record
class GroupPresentation:
    """A group given by generators and integer relation rows.

    Each row of ``relations`` is one relation among the ``generators``
    standard generators of Z^n; the presented group is Z^n modulo the row
    span.

    >>> pres = GroupPresentation(2, IntMatrix.from_rows([[2, 0]]))
    >>> print(pres.structure())
    Z x C2
    """

    generators: int
    relations: IntMatrix

    def __post_init__(self):
        if self.relations.cols != self.generators:
            raise DimensionError(
                f"relation matrix has {self.relations.cols} columns "
                f"but there are {self.generators} generators"
            )

    def structure(self) -> GroupStructure:
        # The presenting map is the transpose of the relation matrix, and a
        # matrix and its transpose have the same Smith diagonal.
        return _from_diagonal(smith_diagonal(self.relations), self.generators)


def cokernel_structure(m: IntMatrix) -> GroupStructure:
    """Structure of Z^rows / (column span of m).

    >>> print(cokernel_structure(IntMatrix.from_rows([[2, 4], [6, 8]])))
    C2 x C4
    >>> cokernel_structure(IntMatrix.zero(2, 3)).free_rank
    2
    """
    return _from_diagonal(smith_diagonal(m), m.rows)


def _from_diagonal(diag: list[int], generators: int) -> GroupStructure:
    # Z^generators modulo a lattice with Smith diagonal ``diag``.
    rank = sum(1 for x in diag if x != 0)
    return GroupStructure(
        free_rank=generators - rank,
        invariant_factors=tuple(x for x in diag if x >= 2),
    )


def direct_sum(*groups: GroupStructure) -> GroupStructure:
    """Direct sum, renormalized to the invariant-factor chain.

    >>> direct_sum(GroupStructure.from_factors([2]), GroupStructure.from_factors([3]))
    GroupStructure(free_rank=0, invariant_factors=(6,))
    """
    factors = []
    rank = 0
    for g in groups:
        rank += g.free_rank
        factors.extend(g.invariant_factors)
    return GroupStructure.from_factors(factors, free_rank=rank)


def finite_coefficients(a: GroupStructure, m: int) -> tuple[GroupStructure, GroupStructure]:
    """The pair (A/mA, m-torsion of A) for a finitely generated A.

    Both are finite, and |A/mA| = |mA-torsion| * m^free_rank: each Z summand
    contributes Z/m to the quotient and nothing to the torsion, while a Z/d
    summand contributes Z/gcd(d, m) to both.

    >>> q, t = finite_coefficients(GroupStructure.from_factors([4]), 2)
    >>> print(q, "|", t)
    C2 | C2
    """
    if m < 1:
        raise DomainError("modulus must be >= 1 (m = 0 rejected)")
    quotient = [m] * a.free_rank + [gcd(d, m) for d in a.invariant_factors]
    torsion = [gcd(d, m) for d in a.invariant_factors]
    return GroupStructure.from_factors(quotient), GroupStructure.from_factors(torsion)
