"""Rank-1 torsion-free groups inside Q and their Ext groups against Z.

A rank-1 torsion-free group is, up to isomorphism, the subgroup of Q
generated by the fractions p^{-j} for j <= e_p, one exponent e_p in
{0, 1, 2, ..., infinity} per prime p.  :class:`EProfile` records the
exponent function with a finite description: a default value plus finitely
many exceptions.

The whole classification of Ext(M, Z) depends only on which exponents are
finite: if every e_p is finite and almost all vanish the group is free and
Ext vanishes; otherwise Ext is a Q-vector space of continuum dimension plus
one Pruefer summand for every prime with finite exponent.
"""

from __future__ import annotations

import math

from ._record import record
from .descriptors import (
    CONTINUUM,
    ZERO_CARDINAL,
    ZERO_DESCRIPTOR,
    ExtCardinal,
    GroupDescriptor,
    PrimeMultiplicity,
)
from .errors import DomainError, UnsupportedInputError
from .fg_groups import GroupStructure
from .numutil import prime_factors, require_prime

INFINITE = math.inf
_ONE = ExtCardinal(1)


def _normalize_exponent(e) -> int | float:
    if e == INFINITE or e == "inf":
        return INFINITE
    e = int(e)
    # Negative exponents shift the group by a finite amount inside Q and do
    # not change the isomorphism type; they are clamped away.
    return max(e, 0)


@record
class EProfile:
    """Exponent function p -> e_p describing a rank-1 subgroup of Q.

    ``default`` applies to all primes without an exception entry and is
    restricted to {0, 1, infinity}: only the finiteness of the exponents
    matters to the classification, so an arbitrary finite default collapses
    to 1.  Exception values are arbitrary nonnegative integers or infinity.

    >>> is_free(EProfile.build(0))
    True
    >>> zp = EProfile.localized_profile(5)   # all primes but 5 inverted
    >>> zp.at(5), zp.at(7)
    (0, inf)
    """

    default: int | float = 0
    exceptions: tuple[tuple[int, int | float], ...] = ()

    @classmethod
    def build(cls, default=0, exceptions=None) -> "EProfile":
        default = _normalize_exponent(default)
        if default not in (0, 1, INFINITE):
            default = 1
        cleaned = {}
        for p, e in (exceptions or {}).items():
            p = require_prime(int(p), "profile prime")
            e = _normalize_exponent(e)
            if e != default:
                cleaned[p] = e
        return cls(default, tuple(sorted(cleaned.items())))

    @classmethod
    def z_profile(cls) -> "EProfile":
        return cls.build(0)

    @classmethod
    def inverted_profile(cls, primes) -> "EProfile":
        """Profile of Z[S^-1]: infinite exponent exactly on S."""
        return cls.build(0, {p: INFINITE for p in primes})

    @classmethod
    def localized_profile(cls, p: int) -> "EProfile":
        """Profile of Z localized at p: every prime except p inverted."""
        return cls.build(INFINITE, {p: 0})

    def at(self, p: int) -> int | float:
        for q, e in self.exceptions:
            if q == p:
                return e
        return self.default

    def to_json(self) -> dict:
        def enc(e):
            return "inf" if e == INFINITE else int(e)

        return {
            "default": enc(self.default),
            "exceptions": {str(p): enc(e) for p, e in self.exceptions},
        }

    @classmethod
    def from_json(cls, data: dict) -> "EProfile":
        return cls.build(
            data.get("default", 0),
            {int(p): e for p, e in data.get("exceptions", {}).items()},
        )


def eprofile_from_multipliers(prefix, period) -> EProfile:
    """Exponent profile of the colimit of Z along a multiplier sequence.

    ``prefix`` is consumed once, ``period`` repeats forever (an empty period
    means an all-ones tail).  A prime dividing some period entry is inverted
    completely (infinite exponent); primes dividing only prefix entries pick
    up a finite exponent, which is then absorbed because adding a finite
    amount to finitely many finite exponents does not change the isomorphism
    type.

    >>> eprofile_from_multipliers([], [6]).at(2)
    inf
    >>> eprofile_from_multipliers([6], [5]) == EProfile.inverted_profile([5])
    True
    >>> eprofile_from_multipliers([], [1]) == EProfile.z_profile()
    True
    """
    for seq_name, seq in (("prefix", prefix), ("period", period)):
        for a in seq:
            if int(a) == 0:
                raise DomainError(f"zero multiplier in {seq_name}")
    inverted = set()
    for a in period:
        a = abs(int(a))
        if a > 1:
            inverted |= set(prime_factors(a))
    return EProfile.build(0, {p: INFINITE for p in inverted})


def is_free(m: EProfile) -> bool:
    """Whether the group is isomorphic to Z.

    True exactly when the default exponent is 0 and every exception is
    finite: finitely many finite exponents generate a cyclic subgroup of Q.

    >>> is_free(EProfile.build(0, {2: 3}))
    True
    >>> is_free(EProfile.build(1))
    False
    """
    return m.default == 0 and all(e != INFINITE for _, e in m.exceptions)


def hom_to_z(m: EProfile) -> GroupStructure:
    """Hom(M, Z): Z when M is free, zero otherwise.

    A nonfree rank-1 group has elements of unbounded divisibility, and any
    homomorphism to Z must kill them.
    """
    return GroupStructure(free_rank=1) if is_free(m) else GroupStructure()


def ext_to_z(m: EProfile) -> GroupDescriptor:
    """Ext(M, Z) for a rank-1 torsion-free M.

    Zero when M is free.  Otherwise a Q-vector space of continuum dimension
    plus Pruefer summands: one copy of the Pruefer group at p when e_p is
    finite, none when e_p is infinite.  The three landmark torsion parts:

    >>> ext_to_z(EProfile.inverted_profile([7])).pruefer == \\
    ...     PrimeMultiplicity.build(1, {7: 0})      # Q/Z minus its 7-part
    True
    >>> ext_to_z(EProfile.localized_profile(7)).pruefer == \\
    ...     PrimeMultiplicity.build(0, {7: 1})      # the Pruefer group at 7
    True
    >>> ext_to_z(EProfile.build(1)).pruefer == PrimeMultiplicity.build(1)  # Q/Z
    True
    """
    if is_free(m):
        return ZERO_DESCRIPTOR
    # The profile is normalized (sorted exceptions at proven primes), so the
    # result is built directly: an exception survives where the finiteness
    # of e_p differs from the default's, and then it is the other of 0 and 1.
    finite = m.default != INFINITE
    default, other = (_ONE, ZERO_CARDINAL) if finite else (ZERO_CARDINAL, _ONE)
    return GroupDescriptor(rational=CONTINUUM, pruefer=PrimeMultiplicity(default, tuple(
        (p, other) for p, e in m.exceptions if (e != INFINITE) != finite
    )))


def quotient_mod_z(m: EProfile) -> GroupDescriptor:
    """The quotient M/Z: one cyclic factor Z/p^{e_p} per finite exponent,
    one Pruefer group per infinite exponent.

    A finite nonzero default would mean infinitely many nontrivial cyclic
    factors, which the block language cannot express, so it is rejected.

    >>> print(quotient_mod_z(EProfile.inverted_profile([2, 3])))
    Pruefer(2) + Pruefer(3)
    >>> quotient_mod_z(EProfile.z_profile()).is_zero()
    True
    """
    if m.default not in (0, INFINITE):
        raise UnsupportedInputError(
            "finite nonzero default exponent gives infinitely many cyclic "
            "factors; not representable",
        )
    # build drops the order-1 factors (e_p = 0) and the exceptions that
    # equal the default.
    return GroupDescriptor.build(
        cyclic=[p ** e for p, e in m.exceptions if e != INFINITE],
        pruefer=PrimeMultiplicity.build(
            int(m.default == INFINITE), {p: int(e == INFINITE) for p, e in m.exceptions}
        ),
    )
