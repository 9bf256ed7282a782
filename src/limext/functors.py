"""Block-wise additive functors on group descriptors.

Every operation here is determined by its value on the basic blocks and
extended additively over direct sums.  Finite-block values are verified
against exhaustive computation in explicit cyclic groups by the test suite;
infinite-block values carry written derivations in docs/derivations.md, whose
machine-readable appendix the test suite checks against this module.

The recurring theme is the multiplication-by-p inverse system (G, p):
``... -> G -p-> G -p-> G``.  Its limit, first derived limit, and the
auxiliary systems of torsion subgroups and power images fit into a six-term
exact sequence, computed by :func:`six_term_mult_p`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .descriptors import (
    CONTINUUM,
    GroupDescriptor,
    PrimeMultiplicity,
    ZERO_DESCRIPTOR,
)
from .errors import ContinuumError, DomainError, ModuleHypothesisError
from .fg_groups import GroupStructure, direct_sum, finite_coefficients
from .numutil import prime_factors, prime_to_p_part, require_prime


def tate_module(g: GroupDescriptor, p: int) -> GroupDescriptor:
    """The p-adic Tate module: limit of the p-power torsion under times-p.

    Only Pruefer blocks at p contribute; each such copy has torsion tower
    Z/p^j with surjective transitions, whose limit is the p-adic integers.
    Finitely generated, torsion-free, and prime-to-p blocks have no p-power
    torsion tower at all.

    >>> print(tate_module(GroupDescriptor.pruefer_group(5), 5))
    Zp(5)
    >>> tate_module(GroupDescriptor.q_mod_z(), 3) == GroupDescriptor.padic_integers(3)
    True
    """
    require_prime(p)
    n = g.pruefer.at(p)
    if n.is_continuum:
        raise ContinuumError(
            "the Tate module of continuum-many Pruefer copies is not "
            "expressible in the block language",
        )
    return GroupDescriptor.build(padic={p: n.value})


def max_p_divisible(g: GroupDescriptor, p: int) -> GroupDescriptor:
    """The maximal p-divisible subgroup, block by block.

    A block survives exactly when multiplication by p is onto it: Q and every
    Pruefer group are p-divisible; Z[S^-1] is p-divisible iff p is inverted;
    Z localized at q and the q-adic integers are p-divisible iff q != p; a
    finite cyclic block contributes its prime-to-p part.

    >>> max_p_divisible(GroupDescriptor.localized(5), 5).is_zero()
    True
    >>> print(max_p_divisible(GroupDescriptor.cyclic_group(12), 2))
    C3
    """
    require_prime(p)
    return GroupDescriptor.build(
        cyclic=[prime_to_p_part(m, p) for m in g.cyclic],
        local={q: c for q, c in g.local if q != p},
        inverted=[(s, c) for s, c in g.inverted if p in s],
        rational=g.rational,
        pruefer=g.pruefer,
        padic={q: c for q, c in g.padic if q != p},
    )


def finite_coefficients_descriptor(
    g: GroupDescriptor, p: int, j: int = 1
) -> tuple[GroupStructure, GroupStructure]:
    """The pair (G / p^j G, p^j-torsion of G) as finite groups.

    Blocks where p is not invertible and which are p-adically separated
    (Z, Z_(p), Z[S^-1] with p outside S, and abstract Z_p) count as Z and,
    with the cyclic blocks, go through :func:`finite_coefficients`;
    divisible blocks contribute nothing to the quotient; the Pruefer group at
    p contributes Z/p^j torsion.

    Rejects continuum multiplicity exactly where it would make the result
    not finitely describable: continuum-many Pruefer copies at p.  A Q block
    of continuum dimension contributes nothing to either side and passes.

    >>> q, t = finite_coefficients_descriptor(GroupDescriptor.cyclic_group(125), 5, 2)
    >>> print(q, "|", t)
    C25 | C25
    """
    require_prime(p)
    if j < 1:
        raise DomainError("torsion exponent must be >= 1")
    pruefer_p = g.pruefer.at(p)
    if pruefer_p.is_continuum:
        raise ContinuumError(
            "continuum-many Pruefer copies at p have torsion that is not "
            "finitely describable",
        )
    separated = g.free_rank + g.local_count(p) + g.padic_count(p)
    separated += sum(c for s, c in g.inverted if p not in s)
    pj = p ** j
    quotient, torsion = finite_coefficients(GroupStructure(separated, g.cyclic), pj)
    pruefer_torsion = GroupStructure.from_factors([pj] * pruefer_p.value)
    return quotient, direct_sum(torsion, pruefer_torsion)


def lim1_mult_p(g: GroupDescriptor, p: int) -> GroupDescriptor:
    """First derived limit of the multiplication-by-p system on G.

    The system is Mittag-Leffler (so the derived limit vanishes) whenever p
    acts invertibly or surjectively on a block, and for finite blocks.  The
    nonvanishing cases are quotients of the p-adic integers by a dense
    subgroup D, which decompose as a uniquely divisible continuum group plus
    the torsion of Z_p/D:

    * D = Z:        Q^continuum + (Q/Z with the p-part removed)
    * D = Z_(p):    Q^continuum  (uniquely divisible)
    * D = Z[S^-1],  p not in S:  Q^continuum + (Q/Z minus the parts at
      S and p); the S-primary torsion dies because S is invertible in D.

    >>> lim1_mult_p(GroupDescriptor.localized(3), 3) == GroupDescriptor.rationals(CONTINUUM)
    True
    >>> lim1_mult_p(GroupDescriptor.rationals(), 3).is_zero()
    True
    """
    require_prime(p)
    out = ZERO_DESCRIPTOR
    if g.free_rank:
        out += GroupDescriptor.build(
            rational=CONTINUUM,
            pruefer=PrimeMultiplicity.build(g.free_rank, {p: 0}),
        )
    if g.local_count(p):
        out += GroupDescriptor.rationals(CONTINUUM)
    for s, c in g.inverted:
        if p not in s:
            out += GroupDescriptor.build(
                rational=CONTINUUM,
                pruefer=PrimeMultiplicity.build(c, {q: 0 for q in s + (p,)}),
            )
    return out


@dataclass(frozen=True)
class SixTermSequence:
    """The six-term exact sequence of the multiplication-by-p system.

    0 -> tate -> lim -> lim_power_images
      -> lim1_torsion -> lim1 -> lim1_power_images -> 0

    The terms come from the standalone functors (see :func:`six_term_mult_p`),
    so ``consistency_issues`` is always empty and ``consistent`` always true;
    both stay in the record and its JSON form.  They check nothing at
    runtime: the evidence for the block rules is the test suite's frozen
    appendix, its truncated towers, and the Ext cross-check of ``lim1``.
    """

    prime: int
    tate: GroupDescriptor
    lim: GroupDescriptor
    lim_power_images: GroupDescriptor
    lim1_torsion: GroupDescriptor
    lim1: GroupDescriptor
    lim1_power_images: GroupDescriptor
    consistency_issues: tuple[str, ...] = ()

    @property
    def consistent(self) -> bool:
        return not self.consistency_issues

    def terms(self) -> tuple[GroupDescriptor, ...]:
        return (
            self.tate,
            self.lim,
            self.lim_power_images,
            self.lim1_torsion,
            self.lim1,
            self.lim1_power_images,
        )

    def to_json(self) -> dict:
        names = (
            "tate", "lim", "lim_power_images",
            "lim1_torsion", "lim1", "lim1_power_images",
        )
        return {
            "p": str(self.prime),
            "terms": {n: t.to_json() for n, t in zip(names, self.terms())},
            "consistent": self.consistent,
            "consistency_issues": list(self.consistency_issues),
        }


def six_term_mult_p(g: GroupDescriptor, p: int) -> SixTermSequence:
    """All six terms of the derived-limit sequence for (G, times p).

    Each term is built from the standalone functor that owns its block rule:
    term 1 is the Tate module, term 3 the maximal p-divisible subgroup (for
    the representable blocks the intersection of p-power images is already
    divisible), term 2 is term 3 with Pruefer at p replaced by its universal
    cover, term 4 vanishes on every representable block, and terms 5 and 6
    are both :func:`lim1_mult_p`.  The record is therefore consistent by
    construction; the evidence for the rules is in the test suite.

    >>> seq = six_term_mult_p(GroupDescriptor.free(), 2)
    >>> seq.consistent and seq.lim.is_zero()
    True
    >>> print(six_term_mult_p(GroupDescriptor.pruefer_group(3), 3).lim)
    Q^continuum
    """
    require_prime(p)
    pruefer_p = g.pruefer.at(p)
    if pruefer_p.is_continuum:
        raise ContinuumError(
            "six-term sequence undefined: Tate module of continuum-many "
            "Pruefer copies is not expressible in the block language",
        )
    # Term 3, the intersection of the p^j G, keeps Pruefer at p.  Term 2, the
    # limit of (G, p), replaces it by its universal cover, a Q-vector space
    # of continuum dimension; every other block agrees with term 3.
    power_images = max_p_divisible(g, p)
    lim = power_images
    if not pruefer_p.is_zero:
        lim = replace(
            lim,
            rational=CONTINUUM,
            pruefer=PrimeMultiplicity.build(
                g.pruefer.default, dict(g.pruefer.exceptions) | {p: 0}
            ),
        )
    # Term 4: the torsion towers are finite (hence Mittag-Leffler) for cyclic
    # blocks and for Pruefer at p, and empty for everything else.  Terms 5
    # and 6: p^j G with inclusions is isomorphic, as a pro-system, to (G, p)
    # itself in every representable block, so both derived limits agree.
    lim1 = lim1_mult_p(g, p)
    return SixTermSequence(
        prime=p,
        tate=tate_module(g, p),
        lim=lim,
        lim_power_images=power_images,
        lim1_torsion=ZERO_DESCRIPTOR,
        lim1=lim1,
        lim1_power_images=lim1,
    )


def completion_cokernel(
    g_i: GroupDescriptor, g_next: GroupDescriptor, p: int
) -> GroupDescriptor:
    """Cokernel of the p-completion comparison map in degree i.

    For a module on which every prime other than p that could split off a
    free or S-inverted direct summand acts invertibly, the cokernel splits as
    the direct sum of the Tate module of the next degree and the uniquely
    p-divisible derived limit of the current degree.  The splitting is only
    asserted under that hypothesis, so descriptors with Z blocks or Z[S^-1]
    blocks not inverting p are rejected rather than silently summed.

    >>> out = completion_cokernel(
    ...     GroupDescriptor.localized(5), GroupDescriptor.pruefer_group(5), 5)
    >>> print(out)
    Q^continuum + Zp(5)
    """
    require_prime(p)
    if g_i.free_rank:
        raise ModuleHypothesisError(
            "input has free Z blocks; the splitting is only asserted for "
            "modules over the localization at p",
            citation="completion cokernel splitting hypothesis",
        )
    for s, _ in g_i.inverted:
        if p not in s:
            raise ModuleHypothesisError(
                f"input has a Z[S^-1] block with p = {p} not in S; the "
                "splitting is only asserted for modules over the localization at p",
                citation="completion cokernel splitting hypothesis",
            )
    return tate_module(g_next, p) + lim1_mult_p(g_i, p)


def extension_classes(d: GroupDescriptor, f: GroupStructure) -> set[GroupDescriptor]:
    """All extensions of a divisible group by a finite group, up to isomorphism.

    An extension of a divisible D by a finite F is D plus a quotient of F,
    so the answer is exactly {D + F' : F' a quotient of F}.  Quotients of a
    finite abelian group are enumerated primewise: the quotients of a p-group
    with exponent partition lambda are the p-groups whose partition is
    dominated entrywise by lambda.

    >>> out = extension_classes(GroupDescriptor.rationals(), GroupStructure.from_factors([4]))
    >>> sorted(str(e) for e in out)
    ['C2 + Q', 'C4 + Q', 'Q']
    """
    if not d.is_divisible():
        raise DomainError(
            "first summand must be divisible (only Q and Pruefer blocks)",
        )
    if not f.is_finite():
        raise DomainError("second summand must be finite")
    return {
        d + GroupDescriptor.from_structure(q) for q in finite_quotients(f)
    }


def finite_quotients(f: GroupStructure) -> set[GroupStructure]:
    """Isomorphism classes of quotients of a finite abelian group.

    >>> sorted(str(q) for q in finite_quotients(GroupStructure.from_factors([6])))
    ['0', 'C2', 'C3', 'C6']
    """
    if not f.is_finite():
        raise DomainError("quotient enumeration needs a finite group")
    primes = set()
    for m in f.invariant_factors:
        primes |= set(prime_factors(m))
    per_prime: list[list[tuple[int, tuple[int, ...]]]] = []
    for p in sorted(primes):
        lam = f.p_exponents(p)
        per_prime.append([(p, mu) for mu in _dominated_partitions(lam)])
    results = {GroupStructure()}
    for options in per_prime:
        results = {
            _with_p_part(g, p, mu) for g in results for p, mu in options
        }
    return results


def _dominated_partitions(lam: tuple[int, ...]) -> list[tuple[int, ...]]:
    # All partitions mu (weakly decreasing) with mu_i <= lam_i entrywise.
    out: list[tuple[int, ...]] = []

    def rec(i: int, prev: int, acc: tuple[int, ...]):
        out.append(acc)
        if i == len(lam):
            return
        for v in range(1, min(lam[i], prev) + 1):
            rec(i + 1, v, acc + (v,))

    rec(0, lam[0] if lam else 0, ())
    return out


def _with_p_part(g: GroupStructure, p: int, mu: tuple[int, ...]) -> GroupStructure:
    factors = list(g.invariant_factors) + [p ** e for e in mu]
    return GroupStructure.from_factors(factors)
