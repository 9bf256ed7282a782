"""Inverse systems of free finitely generated groups and their derived limits.

The representable class is: finitely many arbitrary square transition
matrices with nonzero determinant (the prefix), followed by an eventually
periodic diagonal tail.  Nonzero determinants mean every transition map has
finite cokernel, and a diagonal tail splits the system into rank-1
coordinate systems, where the derived limit is completely classified.

The restriction to diagonal tails is deliberate: for a general matrix tail
the recursive classification needs to decide whether a connecting map has
finite image, and no procedure for that decision is available.  For diagonal
tails the connecting map never arises and every advertised output is
provably correct.  General finite-description matrix tails are rejected
with a clear diagnostic at construction time.
"""

from __future__ import annotations

from math import prod

from ._record import record
from .descriptors import (
    CONTINUUM,
    ExtCardinal,
    GroupDescriptor,
    PrimeMultiplicity,
    ZERO_CARDINAL,
)
from .errors import DomainError, InvalidSystemError
from .fg_groups import GroupStructure
from .matrices import IntMatrix
from .numutil import prime_factors
from .rank1 import INFINITE, EProfile, ext_to_z


@record
class InverseSystemSpec:
    """A constant-rank inverse system: matrix prefix plus periodic diagonal tail.

    Transition maps point down the tower (each matrix maps the next group to
    the previous one).  ``tail_diagonals`` lists one diagonal vector per step
    of the period, cycling forever.

    >>> spec = InverseSystemSpec.build(rank=1, prefix=[], tail=[[5]])
    >>> spec.tail_diagonals
    ((5,),)
    """

    rank: int
    prefix: tuple[IntMatrix, ...]
    tail_diagonals: tuple[tuple[int, ...], ...]

    @classmethod
    def build(cls, rank: int, prefix, tail) -> "InverseSystemSpec":
        return cls(
            rank=int(rank),
            prefix=tuple(
                m if isinstance(m, IntMatrix) else IntMatrix.from_rows(m)
                for m in prefix
            ),
            tail_diagonals=tuple(tuple(int(d) for d in vec) for vec in tail),
        )

    def to_json(self) -> dict:
        return {
            "rank": str(self.rank),
            "prefix": [m.to_json() for m in self.prefix],
            "tail": {
                "period": str(len(self.tail_diagonals)),
                "diagonals": [[str(d) for d in vec] for vec in self.tail_diagonals],
            },
        }

    @classmethod
    def from_json(cls, data: dict) -> "InverseSystemSpec":
        tail = data["tail"]
        diagonals = [[int(d) for d in vec] for vec in tail["diagonals"]]
        if "period" in tail and int(tail["period"]) != len(diagonals):
            raise InvalidSystemError("declared period does not match diagonal count")
        return cls.build(
            rank=int(data["rank"]),
            prefix=[IntMatrix.from_json(m) for m in data.get("prefix", [])],
            tail=diagonals,
        )


@record
class ValidatedSystem:
    """A system spec with checked invariants and cokernel metadata attached."""

    spec: InverseSystemSpec
    # |det| of each prefix map.
    prefix_orders: tuple[int, ...]
    cokernel_prime_support: tuple[int, ...]
    # The unique prime p when every transition cokernel is a p-group and at
    # least one is nontrivial; None otherwise.
    p_group_prime: int | None
    # Per tail coordinate, the primes dividing some entry of its period.
    coordinate_primes: tuple[frozenset[int], ...]

    @property
    def cokernel_orders(self) -> tuple[int, ...]:
        """The cokernel order of each prefix map and then of each tail step
        of one period.  Nothing else reads the tail products, so they are
        multiplied here, not on every validation."""
        return self.prefix_orders + tuple(
            prod(map(abs, vec)) for vec in self.spec.tail_diagonals)


def _check_spec(spec: InverseSystemSpec) -> list[int]:
    """Check every invariant of the spec, factoring nothing; return the
    cokernel orders of the prefix maps."""
    r = spec.rank
    if r < 1:
        raise InvalidSystemError("rank must be >= 1")
    if not spec.tail_diagonals:
        raise InvalidSystemError("tail period must have length >= 1")
    orders = []
    for m in spec.prefix:
        if m.rows != r or m.cols != r:
            raise InvalidSystemError(
                f"prefix matrix is {m.rows}x{m.cols}, expected {r}x{r}"
            )
        det = m.determinant()
        if det == 0:
            raise InvalidSystemError(
                "prefix matrix has zero determinant (infinite cokernel)"
            )
        orders.append(abs(det))
    for vec in spec.tail_diagonals:
        if len(vec) != r:
            raise InvalidSystemError(
                f"tail diagonal has length {len(vec)}, expected {r}"
            )
        if 0 in vec:
            raise InvalidSystemError("tail diagonal entries must be nonzero")
    return orders


def validate_system(spec: InverseSystemSpec) -> ValidatedSystem:
    """Check all invariants and attach cokernel metadata.

    >>> v = validate_system(InverseSystemSpec.build(1, [], [[5]]))
    >>> v.p_group_prime
    5
    >>> validate_system(InverseSystemSpec.build(2, [], [[1, 6]])).p_group_prime is None
    True
    """
    orders = _check_spec(spec)
    entries = [list(map(abs, vec)) for vec in spec.tail_diagonals]
    # A diagonal cokernel has the prime support of its entries, so each
    # distinct tail entry is factored, never their product.
    to_factor = set(orders).union(*entries)
    primes = {n: frozenset(prime_factors(n) if n > 1 else ()) for n in to_factor}
    support = frozenset().union(*primes.values())
    return ValidatedSystem(
        spec=spec,
        prefix_orders=tuple(orders),
        cokernel_prime_support=tuple(sorted(support)),
        p_group_prime=next(iter(support)) if len(support) == 1 else None,
        # Per coordinate, the union of its entries' primes over the period.
        coordinate_primes=tuple(map(
            frozenset.union, *(map(primes.__getitem__, step) for step in entries)
        )),
    )


def _as_validated(system) -> ValidatedSystem:
    if isinstance(system, ValidatedSystem):
        return system
    return validate_system(system)


def _unit_coordinates(system) -> list[bool]:
    # Per tail coordinate, whether every period entry is +-1.  A validated
    # system answers from its coordinate primes: tail entries are nonzero,
    # so a coordinate has no prime exactly when all its entries are units.
    # A bare spec is checked first, but no entry is factored.
    if isinstance(system, ValidatedSystem):
        return [not primes for primes in system.coordinate_primes]
    _check_spec(system)
    return [all(abs(d) == 1 for d in column) for column in zip(*system.tail_diagonals)]


def drop_prefix(spec: InverseSystemSpec, k: int) -> InverseSystemSpec:
    """Remove the first k prefix maps; a cofinal subsystem, so the derived
    limit is unchanged."""
    if k < 0 or k > len(spec.prefix):
        raise DomainError(
            f"cannot drop {k} maps from a prefix of length {len(spec.prefix)}"
        )
    return InverseSystemSpec(spec.rank, spec.prefix[k:], spec.tail_diagonals)


def lim_structure(system) -> GroupStructure:
    """The inverse limit: free of rank = number of unit tail coordinates.

    A coordinate whose period entries are all +-1 carries a constant system
    with limit Z; a coordinate with any entry of absolute value >= 2 has
    trivial limit, because the intersection of the d^k Z is zero.  The
    prefix maps are injective and do not change the answer.

    >>> print(lim_structure(InverseSystemSpec.build(2, [], [[1, 6]])))
    Z
    """
    return GroupStructure(free_rank=sum(_unit_coordinates(system)))


def is_mittag_leffler(system) -> bool:
    """Whether the images stabilize.

    For this representable family that happens exactly when every tail entry
    is a unit, which is also exactly when the derived limit vanishes.

    >>> is_mittag_leffler(InverseSystemSpec.build(2, [], [[1, -1]]))
    True
    >>> is_mittag_leffler(InverseSystemSpec.build(1, [], [[5]]))
    False
    """
    return all(_unit_coordinates(system))


@record
class Lim1Class:
    """Isomorphism class of a derived limit: Q^rational + Pruefer summands.

    Nonzero derived limits of countable systems of finitely generated groups
    always have continuum-many Q summands, so ``rational`` is zero or the
    continuum; the Pruefer multiplicities are finite and bounded by the rank.
    """

    rational: ExtCardinal = ZERO_CARDINAL
    pruefer: PrimeMultiplicity = PrimeMultiplicity()

    def __post_init__(self):
        if self.pruefer.has_continuum():
            raise DomainError("Pruefer multiplicities of a rank-classified "
                              "derived limit are finite")
        if self.rational not in (ZERO_CARDINAL, CONTINUUM):
            raise DomainError("rational part is zero or continuum")
        if self.rational.is_zero and not self.pruefer.is_zero:
            raise DomainError("a nonzero derived limit has continuum rational part")

    @property
    def is_zero(self) -> bool:
        return self.rational.is_zero and self.pruefer.is_zero

    def multiplicity(self, p: int) -> int:
        return self.pruefer.at(p).value

    @classmethod
    def from_descriptor(cls, d: GroupDescriptor) -> "Lim1Class":
        if not d.is_divisible():
            raise DomainError("derived-limit class has only Q and Pruefer blocks")
        return cls(d.rational, d.pruefer)

    def to_json(self) -> dict:
        return {"rational": self.rational.to_json(), "pruefer": self.pruefer.to_json()}


ZERO_LIM1 = Lim1Class()


def lim1_classify(system, strategy: str = "recursive") -> Lim1Class:
    """Classify the derived limit of the system.

    Two independent routes:

    * ``recursive`` splits the diagonal tail into its rank-1 coordinate
      systems; the connecting maps between the layers vanish, so the class
      is the sum of the coordinates' classes, and that sum is counted
      directly.  Let n be the number of coordinates with a non-unit period
      entry and c_p the number of coordinates whose multipliers p divides.
      If n = 0 the derived limit vanishes; otherwise it is Q^continuum plus
      Pruefer summands with multiplicity n at every prime, except n - c_p
      at each p with c_p > 0.  The cost is linear in the rank.
    * ``ext_oracle`` dualizes each coordinate: the colimit of the dual maps
      is a rank-1 subgroup of Q whose Ext group against Z is the derived
      limit of that coordinate; the Ext groups are added with
      :meth:`GroupDescriptor.total`.

    Both read each coordinate's primes from :func:`validate_system`, which
    factors every distinct tail entry once.

    The prefix never contributes: dropping finitely many stages is cofinal.

    >>> c = lim1_classify(InverseSystemSpec.build(1, [], [[5]]))
    >>> c.rational.is_continuum, c.multiplicity(5), c.multiplicity(3)
    (True, 0, 1)
    >>> c = lim1_classify(InverseSystemSpec.build(3, [], [[6, 10, 1]]))
    >>> c.multiplicity(2), c.multiplicity(3), c.multiplicity(7)
    (0, 1, 2)
    >>> lim1_classify(InverseSystemSpec.build(2, [], [[1, 1]])).is_zero
    True
    """
    v = _as_validated(system)
    if strategy == "recursive":
        return _classify_recursive(v.coordinate_primes)
    if strategy == "ext_oracle":
        return _classify_ext_oracle(v.coordinate_primes)
    raise DomainError(f"unknown strategy {strategy!r}")


def _classify_recursive(coordinate_primes) -> Lim1Class:
    # A rank-1 coordinate with a non-unit multiplier has derived limit
    # Q^continuum plus one Pruefer summand at every prime not dividing its
    # multipliers (the quotient of the profinite completion along the
    # inverted primes); an all-unit coordinate contributes nothing.  The
    # diagonal tail splits, so n and the c_p add up the coordinates.
    n = 0
    divides: dict[int, int] = {}
    for primes in coordinate_primes:
        if primes:
            n += 1
            for p in primes:
                divides[p] = divides.get(p, 0) + 1
    if not n:
        return ZERO_LIM1
    # Every c_p >= 1, so no exception equals the default: already normalized.
    return Lim1Class(
        rational=CONTINUUM,
        pruefer=PrimeMultiplicity(
            ExtCardinal(n),
            tuple((p, ExtCardinal(n - c)) for p, c in sorted(divides.items())),
        ),
    )


def _classify_ext_oracle(coordinate_primes) -> Lim1Class:
    # The dual of a coordinate is the colimit of Z along its multipliers,
    # Z[S^-1] with S the primes dividing them (see eprofile_from_multipliers).
    # validate_system has found and proven S, so the profile is built
    # directly instead of factoring the multipliers again.
    return Lim1Class.from_descriptor(GroupDescriptor.total(
        ext_to_z(EProfile(0, tuple((p, INFINITE) for p in sorted(primes))))
        for primes in coordinate_primes
    ))
