"""Classification of p-local submodules of Q^r and kernel-structure synthesis.

A finitely described submodule of Q^r is given by tagged generators: a
``local`` generator g spans the Z_(p)-line through g, a ``divisible``
generator spans the full Q-line (equivalently, a generator with any prime
other than p inverted, since the Z_(p)-span of such an orbit is already the
Q-line).  When the generators span Q^r rationally, the submodule M is an
extension of Q^t by a free Z_(p)-module of rank s with s + t = r, and (s, t)
is read off by rational rank alone: the divisible span D is Q^t with t its
dimension, and M/D is a finitely generated Z_(p)-submodule of the
Q-vector space Q^r/D, hence torsion free, hence free, and it spans Q^r/D,
so its rank is s = r - t.

The same (s, t) data feeds the closed-form kernel structure: the divisible
part is one copy of Q/Z-minus-its-p-part per s and one full Q/Z per t, plus
an undetermined finite p-group placeholder that is carried explicitly and
never given an invented order.
"""

from __future__ import annotations

from math import lcm

from ._record import record
from .descriptors import GroupDescriptor, PrimeMultiplicity
from .errors import DomainError, SpanError
from .fg_groups import TRIVIAL_GROUP
from .matrices import IntMatrix
from .numutil import require_prime

LOCAL = "local"
DIVISIBLE = "divisible"


@record
class TaggedGenerator:
    vector: tuple[Fraction, ...]
    tag: str

    def __post_init__(self):
        if self.tag not in (LOCAL, DIVISIBLE):
            raise DomainError(f"unknown generator tag {self.tag!r}")
        if all(x == 0 for x in self.vector):
            raise DomainError("generators must be nonzero")


@record
class TaggedGenerators:
    """Finitely many tagged generators of a submodule of Q^rank.

    >>> gens = TaggedGenerators.build(2, 5, [([1, 0], "local"), ([0, 1], "divisible")])
    >>> classify_submodule(gens)
    STPair(s=1, t=1)
    """

    rank: int
    prime: int
    generators: tuple[TaggedGenerator, ...]

    @classmethod
    def build(cls, rank: int, prime: int, generators) -> "TaggedGenerators":
        # Imported here, its only use: fractions pulls in decimal, which a
        # cold call that never builds generators should not pay for.
        from fractions import Fraction

        rank = int(rank)
        if rank < 1:
            raise DomainError("ambient rank must be >= 1")
        prime = require_prime(int(prime))
        gens = []
        for vec, tag in generators:
            try:
                vec = tuple(Fraction(x) for x in vec)
            except ZeroDivisionError:
                raise DomainError("generator coordinates must have nonzero denominators") from None
            if len(vec) != rank:
                raise DomainError(
                    f"generator has {len(vec)} coordinates, expected {rank}"
                )
            gens.append(TaggedGenerator(vec, tag))
        return cls(rank, prime, tuple(gens))

    def to_json(self) -> dict:
        return {
            "rank": str(self.rank),
            "prime": str(self.prime),
            "generators": [
                {
                    "vector": [
                        str(x.numerator) if x.denominator == 1
                        else f"{x.numerator}/{x.denominator}"
                        for x in g.vector
                    ],
                    "tag": g.tag,
                }
                for g in self.generators
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "TaggedGenerators":
        return cls.build(
            int(data["rank"]),
            int(data["prime"]),
            [(g["vector"], g["tag"]) for g in data["generators"]],
        )


@record
class STPair:
    """The invariants of an extension of Q^t by Z_(p)^s.

    A submodule of Q^r is torsion free, so its finite part, which the JSON
    form still writes, is the trivial group.
    """

    s: int
    t: int

    def to_json(self) -> dict:
        return {"s": str(self.s), "t": str(self.t), "finite_part": TRIVIAL_GROUP.to_json()}


# ---------------------------------------------------------------------------
# Rational rank by one integer elimination.


def _rational_rank(vectors) -> int:
    # Scaling a vector by the lcm of its denominators keeps its Q-line.
    rows = []
    for v in vectors:
        d = lcm(*(x.denominator for x in v))
        rows.append([x.numerator * (d // x.denominator) for x in v])
    return IntMatrix.from_rows(rows).rank()


def classify_submodule(gens: TaggedGenerators) -> STPair:
    """The (s, t) type of the submodule spanned by tagged generators.

    t is the dimension of the rational span D of the divisible generators
    and s = r - t: the quotient of the submodule by D is a finitely
    generated Z_(p)-module inside the Q-vector space Q^r/D, so it is
    torsion free, hence free, and it spans Q^r/D, so its rank is r - t.

    >>> gens = TaggedGenerators.build(
    ...     2, 3, [([1, 1], "divisible"), ([1, 0], "local"), ([0, 1], "local")])
    >>> classify_submodule(gens)
    STPair(s=1, t=1)
    """
    if _rational_rank(g.vector for g in gens.generators) != gens.rank:
        raise SpanError(
            "generators do not span Q^rank rationally",
            citation="full rational span precondition",
        )
    t = _rational_rank(g.vector for g in gens.generators if g.tag == DIVISIBLE)
    return STPair(s=gens.rank - t, t=t)


def extension_shape(r: int, s: int) -> dict:
    """Shape record for the degree-two cohomology of the kernel sheaf.

    The torsion is a finite p-group of undetermined order; the torsion-free
    quotient is an extension of Q^(r-s) by Z_(p)^s.  Whether that extension
    splits is not decided (and not claimed).

    >>> extension_shape(3, 1)["divisible_quotient_rank"]
    2
    """
    if s < 0 or r < 0 or s > r:
        raise DomainError("need 0 <= s <= r")
    return {
        "r": r,
        "s": s,
        "t": r - s,
        "torsion": "finite p-group of undetermined order",
        "local_free_rank": s,
        "divisible_quotient_rank": r - s,
        "extension_splits": "not decided",
    }


@record
class KernelStructure:
    """Structure of the kernel of reduction to the special fiber.

    The divisible part is (Q/Z')^s + (Q/Z)^t relative to ``prime`` (the
    apostrophe marking the removal of the p-primary part); ``descriptor``
    encodes it as Pruefer multiplicities.  The finite p-group summand P is
    always present and of undetermined order: the JSON form flags it, and no
    order is ever invented.
    """

    prime: int
    s: int
    t: int
    descriptor: GroupDescriptor

    @property
    def is_finite(self) -> bool:
        return self.s == 0 and self.t == 0

    def corank(self, l: int) -> int:
        return self.descriptor.pruefer.at(l).value

    def display(self) -> str:
        parts = []
        if self.s:
            parts.append("(Q/Z')" + (f"^{self.s}" if self.s > 1 else ""))
        if self.t:
            parts.append("(Q/Z)" + (f"^{self.t}" if self.t > 1 else ""))
        parts.append("P")
        return " + ".join(parts)

    def to_json(self) -> dict:
        return {
            "p": str(self.prime),
            "s": str(self.s),
            "t": str(self.t),
            "descriptor": self.descriptor.to_json(),
            "undetermined_finite_p_part": True,
            "display": self.display(),
        }


def kernel_structure(s: int, t: int, p: int) -> KernelStructure:
    """The closed-form kernel structure (Q/Z')^s + (Q/Z)^t + P.

    The corank at a prime l != p is s + t; at p it is t; so the p-corank is
    strictly smaller than the l-corank unless both vanish, enforced through
    the constraint that t > 0 requires s > 0.

    >>> k = kernel_structure(1, 2, 19)
    >>> k.display()
    "(Q/Z') + (Q/Z)^2 + P"
    >>> k.corank(3), k.corank(19)
    (3, 2)
    """
    require_prime(p)
    if s < 0 or t < 0:
        raise DomainError("s and t must be nonnegative")
    if t > 0 and s == 0:
        raise DomainError(
            "t > 0 with s = 0 violates the kernel-structure constraint",
            citation="p-corank strictly below l-corank unless both vanish",
        )
    descriptor = GroupDescriptor.build(
        pruefer=PrimeMultiplicity.build(s + t, {p: t})
    )
    return KernelStructure(prime=p, s=s, t=t, descriptor=descriptor)
