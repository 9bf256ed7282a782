"""Descriptors for the infinite abelian groups used throughout the package.

A :class:`GroupDescriptor` is a formal direct sum of basic blocks:

====================  =========================================
field                 block
====================  =========================================
``free_rank``         copies of Z
``cyclic``            Z/m factors (invariant-factor chain)
``local``             copies of Z localized at a prime, Z_(p)
``inverted``          copies of Z[S^-1] for a finite prime set S
``rational``          copies of Q (possibly continuum many)
``pruefer``           copies of the Pruefer group Q_l/Z_l per l
``padic``             copies of the p-adic integers Z_p,
                      regarded as an abstract group
====================  =========================================

Multiplicities are plain counts except for ``rational`` and ``pruefer``,
which may be the cardinality of the continuum.  Equality of descriptors is
literal equality of the normalized fields; no isomorphism testing between
different block expressions is attempted.  Two documented identifications
are built into the encoding rather than decided at runtime: Q/Z is the
Pruefer multiplicity function with constant value 1, and uniquely divisible
groups of continuum cardinality (such as the quotient of Z_p by the
localization Z_(p), or Q_p as an abstract group) are ``rational`` with
continuum multiplicity.
"""

from __future__ import annotations

from ._record import record
from .errors import DomainError
from .fg_groups import GroupStructure
from .numutil import require_prime


@record
class ExtCardinal:
    """A finite count or the cardinality of the continuum (value None).

    >>> ExtCardinal(3) + ExtCardinal(4)
    ExtCardinal(value=7)
    >>> ExtCardinal(3) + CONTINUUM == CONTINUUM
    True
    """

    value: int | None = 0

    def __post_init__(self):
        if self.value is not None and self.value < 0:
            raise DomainError("cardinal must be nonnegative")

    @property
    def is_continuum(self) -> bool:
        return self.value is None

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def __add__(self, other: "ExtCardinal") -> "ExtCardinal":
        if self.is_continuum or other.is_continuum:
            return CONTINUUM
        return ExtCardinal(self.value + other.value)

    def __str__(self):
        return "continuum" if self.is_continuum else str(self.value)

    def to_json(self):
        return "continuum" if self.is_continuum else self.value

    @classmethod
    def from_json(cls, data) -> "ExtCardinal":
        if data == "continuum":
            return CONTINUUM
        return cls(int(data))


CONTINUUM = ExtCardinal(None)
ZERO_CARDINAL = ExtCardinal(0)


def as_cardinal(x) -> ExtCardinal:
    if isinstance(x, ExtCardinal):
        return x
    if x == "continuum":
        return CONTINUUM
    return ExtCardinal(int(x))


@record
class PrimeMultiplicity:
    """A function prime -> ExtCardinal with finite description.

    ``default`` is the value at all but finitely many primes; ``exceptions``
    lists the primes where the value differs.  Q/Z is default 1; the
    prime-to-p part Q/Z' is default 1 with exception p -> 0.

    >>> qz = PrimeMultiplicity.build(1)
    >>> qz.at(97)
    ExtCardinal(value=1)
    >>> qz_prime = PrimeMultiplicity.build(1, {5: 0})
    >>> (qz + qz_prime).at(5)
    ExtCardinal(value=1)
    """

    default: ExtCardinal = ZERO_CARDINAL
    exceptions: tuple[tuple[int, ExtCardinal], ...] = ()

    @classmethod
    def build(cls, default=0, exceptions=None) -> "PrimeMultiplicity":
        default = as_cardinal(default)
        cleaned = {}
        for p, v in (exceptions or {}).items():
            p = require_prime(int(p), "exception prime")
            v = as_cardinal(v)
            if v != default:
                cleaned[p] = v
        return cls(default, tuple(sorted(cleaned.items())))

    def at(self, p: int) -> ExtCardinal:
        for q, v in self.exceptions:
            if q == p:
                return v
        return self.default

    @property
    def is_zero(self) -> bool:
        return self.default.is_zero and not self.exceptions

    @classmethod
    def total(cls, parts) -> "PrimeMultiplicity":
        """The pointwise sum of any number of multiplicities, in one pass.

        At a prime p the sum is the sum of all defaults, minus the defaults
        of the parts with an exception at p, plus those exceptions; it is
        the continuum when a continuum default survives that subtraction or
        one of those exceptions is the continuum.  The parts are already
        normalized, so their exception primes are not checked again.

        >>> a = PrimeMultiplicity.build(1, {5: 0})
        >>> b = PrimeMultiplicity.build(2, {5: 3, 7: "continuum"})
        >>> s = PrimeMultiplicity.total([a, b, a])
        >>> s.at(2), s.at(5), s.at(7)
        (ExtCardinal(value=4), ExtCardinal(value=3), ExtCardinal(value=None))
        >>> PrimeMultiplicity.total([]) == PrimeMultiplicity()
        True
        """
        # Plain ints: a finite count and a count of continuum terms, once for
        # the defaults and once per exception prime as a correction to them.
        finite = continuum = 0
        corrections: dict[int, list[int]] = {}
        for part in parts:
            d = part.default.value
            if d is None:
                continuum += 1
            else:
                finite += d
            for p, v in part.exceptions:
                c = corrections.get(p)
                if c is None:
                    c = corrections[p] = [0, 0]
                if d is None:
                    c[1] -= 1
                else:
                    c[0] -= d
                if v.value is None:
                    c[1] += 1
                else:
                    c[0] += v.value
        default = CONTINUUM if continuum else ExtCardinal(finite)
        exceptions = []
        for p in sorted(corrections):
            df, dc = corrections[p]
            v = CONTINUUM if continuum + dc else ExtCardinal(finite + df)
            if v != default:
                exceptions.append((p, v))
        return cls(default, tuple(exceptions))

    def __add__(self, other: "PrimeMultiplicity") -> "PrimeMultiplicity":
        return PrimeMultiplicity.total((self, other))

    def has_continuum(self) -> bool:
        return self.default.is_continuum or any(v.is_continuum for _, v in self.exceptions)

    def to_json(self) -> dict:
        return {
            "default": self.default.to_json(),
            "exceptions": {str(p): v.to_json() for p, v in self.exceptions},
        }

    @classmethod
    def from_json(cls, data: dict) -> "PrimeMultiplicity":
        # build reads the cardinals; with int keys the last of "5" and "05" wins.
        return cls.build(
            data.get("default", 0),
            {int(p): v for p, v in data.get("exceptions", {}).items()},
        )


ZERO_MULTIPLICITY = PrimeMultiplicity()


@record
class GroupDescriptor:
    free_rank: int = 0
    cyclic: tuple[int, ...] = ()
    local: tuple[tuple[int, int], ...] = ()
    inverted: tuple[tuple[tuple[int, ...], int], ...] = ()
    rational: ExtCardinal = ZERO_CARDINAL
    pruefer: PrimeMultiplicity = ZERO_MULTIPLICITY
    padic: tuple[tuple[int, int], ...] = ()

    @classmethod
    def build(
        cls,
        free_rank: int = 0,
        cyclic=(),
        local=None,
        inverted=(),
        rational=0,
        pruefer=None,
        padic=None,
    ) -> "GroupDescriptor":
        """Normalizing constructor; use this instead of the raw record.

        >>> GroupDescriptor.build(cyclic=[2, 3]).cyclic
        (6,)
        >>> GroupDescriptor.build(local={5: 0}).is_zero()
        True
        """
        if free_rank < 0:
            raise DomainError("free rank must be nonnegative")
        cyc = GroupStructure.from_factors(cyclic)
        if cyc.free_rank:
            raise DomainError("cyclic moduli must be nonzero")
        loc = _clean_prime_counts(local)
        pad = _clean_prime_counts(padic)
        inv: dict[tuple[int, ...], int] = {}
        for primes, count in inverted:
            count = int(count)
            if count < 0:
                raise DomainError("multiplicities must be nonnegative")
            if count == 0:
                continue
            key = tuple(sorted({require_prime(int(q), "inverted prime") for q in primes}))
            if not key:
                raise DomainError("inverted prime set must be nonempty")
            inv[key] = inv.get(key, 0) + count
        if pruefer is None:
            pruefer = ZERO_MULTIPLICITY
        elif not isinstance(pruefer, PrimeMultiplicity):
            pruefer = PrimeMultiplicity.build(0, dict(pruefer))
        return cls(
            free_rank=free_rank,
            cyclic=cyc.invariant_factors,
            local=loc,
            inverted=tuple(sorted(inv.items())),
            rational=as_cardinal(rational),
            pruefer=pruefer,
            padic=pad,
        )

    # -- convenience block constructors ------------------------------------

    @classmethod
    def free(cls, n: int = 1) -> "GroupDescriptor":
        return cls.build(free_rank=n)

    @classmethod
    def cyclic_group(cls, m: int) -> "GroupDescriptor":
        return cls.build(cyclic=[m])

    @classmethod
    def localized(cls, p: int, n: int = 1) -> "GroupDescriptor":
        return cls.build(local={p: n})

    @classmethod
    def s_inverted(cls, primes, n: int = 1) -> "GroupDescriptor":
        return cls.build(inverted=[(tuple(primes), n)])

    @classmethod
    def rationals(cls, count=1) -> "GroupDescriptor":
        return cls.build(rational=count)

    @classmethod
    def pruefer_group(cls, p: int, n=1) -> "GroupDescriptor":
        return cls.build(pruefer={p: n})

    @classmethod
    def q_mod_z(cls) -> "GroupDescriptor":
        return cls.build(pruefer=PrimeMultiplicity.build(1))

    @classmethod
    def q_mod_z_prime_to(cls, p: int) -> "GroupDescriptor":
        """Q/Z with the p-primary part removed, i.e. Q modulo Z[1/p]."""
        return cls.build(pruefer=PrimeMultiplicity.build(1, {p: 0}))

    @classmethod
    def padic_integers(cls, p: int, n: int = 1) -> "GroupDescriptor":
        return cls.build(padic={p: n})

    @classmethod
    def from_structure(cls, g: GroupStructure) -> "GroupDescriptor":
        return cls.build(free_rank=g.free_rank, cyclic=g.invariant_factors)

    # -- algebra ------------------------------------------------------------

    @classmethod
    def total(cls, parts) -> "GroupDescriptor":
        """The direct sum of any number of descriptors, normalized once.

        Block counts are merged across all parts, the Pruefer multiplicities
        are summed by :meth:`PrimeMultiplicity.total`, and :meth:`build`
        runs a single time on the result.  ``parts`` is read once, so it may
        be an iterator.

        >>> parts = [GroupDescriptor.free(), GroupDescriptor.cyclic_group(2),
        ...          GroupDescriptor.cyclic_group(3)]
        >>> print(GroupDescriptor.total(parts))
        Z + C6
        >>> GroupDescriptor.total([]).is_zero()
        True
        """
        free_rank = 0
        rational = ZERO_CARDINAL
        cyclic: list[int] = []
        local: dict[int, int] = {}
        inverted: dict[tuple[int, ...], int] = {}
        padic: dict[int, int] = {}
        pruefers = []
        for g in parts:
            free_rank += g.free_rank
            rational += g.rational
            cyclic.extend(g.cyclic)
            for counts, blocks in ((local, g.local), (inverted, g.inverted), (padic, g.padic)):
                for k, c in blocks:
                    counts[k] = counts.get(k, 0) + c
            pruefers.append(g.pruefer)
        return cls.build(
            free_rank=free_rank,
            cyclic=cyclic,
            local=local,
            inverted=tuple(inverted.items()),
            rational=rational,
            pruefer=PrimeMultiplicity.total(pruefers),
            padic=padic,
        )

    def __add__(self, other: "GroupDescriptor") -> "GroupDescriptor":
        return GroupDescriptor.total((self, other))

    def is_zero(self) -> bool:
        return self == ZERO_DESCRIPTOR

    def is_divisible(self) -> bool:
        """Whether every block is divisible (only Q and Pruefer blocks)."""
        return not (self.free_rank or self.cyclic or self.local
                    or self.inverted or self.padic)

    def has_continuum(self) -> bool:
        return self.rational.is_continuum or self.pruefer.has_continuum()

    def local_count(self, p: int) -> int:
        return dict(self.local).get(p, 0)

    def padic_count(self, p: int) -> int:
        return dict(self.padic).get(p, 0)

    def __str__(self):
        parts = []
        if self.free_rank:
            parts.append("Z" if self.free_rank == 1 else f"Z^{self.free_rank}")
        parts.extend(f"C{m}" for m in self.cyclic)
        parts.extend(_pow(f"Z_({p})", c) for p, c in self.local)
        for primes, c in self.inverted:
            prod = 1
            for q in primes:
                prod *= q
            parts.append(_pow(f"Z[1/{prod}]", c))
        if not self.rational.is_zero:
            parts.append(_pow("Q", self.rational))
        if not self.pruefer.is_zero:
            if self.pruefer.default.is_zero:
                parts.extend(
                    _pow(f"Pruefer({p})", v) for p, v in self.pruefer.exceptions
                    if not v.is_zero
                )
            else:
                exc = ", ".join(f"{p} -> {v}" for p, v in self.pruefer.exceptions)
                base = f"Pruefer(all primes -> {self.pruefer.default}"
                parts.append(base + (f"; {exc})" if exc else ")"))
        parts.extend(_pow(f"Zp({p})", c) for p, c in self.padic)
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {
            "free_rank": str(self.free_rank),
            "cyclic": [str(m) for m in self.cyclic],
            "local": {str(p): str(c) for p, c in self.local},
            "inverted": [
                {"primes": [str(q) for q in primes], "count": str(c)}
                for primes, c in self.inverted
            ],
            "rational": self.rational.to_json(),
            "pruefer": self.pruefer.to_json(),
            "padic": {str(p): str(c) for p, c in self.padic},
        }

    @classmethod
    def from_json(cls, data: dict) -> "GroupDescriptor":
        return cls.build(
            free_rank=int(data.get("free_rank", 0)),
            cyclic=[int(m) for m in data.get("cyclic", [])],
            local={int(p): int(c) for p, c in data.get("local", {}).items()},
            inverted=[
                ([int(q) for q in item["primes"]], int(item["count"]))
                for item in data.get("inverted", [])
            ],
            rational=data.get("rational", 0),
            pruefer=PrimeMultiplicity.from_json(data.get("pruefer", {})),
            padic={int(p): int(c) for p, c in data.get("padic", {}).items()},
        )


def _pow(base: str, count) -> str:
    count = as_cardinal(count)
    if count.is_continuum:
        return f"{base}^continuum"
    if count.value == 1:
        return base
    return f"{base}^{count.value}"


def _clean_prime_counts(mapping) -> tuple[tuple[int, int], ...]:
    out = {}
    for p, c in (mapping or {}).items() if isinstance(mapping, dict) else (mapping or ()):
        p = require_prime(int(p), "block prime")
        c = int(c)
        if c < 0:
            raise DomainError("multiplicities must be nonnegative")
        if c:
            out[p] = out.get(p, 0) + c
    return tuple(sorted(out.items()))


ZERO_DESCRIPTOR = GroupDescriptor.build()
