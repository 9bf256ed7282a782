"""Closed-form invariant formulas and full kernel-structure reports.

Inputs are the arithmetic invariants of a proper regular family over a
p-adic ring of integers: the residue characteristic p, the degree f of the
base field, the Hodge numbers h01 = dim H^1(X, O) and h02 = dim H^2(X, O),
the Picard numbers of the generic and special fibers, and the number of
irreducible components of the special fiber.  The headline quantity is

    r = rho_special - rho_generic - components + 1,

the common corank at every prime l != p of the kernel of reduction, which
splits as s + t with s the dimension of the span of the special-fiber
Picard image inside H^2(X, O) (a p-adic span, so s <= f * h02) and t the
p-corank.  The kernel itself is (Q/Z')^s + (Q/Z)^t + P for an undetermined
finite p-group P, with the constraints s = 0 iff r = 0 and t > 0 => s > 0.

Statements that additionally assume finiteness of the special-fiber torsion
invariant (a conjecture in general, a theorem for abelian and K3 families)
are flagged; reports are marked conditional unless the caller asserts the
proven case.
"""

from __future__ import annotations

from ._record import record, replace
from .errors import DomainError, InconsistentInputsError
from .numutil import require_prime
from .submodules import KernelStructure, kernel_structure

CITE_RANK_FORMULA = "rank-formula: r = rho_special - rho_generic - components + 1"
CITE_KERNEL_STRUCTURE = "kernel-structure: (Q/Z')^s + (Q/Z)^t + finite p-group, s + t = r"
CITE_SPAN_DIMENSION = "span-dimension: s = dim of the p-adic span of the special Picard image"
CITE_PICARD_BOOKKEEPING = "picard-bookkeeping: generic Picard group has rank rho and local corank f*h01"
CITE_LIMIT_RANK_BOUND = "inverse-limit rank bound: rank of the limit kernel <= f*h02"
CITE_CORANK_COMPARISON = "corank-comparison: generic-fiber Brauer coranks at l and p"
CITE_MODEL_CORANK = "model-corank relation: geometric invariant corank = r + special-fiber corank"
CITE_K3_ABELIAN = "k3-abelian case: s <= 1 because H^2(X, O) is one-dimensional"
CITE_WEIL_PICARD = "weil-number Picard rank of abelian surfaces over the prime field"

ASSUMPTION_SPECIAL_FINITE = "finiteness of the special-fiber Brauer group"


def compute_r(rho_special: int, rho_generic: int, components: int) -> int:
    """r = rho_special - rho_generic - components + 1.

    >>> compute_r(4, 1, 1)
    3
    """
    if rho_special < 0 or rho_generic < 0:
        raise DomainError("Picard numbers must be nonnegative")
    if components < 1:
        raise DomainError("a proper special fiber has at least one component")
    r = rho_special - rho_generic - components + 1
    if r < 0:
        raise InconsistentInputsError(
            f"r = {r} < 0: r is a corank, so genuine geometric data cannot "
            "produce a negative value",
            citation=CITE_RANK_FORMULA,
        )
    return r


def generic_fiber_brauer_corank(
    l_equals_p: bool, f: int, h01: int, dim_vl_br_xbar_gk: int
) -> int:
    """Corank of the generic-fiber Brauer group at a prime l.

    1 + (invariant geometric corank), plus f*h01 more in the l = p case.

    >>> generic_fiber_brauer_corank(False, 1, 2, 0)
    1
    >>> generic_fiber_brauer_corank(True, 2, 1, 4)
    7
    """
    if min(f, h01, dim_vl_br_xbar_gk) < 0:
        raise DomainError("corank inputs must be nonnegative")
    return 1 + dim_vl_br_xbar_gk + (f * h01 if l_equals_p else 0)


def model_corank_relation(r: int, dim_vl_br_special: int) -> int:
    """Invariant geometric corank at l != p: r + corank of the special fiber.

    >>> model_corank_relation(3, 0)
    3
    """
    if r < 0 or dim_vl_br_special < 0:
        raise DomainError("corank inputs must be nonnegative")
    return r + dim_vl_br_special


def k3_abelian_structure(r: int, p: int) -> KernelStructure:
    """Kernel structure for an abelian or K3 family over the p-adic integers.

    One-dimensional H^2(X, O) forces s <= 1, and s = 0 iff r = 0, so the
    structure is finite for r = 0 and (Q/Z') + (Q/Z)^(r-1) + P for r > 0.

    >>> k3_abelian_structure(3, 19).display()
    "(Q/Z') + (Q/Z)^2 + P"
    >>> k3_abelian_structure(0, 19).is_finite
    True
    """
    if r < 0:
        raise DomainError("r must be nonnegative")
    return kernel_structure(min(1, r), max(0, r - 1), p)


def abelian_surface_picard_rank(
    shape: str, count1: int | None = None, count2: int | None = None,
    p: int | None = None,
) -> int:
    """Picard rank of an abelian surface over the prime field.

    A simple surface has rank 2.  A product of two elliptic curves has rank
    4 when the curves are isogenous and 2 when they are not; over the prime
    field, isogeny is detected by equality of point counts, which must lie
    in the Hasse interval [p + 1 - 2 sqrt p, p + 1 + 2 sqrt p].

    >>> abelian_surface_picard_rank("simple")
    2
    >>> abelian_surface_picard_rank("product", 20, 20, 19)
    4
    """
    if shape == "simple":
        return 2
    if shape != "product":
        raise DomainError(f"unknown surface shape {shape!r}")
    if count1 is None or count2 is None or p is None:
        raise DomainError("product shape needs both point counts and the prime")
    require_prime(p)
    for c in (count1, count2):
        if (c - p - 1) ** 2 > 4 * p:
            raise DomainError(
                f"point count {c} is outside the Hasse interval for p = {p}",
            )
    return 4 if count1 == count2 else 2


@record
class BrauerInvariants:
    """Arithmetic inputs for the structure formulas.

    ``components`` is the number of irreducible components of the special
    fiber; ``s`` (the span dimension) is optional and forced to 0 when r is;
    the optional corank inputs feed the comparison table.  The
    ``special_fiber_brauer_finite`` flag asserts the proven-finiteness case
    and makes the report unconditional.
    """

    p: int
    f: int = 1
    h01: int = 0
    h02: int = 0
    rho_generic: int = 0
    rho_special: int = 0
    components: int = 1
    s: int | None = None
    dim_vl_br_xbar_gk: int | None = None
    dim_vl_br_special: int | None = None
    special_fiber_brauer_finite: bool = False

    def __post_init__(self):
        require_prime(self.p)
        if self.f < 1:
            raise DomainError("the base degree f is at least 1")
        for name in ("h01", "h02", "rho_generic", "rho_special"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be nonnegative")
        if self.components < 1:
            raise DomainError("component count is at least 1")
        if self.s is not None and self.s < 0:
            raise DomainError("s must be nonnegative")

    def to_json(self) -> dict:
        out = {
            "p": str(self.p),
            "f": str(self.f),
            "h01": str(self.h01),
            "h02": str(self.h02),
            "rho_X": str(self.rho_generic),
            "rho_Xs": str(self.rho_special),
            "I": str(self.components),
            "special_fiber_brauer_finite": self.special_fiber_brauer_finite,
        }
        if self.s is not None:
            out["s"] = str(self.s)
        if self.dim_vl_br_xbar_gk is not None:
            out["dimVlBrXbarGK"] = str(self.dim_vl_br_xbar_gk)
        if self.dim_vl_br_special is not None:
            out["dimVlBrXs"] = str(self.dim_vl_br_special)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "BrauerInvariants":
        def opt(key):
            return int(data[key]) if key in data else None

        return cls(
            p=int(data["p"]),
            f=int(data.get("f", 1)),
            h01=int(data.get("h01", 0)),
            h02=int(data.get("h02", 0)),
            rho_generic=int(data.get("rho_X", 0)),
            rho_special=int(data.get("rho_Xs", 0)),
            components=int(data.get("I", 1)),
            s=opt("s"),
            dim_vl_br_xbar_gk=opt("dimVlBrXbarGK"),
            dim_vl_br_special=opt("dimVlBrXs"),
            special_fiber_brauer_finite=bool(
                data.get("special_fiber_brauer_finite", False)
            ),
        )


@record
class StructureReport:
    """Everything the formulas determine from a set of invariants."""

    invariants: BrauerInvariants
    r: int
    s: int
    t: int
    kernel: KernelStructure
    picard_rank: int
    picard_local_rank: int
    limit_kernel_rank_bound: int
    corank_table: tuple[tuple[str, int], ...]
    citations: tuple[str, ...]
    assumptions: tuple[str, ...]
    conditional: bool

    def to_json(self) -> dict:
        return {
            "inputs": self.invariants.to_json(),
            "r": str(self.r),
            "s": str(self.s),
            "t": str(self.t),
            "kernel": self.kernel.to_json(),
            "picard": {
                "rank": str(self.picard_rank),
                "local_rank": str(self.picard_local_rank),
            },
            "limit_kernel_rank_bound": str(self.limit_kernel_rank_bound),
            "corank_table": {k: str(v) for k, v in self.corank_table},
            "citations": list(self.citations),
            "assumptions": list(self.assumptions),
            "conditional": self.conditional,
        }

    def summary(self) -> str:
        lines = [
            f"residue characteristic p = {self.invariants.p}, base degree f = {self.invariants.f}",
            f"r = {self.r} (corank of the reduction kernel at every l != p)",
            f"(s, t) = ({self.s}, {self.t})",
            f"kernel of reduction: {self.kernel.display()}",
            "  P is a finite p-group of undetermined order",
            f"generic Picard group: rank {self.picard_rank}, "
            f"p-adic part of rank {self.picard_local_rank}",
            f"rank of the limit kernel is at most {self.limit_kernel_rank_bound}",
        ]
        for key, value in self.corank_table:
            lines.append(f"corank table: {key} = {value}")
        if self.conditional:
            lines.append(
                "conditional on: " + "; ".join(self.assumptions)
            )
        else:
            lines.append("unconditional for these inputs")
        return "\n".join(lines)


def invariant_report(inv: BrauerInvariants) -> StructureReport:
    """Assemble the full structure report from arithmetic invariants.

    >>> rep = invariant_report(BrauerInvariants(
    ...     p=19, f=1, h01=2, h02=1, rho_generic=1, rho_special=4,
    ...     components=1, s=1, special_fiber_brauer_finite=True))
    >>> rep.r, rep.s, rep.t
    (3, 1, 2)
    >>> rep.kernel.display()
    "(Q/Z') + (Q/Z)^2 + P"
    """
    r = compute_r(inv.rho_special, inv.rho_generic, inv.components)
    citations = [CITE_RANK_FORMULA, CITE_KERNEL_STRUCTURE, CITE_PICARD_BOOKKEEPING,
                 CITE_LIMIT_RANK_BOUND]

    s = inv.s
    if s is None:
        if r == 0:
            s = 0
        elif inv.h02 == 0:
            raise InconsistentInputsError(
                "h02 = 0 forces a finite kernel (s = 0 hence r = 0), but "
                f"r = {r} > 0",
                citation=CITE_SPAN_DIMENSION,
            )
        else:
            raise DomainError(
                "the span dimension s is not determined by the other "
                "invariants when r > 0 and h02 > 0; supply it",
                citation=CITE_SPAN_DIMENSION,
            )
    else:
        citations.append(CITE_SPAN_DIMENSION)
    if s > r:
        raise InconsistentInputsError(
            f"s = {s} exceeds r = {r}", citation=CITE_SPAN_DIMENSION
        )
    if r > 0 and s == 0:
        raise InconsistentInputsError(
            f"s = 0 with r = {r} > 0 contradicts s = 0 iff r = 0",
            citation=CITE_KERNEL_STRUCTURE,
        )
    if s > inv.f * inv.h02:
        raise InconsistentInputsError(
            f"s = {s} exceeds the span bound f*h02 = {inv.f * inv.h02}",
            citation=CITE_SPAN_DIMENSION,
        )
    t = r - s

    kernel = kernel_structure(s, t, inv.p)
    table: list[tuple[str, int]] = [
        ("kernel corank at l != p", r),
        ("kernel corank at p", t),
    ]
    if inv.dim_vl_br_special is not None:
        table.append(
            ("geometric invariant corank at l != p",
             model_corank_relation(r, inv.dim_vl_br_special))
        )
        citations.append(CITE_MODEL_CORANK)
    if inv.dim_vl_br_xbar_gk is not None:
        table.append(
            ("generic-fiber corank at l != p",
             generic_fiber_brauer_corank(False, inv.f, inv.h01, inv.dim_vl_br_xbar_gk))
        )
        table.append(
            ("generic-fiber corank at p",
             generic_fiber_brauer_corank(True, inv.f, inv.h01, inv.dim_vl_br_xbar_gk))
        )
        citations.append(CITE_CORANK_COMPARISON)
    # Identifying the whole torsion invariant of the family with the kernel
    # up to finite groups needs the special fiber's to be finite.
    conditional = not inv.special_fiber_brauer_finite

    return StructureReport(
        invariants=inv,
        r=r,
        s=s,
        t=t,
        kernel=kernel,
        picard_rank=inv.rho_generic,
        picard_local_rank=inv.f * inv.h01,
        limit_kernel_rank_bound=inv.f * inv.h02,
        corank_table=tuple(table),
        citations=tuple(citations),
        assumptions=(ASSUMPTION_SPECIAL_FINITE,) if conditional else (),
        conditional=conditional,
    )


def jacobian_example_report(p: int) -> StructureReport:
    """Report for the Jacobian of the genus-2 curve y^2 = x^5 - 1 over Z_p.

    Needs p = -1 mod 5 (and p != 5): then the family has good reduction and
    the special fiber is isogenous to the square of an elliptic curve with
    p + 1 points, so its Picard rank is 4; the generic Neron-Severi rank is
    1 because fifth roots of unity act and the endomorphism algebra is the
    fifth cyclotomic field.  An abelian surface has h01 = 2 and h02 = 1,
    which pins s = 1, r = 3, t = 2.

    >>> jacobian_example_report(19).kernel.display()
    "(Q/Z') + (Q/Z)^2 + P"
    """
    require_prime(p)
    if p % 5 != 4:
        raise DomainError(
            f"the example requires p = -1 mod 5, got p = {p}",
        )
    rho_special = abelian_surface_picard_rank("product", p + 1, p + 1, p)
    inv = BrauerInvariants(
        p=p,
        f=1,
        h01=2,
        h02=1,
        rho_generic=1,
        rho_special=rho_special,
        components=1,
        s=1,
        special_fiber_brauer_finite=True,
    )
    report = invariant_report(inv)
    return replace(
        report,
        citations=report.citations + (CITE_K3_ABELIAN, CITE_WEIL_PICARD),
    )
