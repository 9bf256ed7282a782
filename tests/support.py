"""Shared oracles and random generators for the test suite.

The oracles here compute in explicit finite groups and towers, independently
of the descriptor block tables they are used to check.
"""

from __future__ import annotations

from math import gcd

from limext import GroupDescriptor, GroupStructure, IntMatrix, InverseSystemSpec
from limext.descriptors import CONTINUUM, PrimeMultiplicity


class ExplicitCyclic:
    """Z/m with exhaustive element-level computations."""

    def __init__(self, m: int):
        self.m = m
        self.elements = frozenset(range(m))

    def mult_image(self, subset, n: int) -> frozenset:
        return frozenset((n * x) % self.m for x in subset)

    def torsion_subgroup(self, n: int) -> frozenset:
        return frozenset(x for x in self.elements if (n * x) % self.m == 0)

    def max_divisible_subgroup(self, p: int) -> frozenset:
        # The descending chain G >= pG >= p^2 G ... stabilizes at the largest
        # subgroup on which multiplication by p is onto.
        current = self.elements
        while True:
            nxt = self.mult_image(current, p)
            if nxt == current:
                return current
            current = nxt

    def quotient_order(self, p: int, j: int) -> int:
        return self.m // len(self.mult_image(self.elements, p ** j))

    def torsion_order(self, p: int, j: int) -> int:
        return len(self.torsion_subgroup(p ** j))


def finite_tower_limit(groups, maps):
    """Limit data of a truncated tower of finite abelian groups.

    ``groups[i]`` is a set; ``maps[i]`` sends an element of groups[i+1] to
    groups[i].  Returns (stable_image_sizes, mittag_leffler, limit_size) for
    the bottom half of the truncation: the image of the deepest level inside
    each level, whether those images had already stabilized by the middle of
    the truncation (the Mittag-Leffler evidence), and the bottom stable size.
    For towers of subsets of a fixed finite group the stable system is
    eventually constant, so once images stop moving the bottom size is the
    cardinality of the limit of the full tower and the derived limit
    vanishes.
    """
    depth = len(groups)

    def image_at(level, source):
        deep = set(groups[source])
        for step in range(source - 1, level - 1, -1):
            deep = {maps[step](x) for x in deep}
        return frozenset(deep)

    # Only the bottom third of the truncation has enough headroom above it
    # for the image chain to have settled; stabilization evidence is that
    # the deepest two sources give the same image there.
    bottom = max(1, depth // 3)
    sizes = []
    stabilized = []
    for i in range(bottom):
        next_deepest = image_at(i, depth - 2)
        deepest = image_at(i, depth - 1)
        sizes.append(len(deepest))
        stabilized.append(next_deepest == deepest)
    return sizes, all(stabilized), sizes[0]


def subgroup_closure(m_factors, generators) -> frozenset:
    """Subgroup of Z/d1 + ... + Z/dk generated by tuples, by naive closure."""
    elems = {tuple(0 for _ in m_factors)}
    frontier = [tuple(g) for g in generators]
    elems.update(frontier)
    changed = True
    while changed:
        changed = False
        current = list(elems)
        for a in current:
            for g in frontier:
                s = tuple((x + y) % d for x, y, d in zip(a, g, m_factors))
                if s not in elems:
                    elems.add(s)
                    changed = True
    return frozenset(elems)


def all_quotient_structures(m_factors) -> set[GroupStructure]:
    """Isomorphism classes of quotients of Z/d1 + Z/d2 (+ ...), brute force.

    Every subgroup of a 2-generated finite abelian group is 2-generated, so
    enumerating subgroups generated by element pairs is exhaustive for up to
    two factors.  Quotient structures come from Smith normal form of an
    augmented relation matrix, an independent code path from the partition
    enumeration under test.
    """
    from limext import cokernel_structure

    k = len(m_factors)
    assert k <= 2
    elements = [()]
    for d in m_factors:
        elements = [e + (x,) for e in elements for x in range(d)]
    subgroups = set()
    for a in elements:
        for b in elements:
            subgroups.add(subgroup_closure(m_factors, [a, b]))
    out = set()
    for sub in subgroups:
        relation_rows = [
            [m_factors[i] if i == j else 0 for j in range(k)] for i in range(k)
        ]
        relation_rows.extend(list(g) for g in sub)
        out.add(cokernel_structure(IntMatrix.from_rows(relation_rows).transpose()))
    return out


# ---------------------------------------------------------------------------
# Random generators (plain random.Random; seeds documented at use sites).


def random_matrix(rng, rows, cols, bound=50) -> IntMatrix:
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


def random_nonsingular(rng, n, bound=30) -> IntMatrix:
    while True:
        m = random_matrix(rng, n, n, bound)
        if m.determinant() != 0:
            return m


def random_unimodular(rng, n, ops=6) -> IntMatrix:
    rows = IntMatrix.identity(n).to_rows()
    for _ in range(ops):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-3, 3)
        for k in range(n):
            rows[i][k] += q * rows[j][k]
    if rng.random() < 0.5 and n > 1:
        rows[0], rows[1] = rows[1], rows[0]
    return IntMatrix.from_rows(rows)


def random_unimodular_with_inverse(rng, n, ops=6):
    """(W, W_inverse), built from elementary operations and their inverses."""
    w = IntMatrix.identity(n).to_rows()
    w_inv = IntMatrix.identity(n).to_rows()
    for _ in range(ops):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-3, 3)
        # W <- E W with E adding q * row j to row i; W^-1 <- W^-1 E^-1.
        for k in range(n):
            w[i][k] += q * w[j][k]
        for row in w_inv:
            row[j] -= q * row[i]
    return IntMatrix.from_rows(w), IntMatrix.from_rows(w_inv)


BLOCK_KINDS = (
    "free", "cyclic", "local", "inverted", "rational",
    "rational_continuum", "pruefer", "padic",
)


def random_descriptor(rng, max_blocks=3, primes=(2, 3, 5, 7)) -> GroupDescriptor:
    """A descriptor assembled from a few random blocks.

    Pruefer multiplicities stay finite (the Tate functor refuses continuum
    Pruefer blocks by design); the rational part may be continuum.
    """
    g = GroupDescriptor.build()
    for _ in range(rng.randint(0, max_blocks)):
        kind = rng.choice(BLOCK_KINDS)
        n = rng.randint(1, 3)
        p = rng.choice(primes)
        if kind == "free":
            g = g + GroupDescriptor.free(n)
        elif kind == "cyclic":
            g = g + GroupDescriptor.cyclic_group(rng.randint(2, 360))
        elif kind == "local":
            g = g + GroupDescriptor.localized(p, n)
        elif kind == "inverted":
            s = rng.sample(primes, rng.randint(1, 2))
            g = g + GroupDescriptor.s_inverted(s, n)
        elif kind == "rational":
            g = g + GroupDescriptor.rationals(n)
        elif kind == "rational_continuum":
            g = g + GroupDescriptor.rationals(CONTINUUM)
        elif kind == "pruefer":
            if rng.random() < 0.3:
                g = g + GroupDescriptor.build(pruefer=PrimeMultiplicity.build(1, {p: 0}))
            else:
                g = g + GroupDescriptor.pruefer_group(p, n)
        elif kind == "padic":
            g = g + GroupDescriptor.padic_integers(p, n)
    return g


def random_system(rng, max_rank=4, bound=30, single_prime=None) -> InverseSystemSpec:
    """A random validated-shape inverse system spec.

    With ``single_prime`` set, all prefix determinants and tail entries are
    (signed) powers of that prime, so every transition cokernel is a p-group.
    """
    r = rng.randint(1, max_rank)
    prefix = []
    for _ in range(rng.randint(0, 3)):
        if single_prime:
            rows = [[0] * r for _ in range(r)]
            for i in range(r):
                rows[i][i] = rng.choice([-1, 1]) * single_prime ** rng.randint(0, 2)
                for j in range(i + 1, r):
                    rows[i][j] = rng.randint(-3, 3)
            prefix.append(IntMatrix.from_rows(rows))
        else:
            prefix.append(random_nonsingular(rng, r, bound=10))
    period = rng.randint(1, 3)
    tail = []
    for _ in range(period):
        if single_prime:
            vec = [
                rng.choice([-1, 1]) * single_prime ** rng.randint(0, 2)
                for _ in range(r)
            ]
        else:
            vec = []
            for _ in range(r):
                d = 0
                while d == 0:
                    d = rng.randint(-bound, bound)
                vec.append(d)
        tail.append(vec)
    return InverseSystemSpec.build(r, prefix, tail)


def vp_int(n: int, p: int) -> int:
    n = abs(n)
    v = 0
    while n and n % p == 0:
        n //= p
        v += 1
    return v


def naive_gcd_list(xs) -> int:
    g = 0
    for x in xs:
        g = gcd(g, x)
    return g


def trial_factor(n: int) -> dict[int, int]:
    """Prime factorization of |n| >= 1 by trial division by 2 and every odd
    number up to the square root; no primality test is involved."""
    n = abs(n)
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def iroot_bisect(n: int, k: int) -> int:
    """Floor k-th root of n >= 0 by bisection on [0, 2^(bits/k + 1))."""
    lo, hi = 0, 1 << (n.bit_length() // k + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** k <= n:
            lo = mid
        else:
            hi = mid
    return lo


def primewise_invariant_factors(orders) -> tuple[int, ...]:
    """Invariant factors of the sum of Z/n over the nonzero orders: factor
    each by trial division, then put the i-th largest exponent of every
    prime into the i-th largest factor."""
    exponents: dict[int, list[int]] = {}
    for n in orders:
        for p, e in trial_factor(n).items():
            exponents.setdefault(p, []).append(e)
    chain: list[int] = []
    for p, es in exponents.items():
        for i, e in enumerate(sorted(es, reverse=True)):
            if i == len(chain):
                chain.append(1)
            chain[i] *= p ** e
    return tuple(reversed(chain))


def _cardinal_sum(values):
    """Sum of cardinals given as ints, or as None for the continuum, in
    the form ``build`` accepts."""
    values = list(values)
    return "continuum" if None in values else sum(values)


def pointwise_multiplicity_sum(parts) -> PrimeMultiplicity:
    """Sum of prime multiplicities computed prime by prime from ``at``:
    the default from the parts' defaults, and the value at every prime that
    is an exception of some part from the parts' values there."""
    primes = {p for part in parts for p, _ in part.exceptions}
    return PrimeMultiplicity.build(
        _cardinal_sum(part.default.value for part in parts),
        {p: _cardinal_sum(part.at(p).value for part in parts) for p in primes},
    )


def blockwise_descriptor_sum(parts) -> GroupDescriptor:
    """Direct sum of descriptors merged block by block, with the Pruefer
    part from :func:`pointwise_multiplicity_sum`."""
    local: dict = {}
    padic: dict = {}
    inverted: dict = {}
    for g in parts:
        for p in {q for q, _ in g.local}:
            local[p] = local.get(p, 0) + g.local_count(p)
        for p in {q for q, _ in g.padic}:
            padic[p] = padic.get(p, 0) + g.padic_count(p)
        for key, c in g.inverted:
            inverted[key] = inverted.get(key, 0) + c
    return GroupDescriptor.build(
        free_rank=sum(g.free_rank for g in parts),
        cyclic=[m for g in parts for m in g.cyclic],
        local=local,
        inverted=list(inverted.items()),
        rational=_cardinal_sum(g.rational.value for g in parts),
        pruefer=pointwise_multiplicity_sum([g.pruefer for g in parts]),
        padic=padic,
    )


# ---------------------------------------------------------------------------
# The Smith normal form loop as it was before its transforms were replayed
# from a record: row operations are repeated on U and column operations on V
# (held transposed) as they happen, so U @ M @ V == D throughout.


def _div_nearest(a: int, b: int) -> int:
    # Quotient rounded to nearest, so |a - q*b| <= |b| / 2.
    q, r = divmod(a, b)
    if 2 * abs(r) > abs(b):
        q += 1
    return q


def _forward_move_min_to_pivot(d, t, u, vt) -> bool:
    # The first entry of least nonzero absolute value in row-major order.
    best = 0
    for k in range(t, len(d)):
        least = min(map(abs, filter(None, d[k][t:])), default=0)
        if least and (not best or least < best):
            best, i = least, k
            if best == 1:
                break
    if not best:
        return False
    j = t + list(map(abs, d[i][t:])).index(best)
    if i != t:
        d[t], d[i] = d[i], d[t]
        u[t], u[i] = u[i], u[t]
    if j != t:
        for row in d[t:]:
            row[t], row[j] = row[j], row[t]
        vt[t], vt[j] = vt[j], vt[t]
    return True


def forward_smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """(U, D, V) with U @ m @ V == D, accumulating U and V as the loop runs:
    the reference that ``limext.smith_normal_form`` must equal entry for
    entry."""
    d = m.to_rows()
    u = IntMatrix.identity(m.rows).to_rows()
    vt = IntMatrix.identity(m.cols).to_rows()
    nr, nc = m.rows, m.cols
    for t in range(min(nr, nc)):
        if not _forward_move_min_to_pivot(d, t, u, vt):
            break
        top = d[t]
        while True:
            piv = top[t]
            rows = [(i, _div_nearest(d[i][t], piv)) for i in range(t + 1, nr) if d[i][t]]
            for i, q in rows:
                row = d[i]
                row[t:] = [x - q * y for x, y in zip(row[t:], top[t:])]
                u[i] = [x - q * y for x, y in zip(u[i], u[t])]
            cols = [(j, _div_nearest(top[j], piv)) for j in range(t + 1, nc) if top[j]]
            if cols:
                for row in d[t:]:
                    x = row[t]
                    if x:
                        for j, q in cols:
                            row[j] -= q * x
                for j, q in cols:
                    vt[j] = [x - q * y for x, y in zip(vt[j], vt[t])]
            if any(d[i][t] for i in range(t + 1, nr)) or any(top[t + 1:]):
                _forward_move_min_to_pivot(d, t, u, vt)
                top = d[t]
                continue
            bad = next((i for i in range(t + 1, nr)
                        if any(map(piv.__rmod__, d[i][t + 1:]))), None)
            if bad is None:
                break
            top[t:] = [x + y for x, y in zip(top[t:], d[bad][t:])]
            u[t] = [x + y for x, y in zip(u[t], u[bad])]
        if top[t] < 0:
            top[t] = -top[t]
            vt[t] = [-x for x in vt[t]]
    return (
        IntMatrix.from_rows(u) if nr else IntMatrix.zero(0, 0),
        IntMatrix.from_rows(d) if nr else IntMatrix.zero(0, nc),
        IntMatrix.from_rows(vt).transpose() if nc else IntMatrix.zero(0, 0),
    )
