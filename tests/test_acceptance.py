"""Acceptance suite: one test per advertised criterion, at full scale.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
on success) and enforces the stated runtime budget where one exists.
"""

import functools
import math
import random
import time
from fractions import Fraction

from limext import (
    BrauerInvariants,
    GroupDescriptor,
    TaggedGenerators,
    TruncatedPolyRing,
    check_binomial_lemma,
    classify_submodule,
    completion_cokernel,
    drop_prefix,
    ext_to_z,
    finite_coefficients_descriptor,
    invariant_report,
    is_mittag_leffler,
    is_unimodular,
    k3_abelian_structure,
    kernel_structure,
    lim1_classify,
    lim1_mult_p,
    max_p_divisible,
    six_term_mult_p,
    smith_normal_form,
    tate_module,
    unit_power_check,
    vp_binomial,
)
from limext.descriptors import CONTINUUM, PrimeMultiplicity
from limext.rank1 import EProfile, INFINITE
from support import (
    ExplicitCyclic,
    finite_tower_limit,
    random_descriptor,
    random_matrix,
    random_system,
    vp_int,
)

PRIMES = (2, 3, 5)


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"FAIL {label}")
                raise
            print(f"PASS {label}")
        return run
    return wrap


@criterion("[1] jacobian example: r = 3 and kernel (Q/Z') + (Q/Z)^2 + P, < 1 s")
def test_criterion_1_jacobian_example():
    start = time.monotonic()
    rep = invariant_report(BrauerInvariants(
        p=19, f=1, h01=2, h02=1, rho_generic=1, rho_special=4,
        components=1, s=1, special_fiber_brauer_finite=True,
    ))
    assert rep.r == 3
    assert (rep.s, rep.t) == (1, 2)
    assert rep.kernel.display() == "(Q/Z') + (Q/Z)^2 + P"
    expected = GroupDescriptor.build(pruefer=PrimeMultiplicity.build(3, {19: 2}))
    assert rep.kernel.descriptor == expected
    assert time.monotonic() - start < 1.0


@criterion("[2] derived-limit suite: 500 systems, oracle agreement and bounds, < 30 s")
def test_criterion_2_inverse_system_suite():
    start = time.monotonic()
    rng = random.Random(20260808)
    single_prime_hits = 0
    for i in range(500):
        single = PRIMES[i % 3] if i % 5 == 0 else None
        spec = random_system(rng, max_rank=4, bound=30, single_prime=single)
        from limext import validate_system

        v = validate_system(spec)
        rec = lim1_classify(v, "recursive")
        ora = lim1_classify(v, "ext_oracle")
        assert rec == ora
        assert rec.rational in (CONTINUUM,) or rec.is_zero
        for p in (2, 3, 5, 7, 11, 13, 29):
            assert 0 <= rec.multiplicity(p) <= spec.rank
        if v.p_group_prime is not None and not rec.is_zero:
            single_prime_hits += 1
            p = v.p_group_prime
            others = {rec.multiplicity(l) for l in (2, 3, 5, 7, 11, 97) if l != p}
            assert len(others) == 1
            assert rec.multiplicity(p) < others.pop()
        for k in range(min(3, len(spec.prefix)) + 1):
            assert lim1_classify(drop_prefix(spec, k)) == rec
        assert is_mittag_leffler(spec) == rec.is_zero
    assert single_prime_hits >= 30
    assert time.monotonic() - start < 30.0


@criterion("[3] rank-1 Ext table: three landmark torsion parts and the p^r-torsion law")
def test_criterion_3_rank1_table():
    # Landmark case 1: inverting one prime leaves Q/Z minus that part.
    out = ext_to_z(EProfile.inverted_profile([5]))
    assert out.rational == CONTINUUM
    assert out.pruefer == PrimeMultiplicity.build(1, {5: 0})
    # Landmark case 2: the localization profile gives the Pruefer group at p.
    out = ext_to_z(EProfile.localized_profile(5))
    assert out.rational == CONTINUUM
    assert out.pruefer == PrimeMultiplicity.build(0, {5: 1})
    # Landmark case 3: exponent 1 almost everywhere gives all of Q/Z.
    out = ext_to_z(EProfile.build(1))
    assert out.rational == CONTINUUM
    assert out.pruefer == PrimeMultiplicity.build(1)
    # Torsion cardinality law: p^r when e_p is finite, trivial when infinite.
    for p in PRIMES:
        finite_e = EProfile.build(0, {p: 2, 7: INFINITE})
        infinite_e = EProfile.build(0, {p: INFINITE})
        for r in range(1, 7):
            _, torsion = finite_coefficients_descriptor(ext_to_z(finite_e), p, r)
            assert torsion.order() == p ** r
            _, torsion = finite_coefficients_descriptor(ext_to_z(infinite_e), p, r)
            assert torsion.order() == 1


@criterion("[4] valuation lemmas: exhaustive bounds and unit torsion, < 10 s")
def test_criterion_4_valuations():
    start = time.monotonic()
    for p in PRIMES:
        for n in range(1, 5):
            for s in range(1, 5):
                assert check_binomial_lemma(p, n, s) is True
    for p in PRIMES:
        for z in range(0, 201):
            for u in range(0, z + 1):
                assert vp_binomial(p, z, u) == vp_int(math.comb(z, u), p)
    for p in PRIMES:
        for n in range(1, 5):
            s = 0
            while p ** s < n:
                s += 1
            ring = TruncatedPolyRing(p, n, 2 * p ** s)
            assert unit_power_check(ring, s) is True
    assert time.monotonic() - start < 10.0


@criterion("[5] Smith normal form: 1000 seeded matrices, exact transforms and chain")
def test_criterion_5_snf_suite():
    rng = random.Random(1729)
    for _ in range(1000):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), bound=50)
        u, d, v = smith_normal_form(m)
        assert (u @ m @ v) == d
        assert is_unimodular(u)
        assert is_unimodular(v)
        diag = d.diagonal_entries()
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            assert (b % a == 0) if a else (b == 0)


@criterion("[6] completion machinery: six-term verdicts, depth-10 towers, cokernel value")
def test_criterion_6_completion():
    rng = random.Random(31415)
    for _ in range(200):
        g = random_descriptor(rng, max_blocks=3)
        for p in PRIMES:
            # Every random descriptor has all six terms; none raises.
            six_term_mult_p(g, p)

    # Finite blocks against exhaustive depth-10 tower computation.
    depth = 10
    for p in PRIMES:
        for k in range(1, 7):
            m = p ** k
            grp = ExplicitCyclic(m)
            desc = GroupDescriptor.cyclic_group(m)
            maps = [(lambda x, p=p, m=m: (p * x) % m) for _ in range(depth - 1)]
            towers = [grp.torsion_subgroup(p ** j) for j in range(1, depth + 1)]
            _, ml, limit_size = finite_tower_limit(towers, maps)
            assert ml and limit_size == 1
            assert tate_module(desc, p).is_zero()
            const = [grp.elements for _ in range(depth)]
            _, ml, limit_size = finite_tower_limit(const, maps)
            assert ml and limit_size == 1
            assert lim1_mult_p(desc, p).is_zero()
            assert max_p_divisible(desc, p).is_zero()
            assert len(grp.max_divisible_subgroup(p)) == 1
            for j in (1, 2, 3):
                quotient, torsion = finite_coefficients_descriptor(desc, p, j)
                assert quotient.order() == grp.quotient_order(p, j)
                assert torsion.order() == grp.torsion_order(p, j)

    for p in PRIMES:
        out = completion_cokernel(
            GroupDescriptor.localized(p), GroupDescriptor.pruefer_group(p), p
        )
        assert out == GroupDescriptor.padic_integers(p) \
            + GroupDescriptor.rationals(CONTINUUM)


@criterion("[7] kernel-structure constraints: coranks, s/t gate, family formula")
def test_criterion_7_kernel_constraints():
    for r in range(0, 6):
        for s in range(0, r + 1):
            t = r - s
            if t > 0 and s == 0:
                import pytest

                with pytest.raises(Exception):
                    kernel_structure(s, t, 7)
                continue
            k = kernel_structure(s, t, 7)
            assert k.corank(11) == r
            assert k.corank(3) == r
            assert k.corank(7) == t
    for r in range(0, 11):
        assert k3_abelian_structure(r, 7) \
            == kernel_structure(min(1, r), max(0, r - 1), 7)


@criterion("[8] submodule classification: s + t = r under 100 basis changes per instance")
def test_criterion_8_submodule_classification():
    rng = random.Random(2718281)

    def random_invertible(n):
        while True:
            rows = [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(n)
            ]
            a = [row[:] for row in rows]
            det = Fraction(1)
            singular = False
            for c in range(n):
                piv = next((i for i in range(c, n) if a[i][c]), None)
                if piv is None:
                    singular = True
                    break
                a[c], a[piv] = a[piv], a[c]
                det *= a[c][c]
                for i in range(c + 1, n):
                    fac = a[i][c] / a[c][c]
                    a[i] = [x - fac * y for x, y in zip(a[i], a[c])]
            if not singular and det != 0:
                return rows

    for r in range(1, 5):
        for s in range(0, r + 1):
            gens = []
            for i in range(r):
                e = [Fraction(0)] * r
                e[i] = Fraction(1)
                gens.append((tuple(e), "local" if i < s else "divisible"))
            base = classify_submodule(TaggedGenerators.build(r, 5, gens))
            assert (base.s, base.t) == (s, r - s)
            assert base.s + base.t == r
            for _ in range(100):
                m = random_invertible(r)
                moved = [
                    (
                        tuple(
                            sum(m[i][j] * v[j] for j in range(r)) for i in range(r)
                        ),
                        tag,
                    )
                    for v, tag in gens
                ]
                out = classify_submodule(TaggedGenerators.build(r, 5, moved))
                assert (out.s, out.t) == (s, r - s)
