import random
from fractions import Fraction

import pytest

from limext import (
    DomainError,
    SpanError,
    TaggedGenerators,
    classify_submodule,
    extension_shape,
    kernel_structure,
)


def build(rank, prime, gens):
    return TaggedGenerators.build(rank, prime, gens)


def random_invertible_rational(rng, n):
    while True:
        rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
                for _ in range(n)]
        # Exact determinant by fraction Gaussian elimination.
        a = [row[:] for row in rows]
        det = Fraction(1)
        ok = True
        for k in range(n):
            piv = next((i for i in range(k, n) if a[i][k]), None)
            if piv is None:
                ok = False
                break
            if piv != k:
                a[k], a[piv] = a[piv], a[k]
                det = -det
            det *= a[k][k]
            for i in range(k + 1, n):
                c = a[i][k] / a[k][k]
                a[i] = [x - c * y for x, y in zip(a[i], a[k])]
        if ok and det != 0:
            return rows


def apply_matrix(rows, vec):
    return tuple(
        sum(rows[i][j] * vec[j] for j in range(len(vec))) for i in range(len(rows))
    )


def test_classify_constructed_examples():
    out = classify_submodule(build(2, 5, [([1, 0], "local"), ([0, 1], "divisible")]))
    assert (out.s, out.t) == (1, 1)
    assert out.to_json()["finite_part"] == {"free_rank": "0", "invariant_factors": []}

    out = classify_submodule(build(3, 5, [
        ([1, 0, 0], "local"), ([0, 1, 0], "local"), ([0, 0, 1], "local"),
    ]))
    assert (out.s, out.t) == (3, 0)

    out = classify_submodule(build(2, 5, [
        ([1, 1], "divisible"), ([1, 0], "local"), ([0, 1], "local"),
    ]))
    assert (out.s, out.t) == (1, 1)


def test_classify_every_partition_realizable():
    for r in range(1, 5):
        for s in range(0, r + 1):
            gens = []
            for i in range(r):
                e = [0] * r
                e[i] = 1
                gens.append((e, "local" if i < s else "divisible"))
            out = classify_submodule(build(r, 3, gens))
            assert (out.s, out.t) == (s, r - s)


def test_classify_span_precondition():
    with pytest.raises(SpanError):
        classify_submodule(build(2, 3, [([1, 0], "local")]))
    with pytest.raises(SpanError):
        classify_submodule(build(2, 3, [([1, 1], "local"), ([2, 2], "divisible")]))


def test_classify_generator_validation():
    with pytest.raises(DomainError):
        build(2, 3, [([0, 0], "local")])
    with pytest.raises(DomainError):
        build(2, 3, [([1, 0], "weird")])
    with pytest.raises(DomainError):
        build(2, 4, [([1, 0], "local")])
    with pytest.raises(DomainError):
        build(2, 3, [([1], "local")])
    with pytest.raises(DomainError, match="nonzero denominators"):
        build(2, 3, [(["1/0", "1"], "local")])


def test_classify_invariances():
    rng = random.Random(606)
    base = [
        (Fraction(1), Fraction(2), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(0), Fraction(0)),
    ]
    tags = ["divisible", "local", "local"]
    gens = list(zip(base, tags))
    reference = classify_submodule(build(3, 5, gens))

    # Permutation invariance.
    for _ in range(5):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        out = classify_submodule(build(3, 5, shuffled))
        assert (out.s, out.t) == (reference.s, reference.t)

    # Nonzero rational scaling of any generator.
    for _ in range(5):
        scaled = [
            (tuple(x * Fraction(rng.randint(1, 7), rng.randint(1, 7)) for x in v), tag)
            for v, tag in gens
        ]
        out = classify_submodule(build(3, 5, scaled))
        assert (out.s, out.t) == (reference.s, reference.t)

    # Adding a p-integral multiple of one local generator to another.
    v_local1 = base[1]
    v_local2 = base[2]
    coeff = Fraction(10, 3)  # 3 is invertible for p = 5
    modified = [
        (base[0], "divisible"),
        (tuple(a + coeff * b for a, b in zip(v_local1, v_local2)), "local"),
        (v_local2, "local"),
    ]
    out = classify_submodule(build(3, 5, modified))
    assert (out.s, out.t) == (reference.s, reference.t)


def test_classify_basis_change_invariance():
    rng = random.Random(808)
    for _ in range(12):
        r = rng.randint(1, 4)
        s = rng.randint(0, r)
        gens = []
        for i in range(r):
            e = [Fraction(0)] * r
            e[i] = Fraction(1)
            gens.append((tuple(e), "local" if i < s else "divisible"))
        # Redundant local generators (integer combinations of the existing
        # ones lie inside the module already) exercise non-square data.
        for _ in range(rng.randint(0, 2)):
            coeffs = [rng.randint(-2, 2) for _ in range(r)]
            mix = tuple(
                sum(Fraction(c) * gens[i][0][j] for i, c in enumerate(coeffs))
                for j in range(r)
            )
            if any(mix):
                gens.append((mix, "local"))
        for _ in range(10):
            m = random_invertible_rational(rng, r)
            moved = [(apply_matrix(m, v), tag) for v, tag in gens]
            out = classify_submodule(build(r, 5, moved))
            assert (out.s, out.t) == (s, r - s)


def test_classify_matches_divisible_span_dimension():
    # Independent characterization: t is the rational dimension of the span
    # of the divisible generators, computed here by this test's own
    # elimination rather than the library's.
    rng = random.Random(2641)
    for _ in range(120):
        r = rng.randint(1, 4)
        gens = []
        # Guarantee the full-span precondition with a unit-vector frame.
        for i in range(r):
            e = [Fraction(0)] * r
            e[i] = Fraction(1)
            gens.append((tuple(e), rng.choice(["local", "divisible"])))
        # Extra random generators with denominators.
        for _ in range(rng.randint(0, 3)):
            vec = tuple(
                Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(r)
            )
            if any(vec):
                gens.append((vec, rng.choice(["local", "divisible"])))
        rng.shuffle(gens)

        divisible = [v for v, tag in gens if tag == "divisible"]
        basis = []
        for vec in divisible:
            v = list(vec)
            for row in basis:
                lead = next(i for i, a in enumerate(row) if a)
                if v[lead]:
                    c = v[lead] / row[lead]
                    v = [a - c * b for a, b in zip(v, row)]
            if any(v):
                basis.append(v)
        expected_t = len(basis)

        out = classify_submodule(build(r, 5, gens))
        assert out.t == expected_t
        assert out.s == r - expected_t


def test_classify_negative_valuation_generators():
    # Local generators may carry p in the denominator; the pivot choice uses
    # the minimal valuation, possibly negative.
    out = classify_submodule(build(2, 5, [
        ([Fraction(1, 5), 0], "local"),
        ([0, 1], "local"),
        ([1, 1], "divisible"),
    ]))
    assert (out.s, out.t) == (1, 1)
    out = classify_submodule(build(1, 5, [([Fraction(1, 25)], "local")]))
    assert (out.s, out.t) == (1, 0)


def test_extension_shape():
    shape = extension_shape(3, 1)
    assert shape["divisible_quotient_rank"] == 2
    assert shape["local_free_rank"] == 1
    assert shape["torsion"].startswith("finite p-group")
    assert shape["extension_splits"] == "not decided"
    assert extension_shape(0, 0)["t"] == 0
    assert extension_shape(2, 2)["divisible_quotient_rank"] == 0
    with pytest.raises(DomainError):
        extension_shape(2, 3)


def test_kernel_structure_constraints_and_coranks():
    k = kernel_structure(1, 2, 19)
    assert k.display() == "(Q/Z') + (Q/Z)^2 + P"
    assert k.corank(2) == 3 and k.corank(19) == 2
    assert k.to_json()["undetermined_finite_p_part"] is True

    finite = kernel_structure(0, 0, 19)
    assert finite.is_finite and finite.display() == "P"
    assert finite.descriptor.is_zero()

    only_prime_to_p = kernel_structure(1, 0, 19)
    assert only_prime_to_p.display() == "(Q/Z') + P"
    assert only_prime_to_p.corank(19) == 0 and only_prime_to_p.corank(3) == 1

    with pytest.raises(DomainError):
        kernel_structure(0, 2, 19)
    with pytest.raises(DomainError):
        kernel_structure(-1, 0, 19)


def test_kernel_structure_corank_comparison():
    # p-corank strictly below the l-corank unless both vanish.
    for s in range(0, 4):
        for t in range(0, 4):
            if t > 0 and s == 0:
                continue
            k = kernel_structure(s, t, 7)
            if s + t:
                assert k.corank(7) < k.corank(11)
            else:
                assert k.corank(7) == k.corank(11) == 0


def test_tagged_generators_json_round_trip():
    gens = build(2, 3, [(["1/2", "-3"], "local"), (["0", "1"], "divisible")])
    again = TaggedGenerators.from_json(gens.to_json())
    assert again == gens
    assert gens.to_json()["generators"][0]["vector"] == ["1/2", "-3"]
