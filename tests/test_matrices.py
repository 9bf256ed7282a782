import random
from collections import Counter
from itertools import combinations, permutations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limext import (
    DimensionError,
    IntMatrix,
    check_exact_at,
    cokernel_structure,
    is_unimodular,
    smith_normal_form,
)
from limext.errors import BudgetExceededError
from limext.matrices import _bareiss, _smith_loop, _xgcd, smith_diagonal
from support import (
    forward_smith_normal_form,
    random_matrix,
    random_unimodular,
    random_unimodular_with_inverse,
)

entries_st = st.integers(min_value=-50, max_value=50)


@st.composite
def matrices(draw, max_dim=6):
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    ent = draw(
        st.lists(
            st.lists(entries_st, min_size=cols, max_size=cols),
            min_size=rows, max_size=rows,
        )
    )
    return IntMatrix.from_rows(ent)


def assert_snf_contract(m):
    u, d, v = smith_normal_form(m)
    assert (u @ m @ v) == d
    assert is_unimodular(u)
    assert is_unimodular(v)
    diag = d.diagonal_entries()
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    # Off-diagonal must vanish.
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d.at(i, j) == 0
    return diag


def test_snf_worked_example():
    # Hand reduction: gcd of entries 2; |det| = |2*8 - 4*6| = 8; so diag (2, 4).
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    diag = assert_snf_contract(m)
    assert diag == [2, 4]


def test_snf_identity():
    m = IntMatrix.identity(2)
    assert assert_snf_contract(m) == [1, 1]


def test_snf_zero_matrix():
    m = IntMatrix.zero(2, 2)
    assert assert_snf_contract(m) == [0, 0]


def test_snf_rectangular_and_negative():
    assert assert_snf_contract(IntMatrix.from_rows([[0, -3, 0]])) == [3]
    assert assert_snf_contract(IntMatrix.from_rows([[-2], [4], [-6]])) == [2]


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_snf_contract_random(m):
    diag = assert_snf_contract(m)
    if m.rows == m.cols:
        det = m.determinant()
        if det != 0:
            prod = 1
            for x in diag:
                prod *= x
            assert prod == abs(det)


def test_cokernel_diagonal():
    m = IntMatrix.diagonal([2, 4])
    g = cokernel_structure(m)
    assert g.free_rank == 0 and g.invariant_factors == (2, 4)


def test_cokernel_zero_map():
    g = cokernel_structure(IntMatrix.zero(2, 3))
    assert g.free_rank == 2 and g.invariant_factors == ()


def test_cokernel_worked_example():
    g = cokernel_structure(IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert g.free_rank == 0 and g.invariant_factors == (2, 4)


def test_cokernel_unimodular_invariance():
    rng = random.Random(411)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = random_matrix(rng, rows, cols, bound=20)
        left = random_unimodular(rng, rows)
        right = random_unimodular(rng, cols)
        assert cokernel_structure(m) == cokernel_structure(left @ m @ right)


def test_exactness_multiplication_by_two_vs_zero_quotient():
    # x2 : Z -> Z followed by Z -> 0 is not exact in the middle: the kernel
    # of the zero map is everything, the image only the even numbers.
    f = IntMatrix.from_rows([[2]])
    g = IntMatrix(0, 1, ())
    assert check_exact_at(f, g) is False


def test_exactness_identity_then_zero():
    f = IntMatrix.from_rows([[1]])
    g = IntMatrix(0, 1, ())
    assert check_exact_at(f, g) is True


def test_exactness_axis_inclusion_vs_projection():
    f = IntMatrix.from_rows([[1], [0]])     # Z -> Z^2 onto the first axis
    g = IntMatrix.from_rows([[0, 1]])       # second projection
    assert check_exact_at(f, g) is True


def test_exactness_dimension_mismatch():
    with pytest.raises(DimensionError):
        check_exact_at(IntMatrix.identity(2), IntMatrix.identity(3))


def test_exactness_nonzero_composite():
    f = IntMatrix.from_rows([[1], [0]])
    g = IntMatrix.from_rows([[1, 0]])
    assert check_exact_at(f, g) is False


def test_matrix_json_round_trip():
    m = IntMatrix.from_rows([[10**40, -3], [0, 7]])
    again = IntMatrix.from_json(m.to_json())
    assert again == m
    assert m.to_json()["entries"][0][0] == str(10**40)


def test_matrix_shape_errors():
    with pytest.raises(DimensionError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(DimensionError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(DimensionError):
        IntMatrix.identity(2) @ IntMatrix.identity(3)


def test_snf_diagonal_is_a_complete_invariant():
    # The diagonal must not depend on how the matrix is presented: multiply
    # by random unimodular matrices on both sides and diagonalize again.
    rng = random.Random(8128)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(rng, rows, cols, bound=20)
        _, d1, _ = smith_normal_form(m)
        left = random_unimodular(rng, rows)
        right = random_unimodular(rng, cols)
        _, d2, _ = smith_normal_form(left @ m @ right)
        assert d1.diagonal_entries() == d2.diagonal_entries()


def test_exactness_on_constructed_exact_sequences():
    # Build exact sequences by hand: the first k columns of a unimodular W
    # span a saturated subgroup, and the last b-k rows of W^-1 have exactly
    # that subgroup as kernel.
    rng = random.Random(65537)
    for _ in range(40):
        b = rng.randint(2, 5)
        k = rng.randint(1, b - 1)
        w, w_inv = random_unimodular_with_inverse(rng, b)
        f = IntMatrix.from_rows([row[:k] for row in w.to_rows()])
        g = IntMatrix.from_rows(w_inv.to_rows()[k:])
        assert check_exact_at(f, g) is True
        # Doubling f breaks saturation; the image has index 2^k in the kernel.
        doubled = IntMatrix.from_rows(
            [[2 * x for x in row] for row in f.to_rows()]
        )
        assert check_exact_at(doubled, g) is False
        # Dropping a row of g grows the kernel strictly.
        if g.rows > 1:
            smaller = IntMatrix.from_rows(g.to_rows()[1:])
            assert check_exact_at(f, smaller) is False


def _low_rank_matrix(rng, rows, cols):
    # Later rows are combinations of earlier ones, and some columns vanish.
    ent = random_matrix(rng, rows, cols, bound=9).to_rows()
    for i in range(1, rows):
        if rng.random() < 0.5:
            a, b = rng.randrange(i), rng.randrange(i)
            s, t = rng.randint(-3, 3), rng.randint(-3, 3)
            ent[i] = [s * x + t * y for x, y in zip(ent[a], ent[b])]
    for j in range(cols):
        if rng.random() < 0.3:
            for row in ent:
                row[j] = 0
    return IntMatrix(rows, cols, tuple(x for row in ent for x in row))


def _leibniz_determinant(m):
    # Sum over permutations, each signed by its inversion count.
    total = 0
    for perm in permutations(range(m.rows)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(m.rows), 2))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= m.at(i, j)
        total += term
    return total


def test_rank_matches_snf_on_rank_deficient_matrices():
    rng = random.Random(2718)
    deficient = 0
    for _ in range(300):
        m = _low_rank_matrix(rng, rng.randint(0, 7), rng.randint(0, 7))
        _, d, _ = smith_normal_form(m)
        rank = sum(1 for x in d.diagonal_entries() if x != 0)
        assert m.rank() == rank
        deficient += rank < min(m.rows, m.cols)
    assert deficient > 100


def test_determinant_matches_snf_product():
    rng = random.Random(97)
    for k in range(200):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n, bound=9) if k % 2 else _low_rank_matrix(rng, n, n)
        _, d, _ = smith_normal_form(m)
        prod = 1
        for x in d.diagonal_entries():
            prod *= x
        det = m.determinant()
        assert prod == abs(det)
        assert det == _leibniz_determinant(m)
    assert IntMatrix(0, 0, ()).determinant() == 1


def test_smith_diagonal_matches_the_full_form():
    # Rectangular, rank-deficient, zero-column and 0 x n matrices.
    rng = random.Random(5000)
    empty = 0
    for k in range(2500):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        if k % 2:
            m = _low_rank_matrix(rng, rows, cols)
        else:
            b = rng.choice((1, 9, 100))
            m = IntMatrix(rows, cols, tuple(rng.randint(-b, b) for _ in range(rows * cols)))
        empty += rows == 0 < cols
        assert smith_diagonal(m) == smith_normal_form(m)[1].diagonal_entries()
    assert empty > 100


def test_smith_diagonal_matches_sympy():
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    from sympy import ZZ, Matrix

    rng = random.Random(1987)
    for k in range(200):
        n = rng.randint(1, 10)
        if k % 3 == 0:
            m = _known_chain_matrix(rng, n, n, _random_chain(rng, n, k // 3 % 4))
        else:
            m = _low_rank_matrix(rng, n, n) if k % 3 == 1 else random_matrix(rng, n, n, bound=9)
        ref = normalforms.smith_normal_form(Matrix(m.to_rows()), domain=ZZ)
        assert smith_diagonal(m) == [abs(int(ref[i, i])) for i in range(n)]


def _random_chain(rng, size, kind):
    # kind 0: small primes, repeated, and a tail of zeros; 1: every factor
    # even; 2: factors past 10^6; 3: ones, then a pair sharing 6, so that
    # the determinant and the (n-1)-minors share a factor.
    if kind == 3:
        return ([1] * size + [6, 6 * rng.choice((1, 5, 6, 7, 12, 36))])[-size:]
    steps = ((1, 1, 2, 2, 3, 3, 5, 6, 12), (1, 1, 2, 4), (1, 1, 999_983, 1_000_003))[kind]
    chain, d = [], 2 if kind == 1 else 1
    for _ in range(size):
        d *= rng.choice(steps)
        chain.append(d)
    if kind == 0 and rng.random() < 0.3:
        chain[rng.randrange(size):] = [0] * size
    return chain[:size]


def _known_chain_matrix(rng, rows, cols, chain):
    # W1 @ diag(chain) @ W2 with unimodular W1, W2 has Smith diagonal chain.
    return (random_unimodular(rng, rows, 3 * rows)
            @ IntMatrix.diagonal(chain, rows, cols)
            @ random_unimodular(rng, cols, 3 * cols))


def test_smith_diagonal_on_known_chains():
    rng = random.Random(2024)
    large = 0
    for k in range(320):
        rows = rng.randint(1, 12)
        cols = rows if k % 2 else rng.randint(1, 12)
        chain = _random_chain(rng, min(rows, cols), k % 4)
        m = _known_chain_matrix(rng, rows, cols, chain)
        large += max(map(abs, m.entries)) > 10 ** 6
        assert smith_diagonal(m) == chain
        assert smith_diagonal(m) == smith_normal_form(m)[1].diagonal_entries()
    assert large > 20


def test_smith_diagonal_takes_every_branch_modulo_the_determinant(monkeypatch):
    # The modulus and rounds as smith_diagonal takes them, and the chain
    # from the full form: R = 1, every pivot a unit, some pivot not a unit,
    # and an extended-gcd step must each be taken at least 20 times.
    steps = []
    monkeypatch.setattr("limext.matrices._xgcd", lambda g, y: steps.append(1) or _xgcd(g, y))
    rng = random.Random(24)
    hits = {"R = 1": 0, "units only": 0, "non-unit pivot": 0, "extended gcd": 0}
    for k in range(400):
        rows = rng.randint(1, 8)
        cols = rows if k % 3 else rng.randint(1, 8)
        if k % 2:
            m = random_matrix(rng, rows, cols, bound=9)
        else:
            chain = _random_chain(rng, min(rows, cols), k // 2 % 4)
            m = _known_chain_matrix(rng, rows, cols, chain)
        rank, last, before = _bareiss(m.to_rows(), m.cols)
        square = rank == rows == cols
        modulus = gcd(last, before) if square else abs(last)
        diag = smith_normal_form(m)[1].diagonal_entries()
        del steps[:]
        assert smith_diagonal(m) == diag
        hits["extended gcd"] += bool(steps)
        if modulus == 1:
            hits["R = 1"] += 1
        elif rank - square > 0:
            hits["non-unit pivot" if diag[rank - square - 1] > 1 else "units only"] += 1
    assert min(hits.values()) >= 20, hits


def test_bareiss_returns_two_minors():
    # For r = rank, the last pivot is +-an r-minor and the one before it a
    # nonzero +-(r-1)-minor (1 when r <= 1), against the Leibniz formula.
    rng = random.Random(1968)
    for k in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = _low_rank_matrix(rng, rows, cols) if k % 2 else random_matrix(rng, rows, cols, bound=9)
        rank, last, before = _bareiss(m.to_rows(), m.cols)
        assert rank == m.rank()

        def minors(size):
            return {abs(_leibniz_determinant(IntMatrix.from_rows(
                [[m.at(i, j) for j in cs] for i in rs]))) if size else 1
                for rs in combinations(range(rows), size)
                for cs in combinations(range(cols), size)}

        assert before != 0 and abs(before) in minors(max(rank - 1, 0))
        if rank:
            assert abs(last) in minors(rank)


def _with_zero_lines(rng, m):
    # m with some of its rows and some of its columns set to zero.
    zero_rows = {i for i in range(m.rows) if rng.random() < 0.3}
    zero_cols = {j for j in range(m.cols) if rng.random() < 0.3}
    return IntMatrix.from_rows(
        [[0 if i in zero_rows or j in zero_cols else m.at(i, j) for j in range(m.cols)]
         for i in range(m.rows)]) if m.rows else m


def test_smith_normal_form_matches_the_forward_loop():
    # U, D and V entry for entry against the loop that accumulated U and V
    # as it went: 0..8 x 0..8 with entries in +-9 and +-10^6, low rank, and
    # with zero rows and columns; then dense ones up to 40 x 40.
    rng = random.Random(2027)
    seen = Counter()
    for k in range(2400):
        rows, cols = rng.randint(0, 8), rng.randint(0, 8)
        if k % 4 == 2:
            m = _low_rank_matrix(rng, rows, cols)
        else:
            m = random_matrix(rng, rows, cols, bound=10 ** 6 if k % 4 == 1 else 9)
            if k % 4 == 3:
                m = _with_zero_lines(rng, m)
        rank = m.rank()
        seen["empty"] += not (rows and cols)
        seen["rectangular"] += rows != cols
        seen["singular"] += 0 < rank < min(rows, cols)
        seen["zero row"] += any(not any(row) for row in m.to_rows()) and cols > 0
        seen["zero column"] += any(not any(row) for row in m.transpose().to_rows()) and rows > 0
        seen["entries past 10^5"] += any(abs(x) > 10 ** 5 for x in m.entries)
        assert smith_normal_form(m) == forward_smith_normal_form(m), m
    assert min(seen.values()) >= 200, seen
    for rows, cols in ((10, 10), (17, 23), (24, 24), (31, 28), (36, 40), (40, 40)):
        m = random_matrix(rng, rows, cols, bound=9)
        assert smith_normal_form(m) == forward_smith_normal_form(m)


def test_smith_normal_form_records_every_kind_of_operation():
    # Row and column swaps, row and column sweeps, folds of a non-divisible
    # entry into the pivot row and sign flips each at least 20 times, and
    # the replayed transforms equal to the forward loop's on the same set.
    rng = random.Random(27)
    hits = Counter()
    for k in range(300):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        if k % 2:
            m = random_matrix(rng, rows, cols, bound=9)
        else:
            diagonal = [rng.choice((2, 3, 4, 5, 6, 9, 10)) for _ in range(min(rows, cols))]
            m = _known_chain_matrix(rng, rows, cols, diagonal)
        row_ops, col_ops = _smith_loop(m.to_rows())
        hits.update("row " + op[0] for op in row_ops)
        hits.update("column " + op[0] for op in col_ops)
        assert smith_normal_form(m) == forward_smith_normal_form(m)
    kinds = ("row swap", "column swap", "row sweep", "column sweep", "row fold", "column flip")
    assert set(hits) == set(kinds) and min(hits.values()) >= 20, hits


def test_smith_normal_form_matches_sympy():
    # D has sympy's diagonal up to sign, U @ m @ V == D, and det U, det V
    # are +-1, on known chains, low-rank and +-9 matrices.
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    from sympy import ZZ, Matrix

    rng = random.Random(1979)
    for k in range(200):
        n = rng.randint(1, 10)
        if k % 3 == 0:
            m = _known_chain_matrix(rng, n, n, _random_chain(rng, n, k // 3 % 4))
        else:
            m = _low_rank_matrix(rng, n, n) if k % 3 == 1 else random_matrix(rng, n, n, bound=9)
        u, d, v = smith_normal_form(m)
        ref = normalforms.smith_normal_form(Matrix(m.to_rows()), domain=ZZ)
        assert d == IntMatrix.diagonal([abs(int(ref[i, i])) for i in range(n)])
        assert u @ m @ v == d
        assert abs(u.determinant()) == 1 and abs(v.determinant()) == 1


def test_smith_normal_form_refuses_transforms_past_the_budget():
    # U, D and V hold rows^2 + rows*cols + cols^2 entries: 2^20 for 0 x 1024.
    u, d, v = smith_normal_form(IntMatrix.zero(0, 1024))
    assert (u.rows, d.cols, v.rows) == (0, 1024, 1024) and v == IntMatrix.identity(1024)
    for rows, cols in ((0, 1025), (1, 1024), (592, 592), (1, 20000)):
        with pytest.raises(BudgetExceededError):
            smith_normal_form(IntMatrix.zero(rows, cols))
