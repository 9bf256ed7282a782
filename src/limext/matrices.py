"""Exact integer matrices, Smith normal form, and exactness checking.

All arithmetic uses Python's arbitrary-precision integers; nothing here is
floating point.  Matrices are immutable; row-major entries.
"""

from __future__ import annotations

from ._record import record
from .errors import DimensionError


@record
class IntMatrix:
    """An immutable rows x cols integer matrix, entries in row-major order.

    >>> m = IntMatrix.from_rows([[2, 4], [6, 8]])
    >>> m.at(1, 0)
    6
    >>> (m @ IntMatrix.identity(2)) == m
    True
    """

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DimensionError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise DimensionError("ragged rows")
        return cls(n, m, tuple(int(x) for r in rows for x in r))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def diagonal(cls, diag, rows: int | None = None, cols: int | None = None) -> "IntMatrix":
        diag = [int(d) for d in diag]
        n = rows if rows is not None else len(diag)
        m = cols if cols is not None else len(diag)
        ent = [[0] * m for _ in range(n)]
        for i, d in enumerate(diag):
            ent[i][i] = d
        return cls.from_rows(ent)

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[int]]:
        return [list(self.entries[i * self.cols:(i + 1) * self.cols]) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols, self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        a, b = self.to_rows(), other.to_rows()
        out = []
        for i in range(self.rows):
            ai = a[i]
            out.append([
                sum(ai[k] * b[k][j] for k in range(self.cols))
                for j in range(other.cols)
            ])
        return IntMatrix.from_rows(out) if out else IntMatrix.zero(0, other.cols)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def diagonal_entries(self) -> list[int]:
        return [self.at(i, i) for i in range(min(self.rows, self.cols))]

    def determinant(self) -> int:
        """Exact determinant via fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise DimensionError("determinant needs a square matrix")
        rank, pivot = _bareiss(self.to_rows(), self.cols)
        return pivot if rank == self.rows else 0

    def rank(self) -> int:
        return _bareiss(self.to_rows(), self.cols)[0]

    def to_json(self) -> dict:
        return {
            "rows": str(self.rows),
            "cols": str(self.cols),
            "entries": [[str(self.at(i, j)) for j in range(self.cols)] for i in range(self.rows)],
        }

    @classmethod
    def from_json(cls, data: dict) -> "IntMatrix":
        rows = int(data["rows"])
        cols = int(data["cols"])
        ent = [[int(x) for x in row] for row in data["entries"]]
        if len(ent) != rows or any(len(r) != cols for r in ent):
            raise DimensionError("entry grid does not match declared rows/cols")
        return cls(rows, cols, tuple(x for r in ent for x in r))


def _bareiss(a: list[list[int]], cols: int) -> tuple[int, int]:
    """Fraction-free elimination of the rows ``a`` in place: (rank, signed last pivot).

    After k pivots each entry below them is a (k+1)-minor of the input (Bareiss,
    Math. Comp. 1968), so every division is exact; a column with no nonzero
    entry at or below the current row is skipped.  The sign follows the row
    swaps, so for a square matrix of full rank it is the determinant.
    """
    n = len(a)
    k = 0
    sign = prev = 1
    for j in range(cols):
        if k == n:
            break
        piv = k
        while piv < n and not a[piv][j]:
            piv += 1
        if piv == n:
            continue
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        top = a[k]
        p = top[j]
        for i in range(k + 1, n):
            row = a[i]
            x = row[j]
            for c in range(j + 1, cols):
                row[c] = (row[c] * p - x * top[c]) // prev
        prev = p
        k += 1
    return k, sign * prev


# ---------------------------------------------------------------------------
# Smith normal form.
#
# Row operations act on the left accumulator U, column operations on the
# right accumulator V, so U @ M @ V == D is an invariant of the loop.


def _swap_rows(a, i, j):
    a[i], a[j] = a[j], a[i]


def _add_row(a, dst, src, q):
    row_s = a[src]
    row_d = a[dst]
    for k in range(len(row_d)):
        row_d[k] += q * row_s[k]


def _swap_cols(a, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]


def _add_col(a, dst, src, q):
    for row in a:
        row[dst] += q * row[src]


def _negate_col(a, j):
    for row in a:
        row[j] = -row[j]


def _div_nearest(a: int, b: int) -> int:
    # Quotient rounded to nearest, so |a - q*b| <= |b| / 2.  Keeping the
    # remainders at most half the pivot tames coefficient growth.
    q, r = divmod(a, b)
    if 2 * abs(r) > abs(b):
        q += 1
    return q


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form with transforms: returns (U, D, V) with U @ m @ V == D.

    U and V are unimodular, D is diagonal with nonnegative entries satisfying
    the divisibility chain d1 | d2 | ... .  At every round the pivot is
    re-chosen as the entry of minimal nonzero absolute value in the trailing
    block, which guarantees termination (the pivot strictly shrinks until the
    cross clears) and keeps coefficients small.  The sign of a negative pivot
    is absorbed into V, so D's diagonal is the canonical one.

    >>> m = IntMatrix.from_rows([[2, 4], [6, 8]])
    >>> u, d, v = smith_normal_form(m)
    >>> d.diagonal_entries()
    [2, 4]
    >>> (u @ m @ v) == d
    True
    """
    nr, nc = m.rows, m.cols
    d = m.to_rows()
    u = IntMatrix.identity(nr).to_rows()
    v = IntMatrix.identity(nc).to_rows()

    def move_min_to_pivot(t: int) -> bool:
        best = None
        pos = None
        for i in range(t, nr):
            for j in range(t, nc):
                x = d[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pos = (i, j)
        if pos is None:
            return False
        if pos[0] != t:
            _swap_rows(d, t, pos[0])
            _swap_rows(u, t, pos[0])
        if pos[1] != t:
            _swap_cols(d, t, pos[1])
            _swap_cols(v, t, pos[1])
        return True

    t = 0
    while t < min(nr, nc):
        if not move_min_to_pivot(t):
            break
        while True:
            # One reduction sweep of the pivot cross; remainders are at most
            # half the pivot, and the next round promotes the smallest one.
            for i in range(t + 1, nr):
                if d[i][t]:
                    q = _div_nearest(d[i][t], d[t][t])
                    _add_row(d, i, t, -q)
                    _add_row(u, i, t, -q)
            for j in range(t + 1, nc):
                if d[t][j]:
                    q = _div_nearest(d[t][j], d[t][t])
                    _add_col(d, j, t, -q)
                    _add_col(v, j, t, -q)
            cross_clear = all(d[i][t] == 0 for i in range(t + 1, nr)) and all(
                d[t][j] == 0 for j in range(t + 1, nc)
            )
            if not cross_clear:
                move_min_to_pivot(t)
                continue
            # Divisibility sweep: fold a non-divisible trailing entry into
            # the pivot row; reducing it replaces the pivot by a proper
            # divisor (a nonzero remainder modulo the old pivot).
            piv = d[t][t]
            bad = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if d[i][j] % piv:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            _add_row(d, t, bad, 1)
            _add_row(u, t, bad, 1)
        if d[t][t] < 0:
            _negate_col(d, t)
            _negate_col(v, t)
        t += 1

    return (
        IntMatrix.from_rows(u) if nr else IntMatrix.zero(0, 0),
        IntMatrix.from_rows(d) if nr else IntMatrix.zero(0, nc),
        IntMatrix.from_rows(v) if nc else IntMatrix.zero(0, 0),
    )


def is_unimodular(m: IntMatrix) -> bool:
    return m.rows == m.cols and abs(m.determinant()) == 1


def check_exact_at(f: IntMatrix, g: IntMatrix) -> bool:
    """Whether im(f) = ker(g) inside the middle free group.

    Maps are matrices acting on column vectors, so f : Z^a -> Z^b is b x a
    and g : Z^b -> Z^c is c x b.  Exactness holds iff g*f = 0, the ranks are
    complementary (rank f + rank g = b), and im(f) is saturated in Z^b, i.e.
    every nonzero invariant factor of f is 1.  ker(g) is always saturated, so
    a saturated im(f) of the right rank inside it must be all of it.

    >>> two = IntMatrix.from_rows([[2]])
    >>> to_zero = IntMatrix(0, 1, ())
    >>> check_exact_at(two, to_zero)
    False
    >>> inc = IntMatrix.from_rows([[1], [0]])
    >>> proj2 = IntMatrix.from_rows([[0, 1]])
    >>> check_exact_at(inc, proj2)
    True
    """
    if g.cols != f.rows:
        raise DimensionError(
            f"composition undefined: g has {g.cols} columns, f has {f.rows} rows"
        )
    if not (g @ f).is_zero():
        return False
    _, df, _ = smith_normal_form(f)
    rank_f = sum(1 for x in df.diagonal_entries() if x != 0)
    rank_g = g.rank()
    if rank_f + rank_g != f.rows:
        return False
    return all(x in (0, 1) for x in df.diagonal_entries())
