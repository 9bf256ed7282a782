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
# One loop serves both entries.  Row operations are repeated on the left
# accumulator U and column operations on the right accumulator V when they
# are given, so U @ M @ V == D is an invariant of the loop; without them only
# D is reduced.  V is held transposed, so that its column operations are row
# operations too.  At round t the rows and columns before t are finished:
# their entries in the trailing block are zero, so only d[t:][t:] is touched.


def _div_nearest(a: int, b: int) -> int:
    # Quotient rounded to nearest, so |a - q*b| <= |b| / 2.  Keeping the
    # remainders at most half the pivot tames coefficient growth.
    q, r = divmod(a, b)
    if 2 * abs(r) > abs(b):
        q += 1
    return q


def _smith_loop(d: list[list[int]], u: list[list[int]] | None = None,
                vt: list[list[int]] | None = None) -> None:
    """Reduce the rows ``d`` in place to Smith normal form; ``u`` and ``vt``
    (V transposed) accumulate the operations when given.

    At every round the pivot is re-chosen as the entry of minimal nonzero
    absolute value in the trailing block (the first one in row-major order),
    which guarantees termination (the pivot strictly shrinks until the cross
    clears) and keeps coefficients small.  The sign of a negative pivot is
    absorbed into V.
    """
    nr = len(d)
    nc = len(d[0]) if nr else 0
    for t in range(min(nr, nc)):
        if not _move_min_to_pivot(d, t, u, vt):
            break
        top = d[t]
        while True:
            # One reduction sweep of the pivot cross; remainders are at most
            # half the pivot, and the next round promotes the smallest one.
            # The row operations all read row t and the column operations
            # column t, so each sweep's quotients can be taken up front.
            piv = top[t]
            rows = [(i, _div_nearest(d[i][t], piv)) for i in range(t + 1, nr) if d[i][t]]
            for i, q in rows:
                row = d[i]
                row[t:] = [x - q * y for x, y in zip(row[t:], top[t:])]
                if u is not None:
                    u[i] = [x - q * y for x, y in zip(u[i], u[t])]
            cols = [(j, _div_nearest(top[j], piv)) for j in range(t + 1, nc) if top[j]]
            if cols:
                for row in d[t:]:
                    x = row[t]
                    if x:
                        for j, q in cols:
                            row[j] -= q * x
                if vt is not None:
                    for j, q in cols:
                        vt[j] = [x - q * y for x, y in zip(vt[j], vt[t])]
            if any(d[i][t] for i in range(t + 1, nr)) or any(top[t + 1:]):
                # The cross is not clear: promote the smallest remainder.
                _move_min_to_pivot(d, t, u, vt)
                top = d[t]
                continue
            # Divisibility sweep: fold a non-divisible trailing entry into
            # the pivot row; reducing it replaces the pivot by a proper
            # divisor (a nonzero remainder modulo the old pivot).
            bad = next((i for i in range(t + 1, nr)
                        if any(map(piv.__rmod__, d[i][t + 1:]))), None)
            if bad is None:
                break
            top[t:] = [x + y for x, y in zip(top[t:], d[bad][t:])]
            if u is not None:
                u[t] = [x + y for x, y in zip(u[t], u[bad])]
        if top[t] < 0:
            top[t] = -top[t]
            if vt is not None:
                vt[t] = [-x for x in vt[t]]


def _move_min_to_pivot(d, t, u, vt) -> bool:
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
        if u is not None:
            u[t], u[i] = u[i], u[t]
    if j != t:
        for row in d[t:]:
            row[t], row[j] = row[j], row[t]
        if vt is not None:
            vt[t], vt[j] = vt[j], vt[t]
    return True


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form with transforms: returns (U, D, V) with U @ m @ V == D.

    U and V are unimodular, D is diagonal with nonnegative entries satisfying
    the divisibility chain d1 | d2 | ... .  The pivot is re-chosen each round
    as the smallest nonzero entry of the trailing block, and a negative
    pivot's sign is absorbed into V, so D's diagonal is the canonical one.
    Callers that need only the diagonal use :func:`smith_diagonal`.

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
    vt = IntMatrix.identity(nc).to_rows()
    _smith_loop(d, u, vt)
    return (
        IntMatrix.from_rows(u) if nr else IntMatrix.zero(0, 0),
        IntMatrix.from_rows(d) if nr else IntMatrix.zero(0, nc),
        IntMatrix.from_rows(vt).transpose() if nc else IntMatrix.zero(0, 0),
    )


def smith_diagonal(m: IntMatrix) -> list[int]:
    """The diagonal of the Smith normal form of m, without U and V.

    The same loop as :func:`smith_normal_form`, run on D alone, so the
    result is ``smith_normal_form(m)[1].diagonal_entries()``.

    >>> smith_diagonal(IntMatrix.from_rows([[2, 4], [6, 8]]))
    [2, 4]
    """
    d = m.to_rows()
    _smith_loop(d)
    return [d[i][i] for i in range(min(m.rows, m.cols))]


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
    diag = smith_diagonal(f)
    rank_f = sum(1 for x in diag if x != 0)
    if rank_f + g.rank() != f.rows:
        return False
    return all(x in (0, 1) for x in diag)
