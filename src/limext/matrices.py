"""Exact integer matrices, Smith normal form, and exactness checking.

All arithmetic uses Python's arbitrary-precision integers; nothing here is
floating point.  Matrices are immutable; row-major entries.
"""

from __future__ import annotations

from math import gcd, prod

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
            tuple(x for j in range(self.cols) for x in self.entries[j::self.cols]),
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
        rank, pivot, _ = _bareiss(self.to_rows(), self.cols)
        return pivot if rank == self.rows else 0

    def rank(self) -> int:
        return _bareiss(self.to_rows(), self.cols)[0]

    def to_json(self) -> dict:
        return {
            "rows": str(self.rows),
            "cols": str(self.cols),
            "entries": [list(map(str, row)) for row in self.to_rows()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "IntMatrix":
        rows = int(data["rows"])
        cols = int(data["cols"])
        ent = [[int(x) for x in row] for row in data["entries"]]
        if len(ent) != rows or any(len(r) != cols for r in ent):
            raise DimensionError("entry grid does not match declared rows/cols")
        return cls(rows, cols, tuple(x for r in ent for x in r))


def _bareiss(a: list[list[int]], cols: int) -> tuple[int, int, int]:
    """Fraction-free elimination of the rows ``a`` in place: (rank r, signed
    last pivot, the pivot before it).

    After k pivots each entry below them is a (k+1)-minor of the input (Bareiss,
    Math. Comp. 1968), so every division is exact; a column with no nonzero
    entry at or below the current row is skipped.  The sign follows the row
    swaps, so for a square matrix of full rank it is the determinant.  The
    pivot before the last is a nonzero (r-1)-minor, or 1 when r <= 1.
    """
    n = len(a)
    k = 0
    sign = before = prev = 1
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
        before, prev = prev, p
        k += 1
    return k, sign * prev, before


# ---------------------------------------------------------------------------
# Smith normal form.
#
# Row operations are repeated on the left accumulator U and column operations
# on the right accumulator V, so U @ M @ V == D is an invariant of the loop.
# V is held transposed, so that its column operations are row operations too.
# At round t the rows and columns before t are finished: their entries in the
# trailing block are zero, so only d[t:][t:] is touched.


def _div_nearest(a: int, b: int) -> int:
    # Quotient rounded to nearest, so |a - q*b| <= |b| / 2.  Keeping the
    # remainders at most half the pivot tames coefficient growth.
    q, r = divmod(a, b)
    if 2 * abs(r) > abs(b):
        q += 1
    return q


def _smith_loop(d: list[list[int]], u: list[list[int]], vt: list[list[int]]) -> None:
    """Reduce the rows ``d`` in place to Smith normal form; ``u`` and ``vt``
    (V transposed) accumulate the operations.

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
            u[t] = [x + y for x, y in zip(u[t], u[bad])]
        if top[t] < 0:
            top[t] = -top[t]
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
        u[t], u[i] = u[i], u[t]
    if j != t:
        for row in d[t:]:
            row[t], row[j] = row[j], row[t]
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
    """The diagonal d_1 | d_2 | ... of the Smith normal form of m, without U and V.

    d_1...d_k divides every k-minor, and one Bareiss pass gives the rank r
    and nonzero minors Delta_r and Delta_{r-1}.  For m square of full rank,
    R = gcd(Delta_r, Delta_{r-1}) is thus a multiple of d_1...d_{r-1}, and
    d_r = |det m| / (d_1...d_{r-1}); otherwise R = |Delta_r| is a multiple
    of d_1...d_r, and the rest are 0.  Z^rows modulo the column span plus
    R Z^rows is the sum of the Z/gcd(d_i, R), so an elimination over Z/RZ
    finds those d_i (Domich, Kannan and Trotter, Math. Oper. Res. 1987;
    Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.4.14).
    The result equals ``smith_normal_form(m)[1].diagonal_entries()``.

    >>> smith_diagonal(IntMatrix.from_rows([[2, 4], [6, 8]]))
    [2, 4]
    >>> smith_diagonal(IntMatrix.from_rows([[6, 0, 0], [0, 10, 0]]))
    [2, 30]
    """
    rank, last, before = _bareiss(m.to_rows(), m.cols)
    if rank == m.rows == m.cols > 0:
        diag = _smith_mod(m.to_rows(), gcd(last, before), rank - 1)
        return diag + [abs(last) // prod(diag)]
    diag = _smith_mod(m.to_rows(), abs(last), rank)
    return diag + [0] * (min(m.rows, m.cols) - rank)


def _smith_mod(rows: list[list[int]], modulus: int, rounds: int) -> list[int]:
    """The first ``rounds`` diagonal entries of a Smith form of ``rows`` over
    Z/modulus, for a modulus that their product divides; every entry is kept
    in [0, modulus).

    The pivot is an entry with the least gcd g with the modulus, scaled to g
    by a unit.  Entries that g divides are cleared by subtraction, others by
    an extended-gcd 2x2 step that replaces g by a proper divisor.  A trailing
    entry that g does not divide is folded into the pivot row, so g divides
    all that is left; a pivot whose gcd is that of the whole block does so
    from the start.  The trailing block is then divided by g, and the
    modulus by g to the number of entries still to find, g's included: the
    product of those left still divides it.
    """
    if modulus == 1:
        return [1] * rounds
    a = [[x % modulus for x in row] for row in rows]
    out, scale = [], 1
    for t in range(rounds):
        g, least = modulus, 1
        for k in range(t, len(a)):
            gs = [gcd(x, modulus) for x in a[k][t:]]
            h = min(gs)
            if h < g:
                g, i, j = h, k, t + gs.index(h)
            if k == t and g > 1:
                # No entry's gcd with the modulus is below the block's.
                least = gcd(modulus, *(gcd(*row[t:]) for row in a[t:]))
            if g == least:
                break
        if g == modulus:
            return out + [scale * modulus] * (rounds - t)
        a[t], a[i] = a[i], a[t]
        for row in a[t:]:
            row[t], row[j] = row[j], row[t]
        top = a[t]
        unit = _unit_to_divisor(top[t], g, modulus)
        top[t:] = [unit * x % modulus for x in top[t:]]
        while True:
            for row in a[t + 1:]:
                y = row[t]
                if y % g:
                    h, s, w = _xgcd(g, y)
                    top[t:], row[t:] = (
                        [(s * x + w * z) % modulus for x, z in zip(top[t:], row[t:])],
                        [(y // h * x - g // h * z) % modulus for x, z in zip(top[t:], row[t:])])
                    g = h
                elif y:
                    q = y // g
                    for c in range(t, len(row)):
                        row[c] = (row[c] - q * top[c]) % modulus
            # With the pivot column clear, clearing the pivot row by column
            # operations changes nothing else, so it is left undone.
            j = next((j for j in range(t + 1, len(top)) if top[j] % g), None)
            if j is not None:
                h, _, w = _xgcd(g, top[j])
                for row in a[t + 1:]:
                    row[t], row[j] = w * row[j] % modulus, -(g // h) * row[j] % modulus
                top[t], top[j], g = h, 0, h
                continue
            if g == least:
                break
            bad = next((row for row in a[t + 1:] if any(x % g for x in row[t + 1:])), None)
            if bad is None:
                break
            top[t + 1:] = bad[t + 1:]
        out.append(scale * g)
        if g > 1:
            scale *= g
            modulus //= g ** (rounds - t)
            if modulus == 1:
                return out + [scale] * (rounds - t - 1)
            for row in a[t + 1:]:
                row[t + 1:] = [x // g % modulus for x in row[t + 1:]]
    return out


def _xgcd(g: int, y: int) -> tuple[int, int, int]:
    # (h, s, w) with h = gcd(g, y) = s*g + w*y, for g that does not divide y;
    # [[s, w], [y/h, -g/h]] has determinant -1.
    h = gcd(g, y)
    w = pow(y // h, -1, g // h)
    return h, (h - w * y) // g, w


def _unit_to_divisor(x: int, g: int, modulus: int) -> int:
    # A unit u with u*x = g modulo ``modulus``, for g = gcd(x, modulus): the
    # inverse of x/g modulo m = modulus/g, made 1 modulo the part prime to m.
    m = modulus // g
    s = pow(x // g, -1, m)
    c = modulus
    while (h := gcd(c, m)) > 1:
        c //= h
    return s + m * ((1 - s) * pow(m, -1, c) % c)


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
