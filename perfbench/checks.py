"""Output checks written in the benchmark's own arithmetic.

Nothing here imports limext: every expected answer is derived either from a
contract (Smith normal form: U*M*V = D, unimodular U and V, divisibility
chain), from the construction of the payload (known prime factorisations),
or from a digest recorded from the seed commit.
"""

from __future__ import annotations

import hashlib
import json
import random
from math import gcd, prod

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, lo_bits: int, hi_bits: int) -> int:
    while True:
        n = rng.randrange(1 << (lo_bits - 1), 1 << hi_bits) | 1
        if is_prime(n):
            return n


def factor_small(n: int) -> dict[int, int]:
    """Trial division; only called on numbers the benchmark built from small primes."""
    n = abs(n)
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def group_json(factorizations, free_rank: int = 0) -> dict:
    """Invariant-factor normal form, as the CLI prints it, from known factorisations."""
    exps: dict[int, list[int]] = {}
    for fac in factorizations:
        for p, e in fac.items():
            if e:
                exps.setdefault(p, []).append(e)
    depth = max((len(v) for v in exps.values()), default=0)
    chain = []
    for i in range(depth):
        chain.append(prod(p ** sorted(es, reverse=True)[i]
                          for p, es in exps.items() if i < len(es)))
    chain.reverse()
    return {"free_rank": str(free_rank), "invariant_factors": [str(d) for d in chain]}


def det_bareiss(rows) -> int:
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def det_mod(rows, p: int) -> int:
    a = [[x % p for x in r] for r in rows]
    n = len(a)
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det = det * a[k][k] % p
        inv = pow(a[k][k], -1, p)
        for i in range(k + 1, n):
            f = a[i][k] * inv % p
            if f:
                ri, rk = a[i], a[k]
                for j in range(k, n):
                    ri[j] = (ri[j] - f * rk[j]) % p
    return det % p


def _matvec(rows, x):
    return [sum(a * b for a, b in zip(r, x)) for r in rows]


def _matrix(obj, rows: int, cols: int):
    if int(obj["rows"]) != rows or int(obj["cols"]) != cols:
        raise CheckFailed(f"matrix is {obj['rows']}x{obj['cols']}, expected {rows}x{cols}")
    ent = [[int(x) for x in r] for r in obj["entries"]]
    if len(ent) != rows or any(len(r) != cols for r in ent):
        raise CheckFailed("entry grid does not match its declared shape")
    return ent


class CheckFailed(Exception):
    pass


def _require_chain(factors):
    for a, b in zip(factors, factors[1:]):
        if a == 0 and b != 0 or a and b % a:
            raise CheckFailed(f"divisibility chain broken at {a}, {b}")


def check_snf(out: dict, m, rng: random.Random) -> None:
    r = len(m)
    c = len(m[0]) if m else 0
    u = _matrix(out["U"], r, r)
    d = _matrix(out["D"], r, c)
    v = _matrix(out["V"], c, c)
    diag = [d[i][i] for i in range(min(r, c))]
    if any(d[i][j] for i in range(r) for j in range(c) if i != j):
        raise CheckFailed("D is not diagonal")
    if any(x < 0 for x in diag):
        raise CheckFailed("D has a negative diagonal entry")
    _require_chain(diag)
    # Freivalds: U*(M*(V*x)) == D*x for random x; a wrong product passes
    # with probability at most 2**-64 per trial.
    for _ in range(2):
        x = [rng.randrange(-(1 << 64), 1 << 64) for _ in range(c)]
        if _matvec(u, _matvec(m, _matvec(v, x))) != _matvec(d, x):
            raise CheckFailed("U*M*V != D")
    p = random_prime(rng, 61, 62)
    for name, t in (("U", u), ("V", v)):
        if det_mod(t, p) not in (1, p - 1):
            raise CheckFailed(f"{name} is not unimodular (det mod {p} is not +-1)")
    if r == c and abs(det_bareiss(m)) != prod(diag):
        raise CheckFailed("product of invariant factors differs from |det M|")


def check_cokernel(out: dict, m) -> None:
    """Cokernel of a square nonsingular m: product of the factors is |det m|."""
    n = len(m)
    fr = int(out["free_rank"])
    factors = [int(x) for x in out["invariant_factors"]]
    if fr != 0:
        raise CheckFailed(f"free rank {fr} for a nonsingular matrix")
    if any(x < 2 for x in factors) or len(factors) > n:
        raise CheckFailed("invariant factors out of range")
    _require_chain(factors)
    if prod(factors) != abs(det_bareiss(m)):
        raise CheckFailed("product of invariant factors differs from |det|")
    g = 0
    for row in m:
        for x in row:
            g = gcd(g, x)
    if (len(factors) == n) != (g > 1) or (g > 1 and factors[0] != g):
        raise CheckFailed("first invariant factor differs from the entry gcd")


DIGEST_CHARS = 12


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=DIGEST_CHARS // 2).hexdigest()


def check_output(expect, text: str, rng: random.Random, digests: dict) -> None:
    """Raise CheckFailed unless the CLI output `text` meets `expect`."""
    kind = expect[0]
    if kind == "digest":
        # digests[corpus kind] is the concatenation of its instances' digests.
        _, corpus_kind, index = expect[:3]
        want = digests.get(corpus_kind, "")[index * DIGEST_CHARS:(index + 1) * DIGEST_CHARS]
        if len(want) != DIGEST_CHARS:
            raise CheckFailed(f"no recorded digest for {corpus_kind}:{index}")
        if digest(text) != want:
            raise CheckFailed(f"output differs from the seed-commit digest of {corpus_kind}:{index}")
        if len(expect) > 3:
            check_output(expect[3], text, rng, digests)
        return
    out = json.loads(text)
    if kind == "snf":
        check_snf(out, expect[1], rng)
    elif kind == "cokernel":
        check_cokernel(out["result"], expect[1])
    elif kind == "value":
        if out != expect[1]:
            raise CheckFailed(f"expected {json.dumps(expect[1], sort_keys=True)[:200]}")
    else:
        raise ValueError(f"unknown check kind {kind!r}")
