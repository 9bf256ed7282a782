"""Seeded payload generators for the four benchmark workloads.

The timed loop runs a workload in cycles.  Every cycle has the same kinds,
shapes and counts in the same slots, so every seed and cycle costs about
the same; the entries, primes and corpus instances come from a sub-seed of
(seed, cycle), so no payload repeats within a run.  Each payload carries
the check its output must pass (see checks.check_output); structure
payloads with a known defect at the seed commit are flagged ``defect``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import prod

from checks import det_bareiss, factor_small, group_json, random_prime


@dataclass(frozen=True)
class Payload:
    slot: int
    cycle: int
    kind: str
    cmd: str
    text: str
    expect: tuple
    defect: bool = False


# ---------------------------------------------------------------------------
# Matrices.


def mat_json(rows) -> dict:
    cols = len(rows[0]) if rows else 0
    return {"rows": str(len(rows)), "cols": str(cols),
            "entries": [[str(x) for x in r] for r in rows]}


def dense(rng, r, c, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(c)] for _ in range(r)]


def nonsingular(rng, n, bound=9):
    while True:
        m = dense(rng, n, n, bound)
        if det_bareiss(m):
            return m


def transpose(m):
    return [list(col) for col in zip(*m)]


def matmul(a, b):
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def unimodular_pair(rng, n, ops):
    """A unimodular W and its inverse, built from `ops` elementary row operations."""
    w = [[int(i == j) for j in range(n)] for i in range(n)]
    winv = [row[:] for row in w]
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        # W <- E W with E = I + c e_i e_j^T;  W^-1 <- W^-1 E^-1.
        w[i] = [a + c * b for a, b in zip(w[i], w[j])]
        for row in winv:
            row[j] -= c * row[i]
    return w, winv


# ---------------------------------------------------------------------------
# Numbers with known factorisations.

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
TAIL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
               73, 79, 83, 89, 97)


def smooth(rng, max_primes=3):
    fac: dict[int, int] = {}
    for _ in range(rng.randint(1, max_primes)):
        p = rng.choice(SMALL_PRIMES)
        fac[p] = fac.get(p, 0) + rng.randint(1, 2)
    return prod(p ** e for p, e in fac.items()), fac


def big_order(rng):
    """q * s with q a 40-61-bit prime and s smooth: trial division runs to its limit."""
    q = random_prime(rng, 41, 61)
    s, fac = smooth(rng, 2)
    return q * s, {**fac, q: 1}


def strip(fac, p):
    return {q: e for q, e in fac.items() if q != p}


def _tail_coordinate(rng, period, pool, unit_share=0.25):
    if rng.random() < unit_share:
        return [rng.choice((-1, 1)) for _ in range(period)]
    entries = [rng.choice((-1, 1)) * prod(rng.sample(pool, rng.randint(1, 2)))
               for _ in range(period)]
    if rng.random() < 0.3 and period > 1:
        entries[rng.randrange(period)] = rng.choice((-1, 1))
    return entries


def lim1_payload(rng, rank, period, pool, prefixes=0, strategy=None):
    """A lim1 payload with its full expected output, known from the construction."""
    cols = [_tail_coordinate(rng, period, pool) for _ in range(rank)]
    support = set()
    prefix = []
    for _ in range(prefixes):
        diag = []
        for _ in range(rank):
            d = prod(rng.sample(SMALL_PRIMES, rng.randint(0, 2)))
            support |= set(factor_small(d))
            diag.append(rng.choice((-1, 1)) * d)
        w1, _ = unimodular_pair(rng, rank, 2 * rank)
        w2, _ = unimodular_pair(rng, rank, 2 * rank)
        prefix.append(matmul(matmul(w1, [[diag[i] if i == j else 0 for j in range(rank)]
                                         for i in range(rank)]), w2))
    inverted = [set().union(*(set(factor_small(a)) for a in col)) for col in cols]
    nonunit = [s for s in inverted if s]
    for s in inverted:
        support |= s
    support = sorted(support)
    primes = sorted(set().union(*nonunit)) if nonunit else []
    payload = {
        "rank": str(rank),
        "prefix": [mat_json(m) for m in prefix],
        "tail": {"period": str(period),
                 "diagonals": [[str(col[t]) for col in cols] for t in range(period)]},
    }
    if strategy:
        payload["strategy"] = strategy
    expected = {
        "class": {
            "rational": "continuum" if nonunit else 0,
            "pruefer": {"default": len(nonunit),
                        "exceptions": {str(p): sum(p not in s for s in nonunit)
                                       for p in primes}},
        },
        "lim": {"free_rank": str(rank - len(nonunit)), "invariant_factors": []},
        "mittag_leffler": not nonunit,
        "cokernel_prime_support": [str(p) for p in support],
        "single_prime_cokernels": str(support[0]) if len(support) == 1 else None,
    }
    return payload, expected


# ---------------------------------------------------------------------------
# snf-transforms: U and V are wanted, so coefficient growth and JSON size count.

SNF_SHAPES = ((8, 8), (12, 12), (16, 16), (20, 20), (24, 24), (28, 28), (32, 32), (36, 36),
              (10, 16), (16, 10), (20, 28), (28, 20), (30, 38), (38, 30), (24, 40), (40, 24),
              (36, 40))


def snf_transforms(rng):
    # Five matrices per shape, their rows and columns shrunk by fixed
    # pairings of the offsets 0..4, so a slot has the same size in every
    # cycle; plus fifteen 40x40, so that the p90 tail falls among equal shapes.
    out = []
    for g, (r, c) in enumerate(SNF_SHAPES):
        for k in range(5):
            m = dense(rng, r - k, c - (k + g) % 5)
            out.append(("snf", "snf", mat_json(m), ("snf", m), False))
    for _ in range(15):
        m = dense(rng, 40, 40)
        out.append(("snf", "snf", mat_json(m), ("snf", m), False))
    return out


# ---------------------------------------------------------------------------
# structure: only invariant factors are used; prime factoring dominates.


def _group_payloads(rng, kind):
    # Every kind runs trial division to its limit exactly twice: direct-sum
    # and max-divisible normalise one big order twice, the finite-coefficient
    # kinds normalise two big orders once.
    fr = rng.randint(0, 1)
    bigs = [big_order(rng) for _ in range(1 if kind in ("direct-sum", "max-divisible") else 2)]
    extra = [smooth(rng) for _ in range(rng.randint(0, 1))]
    orders = [v for v, _ in bigs + extra]
    facs = [f for _, f in bigs + extra]
    group = {"free_rank": str(fr), "invariant_factors": [str(d) for d in orders]}
    if kind == "direct-sum":
        others = [smooth(rng) for _ in range(rng.randint(1, 2))]
        groups = [group] + [{"free_rank": "1", "invariant_factors": [str(v)]} for v, _ in others]
        want = {"result": group_json(facs + [f for _, f in others], fr + len(others))}
        return "group", {"op": "direct-sum", "groups": groups}, want
    if kind == "finite-coefficients":
        m, mfac = smooth(rng)
        part = [{p: min(e, f.get(p, 0)) for p, e in mfac.items()} for f in facs]
        want = {"quotient": group_json([mfac] * fr + part), "torsion": group_json(part)}
        return "group", {"op": "finite-coefficients", "group": group, "modulus": str(m)}, want
    p = rng.choice((2, 3, 5))
    desc = {"free_rank": str(fr), "cyclic": [str(d) for d in orders]}
    if kind == "max-divisible":
        want = {"result": {"free_rank": "0",
                           "cyclic": group_json([strip(f, p) for f in facs])["invariant_factors"],
                           "local": {}, "inverted": [], "rational": 0,
                           "pruefer": {"default": 0, "exceptions": {}}, "padic": {}}}
        return "descriptor", {"op": "max-divisible", "group": desc, "p": str(p)}, want
    j = rng.randint(1, 3)
    part = [{p: min(j, f.get(p, 0))} for f in facs]
    want = {"quotient": group_json([{p: j}] * fr + part), "torsion": group_json(part)}
    return "descriptor", {"op": "finite-coefficients", "group": desc, "p": str(p),
                          "j": str(j)}, want


def structure(rng):
    out = []
    # 44 payloads under ~20 ms, 39 lim1 tails, 15 factoring, 2 defects: the
    # median falls among the lim1 tails, whose cost rises evenly with rank.
    for n in (6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 12, 18):
        m = nonsingular(rng, n)
        out.append(("cokernel", "group", {"op": "cokernel", "matrix": mat_json(m)},
                    ("cokernel", m), False))
    for n in (6, 9, 12, 15, 18, 21):
        rel = nonsingular(rng, n)
        out.append(("presentation", "group",
                    {"op": "presentation", "generators": str(n), "relations": mat_json(rel)},
                    ("cokernel", transpose(rel)), False))
    for i, n in enumerate((5, 6, 7, 8, 9, 10, 11, 12)):
        a = rng.randint(1, n - 1)
        w, winv = unimodular_pair(rng, n, 2 * n)
        f = [row[:a] for row in w]
        exact = i % 2 == 0
        if not exact:
            f = [[2 * row[0]] + row[1:] for row in f]
        out.append(("check-exact", "group",
                    {"op": "check-exact", "f": mat_json(f), "g": mat_json(winv[a:])},
                    ("value", {"result": exact}), False))
    for kind, count in (("direct-sum", 5), ("finite-coefficients", 4),
                        ("max-divisible", 3), ("finite-coefficients-descriptor", 3)):
        for _ in range(count):
            cmd, payload, want = _group_payloads(rng, kind)
            out.append((kind, cmd, payload, ("value", want), False))
    for i in range(18):
        payload, want = lim1_payload(rng, 3 + i % 10, 1 + i % 3, SMALL_PRIMES,
                                     prefixes=1 + i % 2,
                                     strategy=("recursive", "ext_oracle")[i % 2])
        out.append(("lim1-prefix", "lim1", payload, ("value", want), False))
    for i in range(39):
        payload, want = lim1_payload(rng, 60 + 10 * i // 3, 1 + i % 2, TAIL_PRIMES,
                                     strategy=("recursive", "ext_oracle")[i % 2])
        out.append(("lim1-tail", "lim1", payload, ("value", want), False))
    # Known defects at the seed commit, 1 in 100 each (see README.md).
    p, q = random_prime(rng, 40, 41), random_prime(rng, 40, 41)
    s, sfac = smooth(rng)
    out.append(("defect-semiprime", "group",
                {"op": "direct-sum", "groups": [{"invariant_factors": [str(p * q)]},
                                                {"free_rank": "1", "invariant_factors": [str(s)]}]},
                ("value", {"result": group_json([{p: 1, q: 1}, sfac], 1)}), True))
    payload, want = lim1_payload(rng, 1200, 1, TAIL_PRIMES, strategy="recursive")
    out.append(("defect-deep-lim1", "lim1", payload, ("value", want), True))
    return out


# ---------------------------------------------------------------------------
# small-mix corpus: desk-scale payloads for all ten subcommands.  Instance i
# of a kind is generated from its own seed, so the digests recorded for the
# corpus cover every payload any run can draw.


def _rand_group(rng):
    return {"free_rank": str(rng.randint(0, 2)),
            "invariant_factors": [str(rng.randint(2, 360)) for _ in range(rng.randint(0, 2))]}


def _rand_descriptor(rng, primes=(2, 3, 5, 7), free=True, inverted_with=None):
    kinds = ["cyclic", "local", "inverted", "rational", "rational_continuum", "pruefer", "padic"]
    if free:
        kinds.append("free")
    d: dict = {}
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(kinds)
        n = rng.randint(1, 3)
        p = rng.choice(primes)
        if kind == "free":
            d["free_rank"] = str(int(d.get("free_rank", 0)) + n)
        elif kind == "cyclic":
            d.setdefault("cyclic", []).append(str(rng.randint(2, 360)))
        elif kind in ("local", "padic"):
            block = d.setdefault(kind, {})
            block[str(p)] = str(int(block.get(str(p), 0)) + n)
        elif kind == "inverted":
            s = set(rng.sample(primes, rng.randint(1, 2)))
            if inverted_with is not None:
                s.add(inverted_with)
            d.setdefault("inverted", []).append({"primes": [str(x) for x in sorted(s)],
                                                 "count": str(n)})
        elif kind == "rational":
            if d.get("rational") != "continuum":
                d["rational"] = str(int(d.get("rational", 0)) + n)
        elif kind == "rational_continuum":
            d["rational"] = "continuum"
        elif kind == "pruefer":
            if rng.random() < 0.3:
                d["pruefer"] = {"default": 1, "exceptions": {str(p): 0}}
            else:
                d["pruefer"] = {"default": 0, "exceptions": {str(p): n}}
    return d


def _rand_profile(rng, defaults=(0, "inf", 1)):
    return {"default": rng.choice(defaults),
            "exceptions": {str(p): rng.choice((0, 1, 2, 3, "inf"))
                           for p in rng.sample((2, 3, 5, 7, 11, 13), rng.randint(0, 3))}}


def _rand_system(rng):
    r = rng.randint(1, 4)
    prefix = [mat_json(nonsingular(rng, r, 3)) for _ in range(rng.randint(0, 2))]
    period = rng.randint(1, 3)
    diagonals = [[str(rng.choice([x for x in range(-12, 13) if x])) for _ in range(r)]
                 for _ in range(period)]
    return {"rank": str(r), "prefix": prefix,
            "tail": {"period": str(period), "diagonals": diagonals}}


def _brauer_invariants(rng):
    p = rng.choice((2, 3, 5, 7, 11, 13, 19, 23))
    f, h01, h02 = rng.randint(1, 2), rng.randint(0, 3), rng.randint(0, 2)
    rho_x, comps = rng.randint(0, 3), rng.randint(1, 3)
    r = rng.randint(0, f * h02)
    data = {"p": str(p), "f": str(f), "h01": str(h01), "h02": str(h02),
            "rho_X": str(rho_x), "rho_Xs": str(r + rho_x + comps - 1), "I": str(comps),
            "s": str(rng.randint(1, min(r, f * h02)) if r else 0),
            "special_fiber_brauer_finite": rng.random() < 0.5}
    if rng.random() < 0.5:
        data["dimVlBrXbarGK"] = str(rng.randint(0, 4))
    if rng.random() < 0.5:
        data["dimVlBrXs"] = str(rng.randint(0, 4))
    return data


def _submodule(rng):
    r = rng.randint(1, 8)
    p = rng.choice((2, 3, 5, 7, 11))

    def frac(num):
        den = rng.choice((1, 1, p, p * p, 2, 3))
        return str(num) if den == 1 else f"{num}/{den}"

    # A triangular basis with nonzero diagonal spans Q^r; extra generators
    # are random nonzero vectors.
    gens = []
    for i in range(r):
        vec = [frac(rng.randint(-6, 6)) if j < i else "0" for j in range(r)]
        vec[i] = str(rng.choice((1, -1)) * p ** rng.randint(0, 2))
        gens.append({"vector": vec, "tag": rng.choice(("local", "divisible"))})
    for _ in range(rng.randint(0, 3)):
        nums = [rng.randint(-6, 6) for _ in range(r)]
        if any(nums):
            gens.append({"vector": [frac(x) for x in nums],
                         "tag": rng.choice(("local", "divisible"))})
    rng.shuffle(gens)
    return {"rank": str(r), "prime": str(p), "generators": gens}


def _corpus_item(kind, rng):
    p = rng.choice((2, 3, 5, 7))
    if kind == "snf":
        m = dense(rng, rng.randint(1, 5), rng.randint(1, 5))
        return "snf", mat_json(m), ("snf", m)
    if kind == "group-cokernel":
        return "group", {"op": "cokernel",
                         "matrix": mat_json(dense(rng, rng.randint(1, 4), rng.randint(1, 4), 6))}, None
    if kind == "group-presentation":
        g = rng.randint(1, 4)
        return "group", {"op": "presentation", "generators": str(g),
                         "relations": mat_json(dense(rng, rng.randint(1, 3), g, 6))}, None
    if kind == "group-direct-sum":
        return "group", {"op": "direct-sum",
                         "groups": [_rand_group(rng) for _ in range(rng.randint(1, 3))]}, None
    if kind == "group-finite-coefficients":
        return "group", {"op": "finite-coefficients", "group": _rand_group(rng),
                         "modulus": str(rng.randint(1, 60))}, None
    if kind == "group-check-exact":
        n = rng.randint(2, 4)
        a = rng.randint(1, n - 1)
        w, winv = unimodular_pair(rng, n, 2 * n)
        f = [row[:a] for row in w]
        if rng.random() < 0.5:
            f = [[2 * row[0]] + row[1:] for row in f]
        return "group", {"op": "check-exact", "f": mat_json(f), "g": mat_json(winv[a:])}, None
    if kind in ("desc-tate", "desc-max-divisible", "desc-lim1", "desc-six-term"):
        return "descriptor", {"op": kind[5:], "group": _rand_descriptor(rng), "p": str(p)}, None
    if kind == "desc-finite-coefficients":
        return "descriptor", {"op": "finite-coefficients", "group": _rand_descriptor(rng),
                              "p": str(p), "j": str(rng.randint(1, 3))}, None
    if kind == "desc-completion-cokernel":
        return "descriptor", {"op": "completion-cokernel",
                              "group": _rand_descriptor(rng, free=False, inverted_with=p),
                              "next": _rand_descriptor(rng), "p": str(p)}, None
    if kind == "desc-extension-classes":
        div = {"rational": rng.choice(("1", "2", "continuum"))}
        if rng.random() < 0.6:
            div["pruefer"] = {"default": rng.randint(0, 1),
                              "exceptions": {str(p): rng.randint(0, 2)}}
        finite = {"free_rank": "0",
                  "invariant_factors": [str(rng.choice((2, 3, 4, 6, 8, 9, 12, 18, 36)))
                                        for _ in range(rng.randint(1, 2))]}
        return "descriptor", {"op": "extension-classes", "divisible": div, "finite": finite}, None
    if kind == "lim1":
        system = _rand_system(rng)
        strategy = rng.choice((None, "recursive", "ext_oracle"))
        if strategy:
            system["strategy"] = strategy
        return "lim1", system, None
    if kind == "ml":
        return "ml", _rand_system(rng), None
    if kind in ("ext-ext", "ext-hom", "ext-is-free"):
        return "ext-rank1", {"op": kind[4:], "profile": _rand_profile(rng)}, None
    if kind == "ext-quotient":
        return "ext-rank1", {"op": "quotient", "profile": _rand_profile(rng, (0, "inf"))}, None
    if kind == "ext-from-multipliers":
        nz = [x for x in range(-30, 31) if x]
        return "ext-rank1", {"op": "from-multipliers",
                             "prefix": [str(rng.choice(nz)) for _ in range(rng.randint(0, 3))],
                             "period": [str(rng.choice(nz)) for _ in range(rng.randint(1, 3))]}, None
    if kind == "classify-submodule":
        return "classify-submodule", _submodule(rng), None
    if kind == "val-factorial":
        return "valuation", {"op": "factorial", "p": str(p), "n": str(rng.randint(1, 10 ** 6))}, None
    if kind == "val-binomial":
        z = rng.randint(1, 10 ** 6)
        return "valuation", {"op": "binomial", "p": str(p), "z": str(z),
                             "u": str(rng.randint(0, z))}, None
    if kind == "val-lemma":
        s = rng.randint(1, 3)
        return "valuation", {"op": "lemma", "p": str(p), "n": str(rng.randint(1, 4)),
                             "s": str(s)}, None
    if kind == "val-unit-power":
        n = rng.randint(1, 4)
        s = next(k for k in range(8) if p ** k >= n) + rng.randint(0, 1)
        return "valuation", {"op": "unit-power", "p": str(p), "n": str(n), "s": str(s),
                             "degree_bound": str(rng.randint(1, 16))}, None
    if kind == "brauer-report":
        return "brauer", {"op": "report", **_brauer_invariants(rng)}, None
    if kind == "brauer-r":
        rho_x, comps = rng.randint(0, 5), rng.randint(1, 4)
        return "brauer", {"op": "r", "rho_X": str(rho_x), "I": str(comps),
                          "rho_Xs": str(rho_x + comps - 1 + rng.randint(0, 5))}, None
    if kind == "brauer-corank":
        return "brauer", {"op": "corank", "l_equals_p": rng.random() < 0.5,
                          "f": str(rng.randint(1, 3)), "h01": str(rng.randint(0, 3)),
                          "dimVlBrXbarGK": str(rng.randint(0, 5))}, None
    if kind == "brauer-corank-relation":
        return "brauer", {"op": "corank-relation", "r": str(rng.randint(0, 6)),
                          "dimVlBrXs": str(rng.randint(0, 6))}, None
    if kind == "brauer-k3-abelian":
        return "brauer", {"op": "k3-abelian", "r": str(rng.randint(0, 6)),
                          "p": str(rng.choice((2, 3, 5, 7, 19)))}, None
    if kind == "brauer-picard-rank":
        if rng.random() < 0.3:
            return "brauer", {"op": "picard-rank", "shape": "simple"}, None
        q = rng.choice((11, 13, 17, 19, 23, 29))
        c1 = q + 1 + rng.randint(-2, 2)
        c2 = c1 if rng.random() < 0.5 else q + 1 + rng.randint(-2, 2)
        return "brauer", {"op": "picard-rank", "shape": "product", "count1": str(c1),
                          "count2": str(c2), "p": str(q)}, None
    if kind == "brauer-jacobian-example":
        return "brauer", {"op": "jacobian-example",
                          "p": str(rng.choice((19, 29, 59, 79, 89, 109, 139, 149)))}, None
    if kind == "report":
        return "report", _brauer_invariants(rng), None
    raise ValueError(f"unknown corpus kind {kind!r}")


# The corpus kinds of each subcommand.  small-mix and cold-cli run equal
# counts per subcommand, spread round-robin over its kinds.
SUBCOMMAND_KINDS = {
    "snf": ("snf",),
    "group": ("group-cokernel", "group-presentation", "group-direct-sum",
              "group-finite-coefficients", "group-check-exact"),
    "descriptor": ("desc-tate", "desc-max-divisible", "desc-lim1", "desc-finite-coefficients",
                   "desc-six-term", "desc-completion-cokernel", "desc-extension-classes"),
    "lim1": ("lim1",),
    "ml": ("ml",),
    "ext-rank1": ("ext-ext", "ext-hom", "ext-quotient", "ext-is-free", "ext-from-multipliers"),
    "classify-submodule": ("classify-submodule",),
    "valuation": ("val-factorial", "val-binomial", "val-lemma", "val-unit-power"),
    "brauer": ("brauer-report", "brauer-r", "brauer-corank", "brauer-corank-relation",
               "brauer-k3-abelian", "brauer-picard-rank", "brauer-jacobian-example"),
    "report": ("report",),
}
# A cold-cli cycle of 50 takes about 9 s, so a run times at least two cycles.
PER_SUBCOMMAND = {"small-mix": 20, "cold-cli": 5}
# Each kind's corpus holds this many small-mix cycles' worth of instances, so
# a run draws no payload twice unless it runs more cycles than this.
CORPUS_CYCLES = 100


def corpus_kinds(workload):
    """The kinds of one cycle of a corpus workload, slot by slot."""
    n = PER_SUBCOMMAND[workload]
    return [kinds[i % len(kinds)] for kinds in SUBCOMMAND_KINDS.values() for i in range(n)]


def corpus_sizes():
    """Kind -> number of instances in the recorded corpus."""
    sizes = {kind: 0 for kinds in SUBCOMMAND_KINDS.values() for kind in kinds}
    for kind in corpus_kinds("small-mix"):
        sizes[kind] += CORPUS_CYCLES
    return sizes


def corpus_item(kind, index):
    """Instance `index` of a corpus kind, as (cmd, payload, extra check or None)."""
    return _corpus_item(kind, random.Random(f"limext-corpus:{kind}:{index}"))


def _from_corpus(kind, index):
    cmd, payload, extra = corpus_item(kind, index)
    expect = ("digest", kind, index) if extra is None else ("digest", kind, index, extra)
    return kind, cmd, payload, expect, False


def corpus_cycle(workload, seed, cycle):
    """One cycle of a corpus workload: each kind walks its corpus from a
    seeded start, so successive cycles draw distinct instances."""
    sizes = corpus_sizes()
    kinds = corpus_kinds(workload)
    per_kind = {kind: kinds.count(kind) for kind in set(kinds)}
    taken: dict[str, int] = {}
    out = []
    for kind in kinds:
        start = random.Random(f"limext-bench:{workload}:{seed}:{kind}").randrange(sizes[kind])
        j = taken[kind] = taken.get(kind, -1) + 1
        out.append(_from_corpus(kind, (start + cycle * per_kind[kind] + j) % sizes[kind]))
    return out


_GENERATORS = {"snf-transforms": snf_transforms, "structure": structure}
WORKLOADS = ("snf-transforms", "structure", "small-mix", "cold-cli")


def generate(workload: str, seed: int, cycle: int) -> list[Payload]:
    """Cycle `cycle` of a workload's payloads, in the order it is run.

    Every cycle has the same kinds and shapes in the same slots (the slot
    order is fixed by the seed); the entries, primes and corpus instances
    are drawn afresh for each cycle.  Cycle -1 is the warm-up.
    """
    if workload in _GENERATORS:
        items = _GENERATORS[workload](random.Random(f"limext-bench:{workload}:{seed}:{cycle}"))
    else:
        items = corpus_cycle(workload, seed, cycle)
    order = list(range(len(items)))
    random.Random(f"limext-bench:{workload}:{seed}:order").shuffle(order)
    out = []
    for slot, i in enumerate(order):
        kind, cmd, payload, expect, defect = items[i]
        out.append(Payload(slot, cycle, kind, cmd, json.dumps(payload, separators=(",", ":")),
                           expect, defect))
    return out
