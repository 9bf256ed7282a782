"""`limext snf` keeps its exact bytes: SHA-256 digests of its output on
seeded matrices, recorded before `smith_normal_form` and `smith_diagonal`
shared one loop."""

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from pathlib import Path

from limext.cli import main

GOLDEN = Path(__file__).parent / "data" / "snf_golden.json"


def golden_matrices():
    """60 seeded matrices up to 10x12 with entries in +-9 or +-10**6; some
    have a zero row, a zero column or a row that is a sum of two others."""
    rng = random.Random(1996)
    out = []
    for i in range(60):
        rows, cols = rng.randint(1, 10), rng.randint(1, 12)
        bound = 9 if i % 2 == 0 else 10 ** 6
        ent = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
        if i % 3 == 1:
            ent[rng.randrange(rows)] = [0] * cols
        if i % 4 == 2:
            j = rng.randrange(cols)
            for row in ent:
                row[j] = 0
        if i % 5 == 3 and rows >= 3:
            a, b, c = rng.sample(range(rows), 3)
            ent[c] = [x + y for x, y in zip(ent[a], ent[b])]
        out.append(ent)
    return out


def snf_bytes(ent) -> bytes:
    payload = json.dumps({"rows": str(len(ent)), "cols": str(len(ent[0])),
                          "entries": [[str(x) for x in row] for row in ent]})
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(["snf", payload]) == 0
    return buf.getvalue().encode()


def test_snf_bytes_match_golden_digests():
    want = json.loads(GOLDEN.read_text())["sha256"]
    got = [hashlib.sha256(snf_bytes(ent)).hexdigest() for ent in golden_matrices()]
    assert len(got) == len(want) == 60
    assert [i for i, (a, b) in enumerate(zip(got, want)) if a != b] == []
