"""Record output digests of the small-mix corpus into perfbench/digests.json.

Run from the repository root, at the commit whose outputs are the reference:

    python3 perfbench/record_digests.py

Every corpus payload must exit 0; the script stops otherwise.  Payloads of
the other workloads are checked by contract or by construction and need no
digests.
"""

from __future__ import annotations

import json
import random
import sys

from checks import check_output, digest
from run import DIGESTS, SRC, call_inprocess, import_cli
from workloads import Payload, corpus_item, corpus_sizes


def main() -> int:
    sys.path.insert(0, str(SRC))
    cli = import_cli()
    digests = {}
    for kind, size in corpus_sizes().items():
        parts = []
        for i in range(size):
            cmd, payload, extra = corpus_item(kind, i)
            text = json.dumps(payload, separators=(",", ":"))
            _, status, text = call_inprocess(cli, Payload(i, 0, kind, cmd, text, ()))
            if status != 0:
                raise SystemExit(f"{kind}:{i} exited with {status}: {text[:300]}")
            if extra is not None:
                check_output(extra, text, random.Random(0), {})
            parts.append(digest(text))
        digests[kind] = "".join(parts)
    DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    print(f"recorded {sum(corpus_sizes().values())} digests in {DIGESTS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
