#!/usr/bin/env python
"""Regenerate the golden-equivalence fingerprints.

    PYTHONPATH=src:. python tools/gen_golden_equivalence.py

(from the repository root: the case matrix lives with the test suite).
Writes ``tests/integration/golden_equivalence.json.gz``: one fingerprint
per case of :func:`tests.integration.golden_cases.cases` (name → spec plus
fault profile), each run through the fault harness, capturing the
engine's RunStats, event log, metrics snapshot and meter total
byte-for-byte.  The corpus is stored gzipped (fixed mtime, so
regenerating unchanged semantics produces a bit-identical file).

``tests/integration/test_golden_equivalence.py`` holds the engine to the
committed file.  Only regenerate when run semantics change on purpose — a
refactor that needs regeneration is not a refactor.
"""

from __future__ import annotations

import gzip
import json
import sys
from pathlib import Path

from tests.integration.golden_cases import run_all

OUT = (
    Path(__file__).resolve().parent.parent
    / "tests"
    / "integration"
    / "golden_equivalence.json.gz"
)


def main() -> int:
    fingerprints = run_all()
    payload = (json.dumps(fingerprints, indent=1, sort_keys=True) + "\n").encode()
    # mtime=0 keeps the gzip header deterministic: regenerating unchanged
    # semantics yields a byte-identical file (clean diffs, stable hashes).
    OUT.write_bytes(gzip.compress(payload, mtime=0))
    total = sum(fp["stats"]["outputs"] for fp in fingerprints.values())
    print(f"wrote {OUT} ({len(fingerprints)} cases, {total} total outputs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
