"""Byte-for-byte golden outputs of ``derive-boundary``.

``tests/data/boundary_sha256.json`` maps each command line to the SHA-256
of the ``boundary.json`` and ``run.manifest`` it writes.  The digests were
taken from the rational-arithmetic root construction; the integer lattice
construction must reproduce every byte.
"""

import hashlib
import json
from pathlib import Path

import pytest

from todalab.cli import main

GOLDEN = json.loads((Path(__file__).parent / "data" / "boundary_sha256.json").read_text())


@pytest.mark.parametrize("args", sorted(GOLDEN))
def test_derive_boundary_matches_golden_digest(args, tmp_path):
    out = tmp_path / "out"
    assert main(["derive-boundary", *args.split(), "--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN[args]}
    assert got == GOLDEN[args]
