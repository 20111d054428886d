"""``hh`` prints the recorded bytes at p = 3, 5, 7, 11, 13 and 23 for all five
coefficients.

``tests/golden/hh_sha256.txt`` holds one line per job, ``P COEFFICIENT
SHA256``: the sha256 of the standard output of ``hh2 hh --p P --coefficient
COEFFICIENT``.  Every product of that output is a cup product projected to
named classes, so a change to ``cup``, ``project`` or the representatives
that alters any product, sign or order shows here.  The digests at p = 11, 13
and 23 were taken before the batched ``cup`` replaced the one-product loop,
and those at p = 3, 5 and 7 before ``HHModule.project`` moved from the dict
elimination to the array one.
"""

import hashlib
from pathlib import Path

import pytest

from hh2.cli import main

DIGESTS = [line.split() for line in
           (Path(__file__).resolve().parent / "golden" / "hh_sha256.txt").read_text().splitlines()]


@pytest.mark.parametrize("p,coefficient,digest", DIGESTS, ids=[f"p{p}-{k}" for p, k, _ in DIGESTS])
def test_hh_output_matches_digest(p, coefficient, digest, capsys):
    assert main(["hh", "--p", p, "--coefficient", coefficient]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
