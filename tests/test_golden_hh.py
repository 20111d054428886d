"""``hh`` prints the recorded bytes at p = 3, 5, 7, 11, 13, 23 and 31 for all
five coefficients, and at p = 41 for omega.

``tests/golden/hh_sha256.txt`` holds one line per job, ``P COEFFICIENT
SHA256``: the sha256 of the standard output of ``hh2 hh --p P --coefficient
COEFFICIENT``.  Every product of that output is a cup product projected to
named classes, so a change to ``cup``, ``project`` or the representatives
that alters any product, sign or order shows here.  The digests at p = 11, 13
and 23 were taken before the batched ``cup`` replaced the one-product loop,
those at p = 3, 5 and 7 before ``HHModule.project`` moved from the dict
elimination to the array one, and those at p = 31 and 41 before cochain
batches became COO arrays from the representatives to ``project``.  p = 41
omega is the one job here whose ``cup`` runs in more than one chunk.

Run this file as a script to record every digest again from the current tree.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from hh2.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "hh_sha256.txt"
KINDS = ["omega", "theta", "theta-sigma", "omega-dual", "omega-ep-omega"]
JOBS = [(p, kind) for p in (3, 5, 7, 11, 13, 23, 31) for kind in KINDS] + [(41, "omega")]
DIGESTS = [line.split() for line in GOLDEN.read_text().splitlines()]


def digest(p: int, coefficient: str) -> str:
    """The sha256 of what ``hh --p p --coefficient coefficient`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["hh", "--p", str(p), "--coefficient", coefficient]) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_the_recorded_jobs_are_the_listed_ones():
    assert [(int(p), kind) for p, kind, _ in DIGESTS] == JOBS


@pytest.mark.parametrize("p,coefficient,expected", DIGESTS,
                         ids=[f"p{p}-{k}" for p, k, _ in DIGESTS])
def test_hh_output_matches_digest(p, coefficient, expected):
    assert digest(int(p), coefficient) == expected


if __name__ == "__main__":
    GOLDEN.write_text("".join(f"{p} {kind} {digest(p, kind)}\n" for p, kind in JOBS))
