"""``spadesuit`` prints the recorded bytes for the listed jobs.

``tests/golden/spadesuit_sha256.txt`` holds one line per job, ``SHA256 ARGS``:
the sha256 of the standard output of ``hh2 spadesuit ARGS``.  The jobs are
the default window at p = 3, 5, 7, 11 and 13 with ``--check-associativity``,
the same at p <= 7 with ``--verify-first-principles`` too, the one-slot
window (0, 0) at p = 5, and two windows that are not symmetric about 0: a
from -1 to 2 at p = 7, and the plus side alone, a from 1 to 3, at p = 5.  The
output lists every nonzero product of the window's basis, so a change to a
product, a sign or the out-of-window pairs shows here.  The digests were
recorded while ``SpadeAlgebra.product`` was still the per-pair rule that
``tests/spade_reference.py`` keeps; the two asymmetric windows while the
window's table was still built from one name table per group of slot pairs.

Run this file as a script to record every digest again from the current tree.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from hh2.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "spadesuit_sha256.txt"
JOBS = ([f"--p {p} --check-associativity" for p in (3, 5, 7, 11, 13)]
        + [f"--p {p} --check-associativity --verify-first-principles" for p in (3, 5, 7)]
        + ["--p 5 --a-min 0 --a-max 0", "--p 7 --a-min -1 --a-max 2", "--p 5 --a-min 1 --a-max 3"])
DIGESTS = [line.split(" ", 1) for line in GOLDEN.read_text().splitlines()]


def digest(args: str) -> str:
    """The sha256 of what ``spadesuit ARGS`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["spadesuit", *args.split()]) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_the_recorded_jobs_are_the_listed_ones():
    assert [args for _, args in DIGESTS] == JOBS


@pytest.mark.parametrize("expected,args", DIGESTS, ids=[args for _, args in DIGESTS])
def test_spadesuit_output_matches_digest(expected, args):
    assert digest(args) == expected


if __name__ == "__main__":
    GOLDEN.write_text("".join(f"{digest(args)} {args}\n" for args in JOBS))
