"""The ``hhl`` listings and the CSV listings print the recorded bytes.

``tests/golden/listings_sha256.txt`` holds one line per job, ``SHA256 ARGS``:
the sha256 of the standard output of ``hh2 ARGS``.  The jobs are ``hhl --p 3``
at levels 2, 3 and 4 in JSON and in CSV, and at level 3 with ``--k-max 6``,
which prunes tuples as they are listed, ``hh --p 3`` and ``--p 5`` in CSV for
every coefficient, and ``spadesuit --p 3`` and ``--p 5`` in CSV.  A change to
the order, the text or the CSV quoting of a basis row shows here; the JSON of
``hh`` and ``spadesuit`` is pinned by ``test_golden_hh.py`` and
``test_golden_spadesuit.py``.  The digests were recorded while the CLI still
built every listing as a tree of dicts for one generic JSON writer, the two
``--k-max 6`` ones while the tower still listed its basis tuple by tuple.

Run this file as a script to record every digest again from the current tree.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from hh2.cli import COEFFS, main

GOLDEN = Path(__file__).resolve().parent / "golden" / "listings_sha256.txt"
JOBS = ([f"hhl --p 3 --l {level}{fmt}" for level in (2, 3, 4) for fmt in ("", " --format csv")]
        + [f"hhl --p 3 --l 3 --k-max 6{fmt}" for fmt in ("", " --format csv")]
        + [f"hh --p {p} --coefficient {kind} --format csv" for p in (3, 5) for kind in COEFFS]
        + [f"spadesuit --p {p} --format csv" for p in (3, 5)])
DIGESTS = [line.split(" ", 1) for line in GOLDEN.read_text().splitlines()]


def digest(args: str) -> str:
    """The sha256 of what ``hh2 ARGS`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(args.split()) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_the_recorded_jobs_are_the_listed_ones():
    assert [args for _, args in DIGESTS] == JOBS


@pytest.mark.parametrize("expected,args", DIGESTS, ids=[args for _, args in DIGESTS])
def test_listing_matches_digest(expected, args):
    assert digest(args) == expected


if __name__ == "__main__":
    GOLDEN.write_text("".join(f"{digest(args)} {args}\n" for args in JOBS))
