"""``verify`` prints the recorded text, byte for byte, at p = 3, 5, 7, 11 and 13.

``tests/golden/verify_p<P>.txt`` is the standard output of
``hh2 verify --p P --format csv``: every check in order, with its status and,
for a SKIP or FAIL, its reason.  A change that keeps the answers keeps these
bytes; a change that alters a check, its order or a reason must record the
files again and say why.
"""

from pathlib import Path

import pytest

from hh2.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_verify_text_matches_golden(p, capsys):
    assert main(["verify", "--p", str(p), "--format", "csv"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"verify_p{p}.txt").read_text()
