"""The plain bar oracle of ``bar_reference`` logs the pieces, shapes and ranks that were recorded.

``tests/golden/bar_pieces_p<P>.txt`` holds the DEBUG lines
``bar piece n=.. bucket=.. rows=.. cols=.. nnz=.. rank=..`` that
``bar_oracle`` logs for each coefficient, under a ``# <kind>`` header, at
p = 3 (h <= 4) and p = 5 (h <= 3).  A change of the elimination must keep
every rank.  Run this file as a script to record them again.
"""
import logging
from pathlib import Path

import pytest

from hh2.clubsuit import NaturalMaps

from bar_reference import bar_oracle

GOLDEN = Path(__file__).resolve().parent / "golden"
KINDS = ["omega", "theta", "theta-sigma", "omega-dual", "omega-ep-omega"]
DEPTH = {3: 4, 5: 3}


class _Lines(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.lines: list[str] = []

    def emit(self, record):
        self.lines.append(record.getMessage())


def piece_lines(nm: NaturalMaps, n_max: int) -> str:
    """The oracle's DEBUG lines for the five coefficients, as recorded."""
    log = logging.getLogger("bar_reference")
    handler, level = _Lines(), log.level
    log.addHandler(handler)
    log.setLevel(logging.DEBUG)
    out = []
    try:
        for kind in KINDS:
            out.append(f"# {kind}")
            bar_oracle(nm.omega, nm.modules[kind], n_max)
            out += handler.lines
            handler.lines = []
    finally:
        log.removeHandler(handler)
        log.setLevel(level)
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("p", sorted(DEPTH))
def test_bar_pieces_match_golden(p, maps3, maps5):
    nm = {3: maps3, 5: maps5}[p]
    assert piece_lines(nm, DEPTH[p]) == (GOLDEN / f"bar_pieces_p{p}.txt").read_text()


if __name__ == "__main__":
    for p, n_max in DEPTH.items():
        (GOLDEN / f"bar_pieces_p{p}.txt").write_text(piece_lines(NaturalMaps(p), n_max))
