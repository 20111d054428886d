"""``SpadeAlgebra.product_rows`` against one ``product`` call per pair.

``product_rows`` calls ``product`` only on the name pairs whose name table is
nonzero.  Here its rows are compared with ``cli._product_rows``, which calls
``product`` on every ordered pair, and the number of ``product`` calls is
pinned to the number of entries that are not ().
"""

import pytest

from hh2.cli import _product_rows
from hh2.spadesuit import build_spade

# (p, a_min, a_max, b_min, b_max): a window and the b-range its slots fill,
# None for the a-range, which the b-range mirrors
WINDOWS = ([(p, -3, 4, None, None) for p in (3, 5, 7)]
           + [(p, -2, 3, None, None) for p in (3, 11, 13)]
           + [(5, 0, 0, 0, 0)])     # one slot: the class algebra chi at (0, 0)


@pytest.mark.parametrize("window", WINDOWS, ids=str)
def test_rows_match_one_call_per_pair(window):
    p, a_min, a_max, b_min, b_max = window
    alg = build_spade(p, a_min, a_max)
    b_lo, b_hi = (a_min, a_max) if b_min is None else (b_min, b_max)
    assert {b for _, b in alg.slots} == set(range(b_lo, b_hi + 1))
    calls = 0
    product = alg.product

    def counted(m1, m2):
        nonlocal calls
        calls += 1
        return product(m1, m2)

    alg.product = counted
    rows = alg.product_rows()
    del alg.product
    ref = _product_rows(alg.basis, alg.product)

    assert len(rows) == len(ref) == alg.dim
    for row, ref_row in zip(rows, ref):
        assert len(row) == len(ref_row)
        for r, want in zip(row, ref_row):
            if want is None or want == ():
                assert r == want and type(r) is type(want)
            else:
                assert r and dict(r) == dict(want)
    assert calls == sum(r != () for row in ref for r in row)

