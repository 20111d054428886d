"""``SpadeAlgebra.product_rows`` against one ``product`` call per pair.

``product_rows`` calls ``product`` only on the name pairs whose name table is
nonzero.  Here its rows are compared with ``cli._product_rows``, which calls
``product`` on every ordered pair, and the number of ``product`` calls is
pinned to the number of entries that are not ().  ``name_product`` runs once
per entry of the name tables, one table per label triple: ``product`` reuses
the names the table found.
"""

import pytest

from hh2 import spadesuit
from hh2.cli import _product_rows
from hh2.clubsuit import component_at
from hh2.spadesuit import build_spade, component_names

# (p, a_min, a_max, b_min, b_max): a window and the b-range its slots fill,
# None for the a-range, which the b-range mirrors
WINDOWS = ([(p, -3, 4, None, None) for p in (3, 5, 7)]
           + [(p, -2, 3, None, None) for p in (3, 11, 13)]
           + [(5, 0, 0, 0, 0)])     # one slot: the class algebra chi at (0, 0)


@pytest.mark.parametrize("window", WINDOWS, ids=str)
def test_rows_match_one_call_per_pair(window, monkeypatch):
    p, a_min, a_max, b_min, b_max = window
    alg = build_spade(p, a_min, a_max)
    b_lo, b_hi = (a_min, a_max) if b_min is None else (b_min, b_max)
    assert {b for _, b in alg.slots} == set(range(b_lo, b_hi + 1))
    calls, name_calls = 0, 0
    product, name_product = alg.product, spadesuit.name_product

    def counted(m1, m2, names=None):
        nonlocal calls
        calls += 1
        return product(m1, m2, names)

    def counted_names(*args):
        nonlocal name_calls
        name_calls += 1
        return name_product(*args)

    alg.product = counted
    monkeypatch.setattr(spadesuit, "name_product", counted_names)
    rows = alg.product_rows()
    del alg.product
    monkeypatch.undo()
    triples = {(c1.label, c2.label, target.label)
               for (a1, b1), c1 in alg.slots.items() for (a2, b2), c2 in alg.slots.items()
               if (target := component_at(p, a1 + a2, b1 + b2)) is not None}
    assert name_calls == sum(len(component_names(p, l1)) * len(component_names(p, l2))
                             for l1, l2, _ in triples)
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

