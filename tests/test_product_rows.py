"""``SpadeAlgebra.product_table`` against one ``product`` call per pair.

``product_table`` calls ``product`` only on the name pairs whose name table
is nonzero.  Here its table is compared entry by entry with that of
``cli._product_table``, which calls ``product`` on every ordered pair, and
the number of ``product`` calls is pinned to the number of pairs that are
nonzero or out of the window.  ``name_product`` runs once per entry of the
name tables, one table per label triple: ``product`` reuses the names the
table found.
"""

import pytest

from hh2 import spadesuit
from hh2.cli import _product_table
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
    table = alg.product_table()
    del alg.product
    monkeypatch.undo()
    triples = {(c1.label, c2.label, target.label)
               for (a1, b1), c1 in alg.slots.items() for (a2, b2), c2 in alg.slots.items()
               if (target := component_at(p, a1 + a2, b1 + b2)) is not None}
    assert name_calls == sum(len(component_names(p, l1)) * len(component_names(p, l2))
                             for l1, l2, _ in triples)
    ref = _product_table(alg.basis, alg.product, p)

    def entries(table):
        """({(x, y): {t: c}} over the nonzero pairs, the out-of-window pairs)."""
        n, (x, y, t, c), (ox, oy) = table
        assert n == alg.dim
        out = list(zip(ox.tolist(), oy.tolist()))
        nonzero: dict = {}
        for i, j, el, cf in zip(x.tolist(), y.tolist(), t.tolist(), c.tolist()):
            assert el not in nonzero.setdefault((i, j), {})
            nonzero[i, j][el] = cf
        assert len(set(out)) == len(out) and not set(out) & set(nonzero)
        return nonzero, set(out)

    got, want = entries(table), entries(ref)
    assert got == want
    assert calls == len(want[0]) + len(want[1])
