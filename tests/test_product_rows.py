"""``SpadeAlgebra.product_table`` and ``product`` against the per-pair reference.

``product_table`` builds the window's table from one name table per label
triple and never calls ``product``; ``product`` reads that table.  Here both
are compared, entry by entry, with ``tests/spade_reference.py``, the per-pair
product rule that ``SpadeAlgebra.product`` was before.  ``name_table`` is
built once per label triple of the window, and a second window over the same
labels reads the cached tables without building any.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spade_reference as ref
from hh2 import spadesuit
from hh2.clubsuit import OUT_OF_WINDOW, component_at
from hh2.spadesuit import build_spade
from tables import component

# (p, a_min, a_max, b_min, b_max): a window and the b-range its slots fill,
# None for the a-range, which the b-range mirrors
WINDOWS = ([(p, -3, 4, None, None) for p in (3, 5, 7)]
           + [(p, -2, 3, None, None) for p in (3, 11, 13)]
           + [(5, 0, 0, 0, 0)])     # one slot: the class algebra chi at (0, 0)


def entries(table, dim):
    """({(x, y): {t: c}} over the nonzero pairs, the out-of-window pairs)."""
    n, (x, y, t, c), (ox, oy) = table
    assert n == dim
    out = list(zip(ox.tolist(), oy.tolist()))
    nonzero: dict = {}
    for i, j, el, cf in zip(x.tolist(), y.tolist(), t.tolist(), c.tolist()):
        assert el not in nonzero.setdefault((i, j), {})
        nonzero[i, j][el] = cf
    assert len(set(out)) == len(out) and not set(out) & set(nonzero)
    return nonzero, set(out)


def label_triples(alg):
    """The (left, right, target) labels of the window's slot pairs whose
    target is a grid slot."""
    return {(c1.label, c2.label, target.label)
            for (a1, b1), c1 in alg.slots.items() for (a2, b2), c2 in alg.slots.items()
            if (target := component_at(alg.p, a1 + a2, b1 + b2)) is not None}


@pytest.mark.parametrize("window", WINDOWS, ids=str)
def test_rows_match_one_call_per_pair(window, monkeypatch):
    p, a_min, a_max, b_min, b_max = window
    alg = build_spade(p, a_min, a_max)
    b_lo, b_hi = (a_min, a_max) if b_min is None else (b_min, b_max)
    assert {b for _, b in alg.slots} == set(range(b_lo, b_hi + 1))
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1

    spadesuit.name_table.cache_clear()
    monkeypatch.setattr(spadesuit.SpadeAlgebra, "product", counted)
    table = alg.product_table()
    assert calls == 0
    assert spadesuit.name_table.cache_info().misses == len(label_triples(alg))
    build_spade(p, a_min, a_max).product_table()  # the name tables are cached
    assert spadesuit.name_table.cache_info().misses == len(label_triples(alg))
    monkeypatch.undo()
    assert alg.product_table() is table
    assert entries(table, alg.dim) == entries(ref.product_table(alg), alg.dim)


def test_product_reads_the_table():
    alg = build_spade(3, -3, 4)
    table = alg.product_table()
    nonzero, out = entries(table, alg.dim)
    for i, m1 in enumerate(alg.basis):
        for j, m2 in enumerate(alg.basis):
            want = ref.product(alg, m1, m2)
            assert alg.product(m1, m2) == want
            if want is OUT_OF_WINDOW:
                assert (i, j) in out
            else:
                assert {alg.index[el.a, el.b, el.name]: c for el, c in want.items()} \
                    == nonzero.get((i, j), {})


@st.composite
def windows_and_slot_pairs(draw):
    """A window at a small prime, which always holds the slot (0, 0), and
    some pairs of its slots."""
    p = draw(st.sampled_from([3, 5, 7, 11]))
    alg = build_spade(p, draw(st.integers(-4, 0)), draw(st.integers(0, 5)))
    slots = sorted(alg.slots)
    pairs = draw(st.lists(st.tuples(st.sampled_from(slots), st.sampled_from(slots)),
                          min_size=1, max_size=8))
    return alg, pairs


@settings(max_examples=40, deadline=None)
@given(windows_and_slot_pairs())
def test_random_windows_match_the_pair_reference(case):
    """On random windows, ``product_table`` and ``product`` agree with the
    reference on every element pair of the drawn slot pairs."""
    alg, pairs = case
    nonzero, out = entries(alg.product_table(), alg.dim)
    for s1, s2 in pairs:
        for m1 in component(alg, *s1):
            for m2 in component(alg, *s2):
                i, j = alg.index[m1.a, m1.b, m1.name], alg.index[m2.a, m2.b, m2.name]
                want = ref.product(alg, m1, m2)
                assert alg.product(m1, m2) == want
                if want is OUT_OF_WINDOW:
                    assert (i, j) in out and (i, j) not in nonzero
                else:
                    assert (i, j) not in out
                    assert nonzero.get((i, j), {}) == {
                        alg.index[el.a, el.b, el.name]: c for el, c in want.items()}
