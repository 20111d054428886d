"""The tower's product table against the per-pair reference.

``HHLAlgebra.product_table`` joins the grid's table factor by factor;
``tests/tower_reference.py`` multiplies one pair of tuples at a time, as
``HHLAlgebra.product`` did before the table.  They are compared on random
windows of the real grid, and on random grid tables over a small window's
basis, which reach every rule of the product: a factor out of the window or
zero, a result tuple off the basis, and grid terms that cancel.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import tower_reference as ref
from hh2 import operators
from hh2.operators import build_hhl
from hh2.quiver import window_table
from hh2.spadesuit import OUT_OF_WINDOW, build_spade


def same_table(a, b) -> bool:
    return a.n == b.n and all(np.array_equal(u, v) for u, v in
                              zip((*a.terms, *a.out), (*b.terms, *b.out)))


def matches_reference(alg) -> bool:
    """Whether the tower's table equals the one that the reference builds
    with one product per pair."""
    return same_table(alg.product_table(), ref.product_table(alg))


@example(p=3, a_min=0, a_max=1, level=0, k_max=-1)  # hh_0 left empty
@example(p=3, a_min=-1, a_max=2, level=3, k_max=None)
@example(p=3, a_min=-3, a_max=4, level=2, k_max=12)
@example(p=7, a_min=-2, a_max=3, level=2, k_max=4)
@settings(max_examples=25, deadline=None)
@given(p=st.sampled_from([3, 5, 7]), a_min=st.integers(-3, 0), a_max=st.integers(0, 4),
       level=st.integers(0, 3), k_max=st.none() | st.integers(-1, 10))
def test_table_matches_the_pair_reference(p, a_min, a_max, level, k_max):
    spade = build_spade(p, a_min, a_max)
    assume(ref.tower_size(spade, level, k_max) <= 100)
    assert matches_reference(build_hhl(p, level, spade, k_max=k_max))


@st.composite
def random_grids(draw):
    """The grid of p = 3 on the window 0..1 (10 elements) with a random
    table: terms that may repeat, so that some sum to zero, and out pairs
    that may also have terms."""
    spade = build_spade(3, 0, 1)
    n = spade.dim
    index = st.integers(0, n - 1)
    terms = draw(st.lists(st.tuples(index, index, index, st.integers(1, 2)), max_size=60))
    out = draw(st.lists(st.tuples(index, index), max_size=30))
    if terms:  # each of these cancels a term
        terms += [(x, y, t, 3 - c) for x, y, t, c in draw(st.lists(st.sampled_from(terms)))]
    spade._table = window_table(n, [np.array(terms, dtype=np.int64).reshape(-1, 4).T],
                                [np.array(out, dtype=np.int64).reshape(-1, 2).T], 3)
    return spade


@settings(max_examples=60, deadline=None)
@given(random_grids(), st.integers(1, 3))
def test_table_matches_the_pair_reference_on_random_grid_tables(spade, level):
    assert matches_reference(build_hhl(3, level, spade))


def test_a_zero_factor_before_an_out_factor_makes_zero():
    # verify's hh_2 at p = 3 has 276 such pairs
    spade = build_spade(3, -3, 4)
    alg = build_hhl(3, 2, spade, k_max=12)
    pairs = [(e1, e2) for e1 in alg.basis for e2 in alg.basis
             if spade.product(e1.factors[0], e2.factors[0]) == {}
             and spade.product(e1.factors[1], e2.factors[1]) is OUT_OF_WINDOW]
    assert len(pairs) == 276
    assert all(alg.product(e1, e2) == ref.product(alg, e1, e2) == {} for e1, e2 in pairs)


def test_terms_that_cancel_make_zero_not_out():
    # two grid terms on one element off hh_1 cancel: the pair is zero; one
    # of them alone puts the pair out
    spade = build_spade(3, 0, 1)
    e1, e2 = build_hhl(3, 1, spade).basis[:2]
    x, y = (spade.index[m.a, m.b, m.name] for m in (e1.factors[0], e2.factors[0]))
    t = next(i for i, m in enumerate(spade.basis) if m.i != 0)
    for cs, want in (((1, 2), {}), ((1,), OUT_OF_WINDOW)):
        terms = np.array([(x, y, t, c) for c in cs], dtype=np.int64).T
        spade._table = window_table(spade.dim, [terms], [], 3)
        alg = build_hhl(3, 1, spade)
        assert alg.product(e1, e2) == ref.product(alg, e1, e2) == want


def test_a_flipped_tower_sign_fails_the_comparison(monkeypatch):
    sign = operators.super_sign
    monkeypatch.setattr(operators, "super_sign", lambda k1, k2: -sign(k1, k2))
    alg = build_hhl(3, 2, build_spade(3, -3, 4), k_max=12)
    assert not matches_reference(alg)


def test_an_over_large_tower_is_refused_before_its_table():
    spade = build_spade(3, -3, 4)
    alg = build_hhl(3, 5, spade)  # 18,662 elements, so 348M products
    with pytest.raises(operators.UnboundedWindow, match="hh_5 has 18662 elements"):
        alg.product_table()
