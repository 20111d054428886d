"""The associativity scan behind ``verify`` and ``spadesuit --check-associativity``.

``quiver.window_associativity`` scans a window's product table with the
half-joins of ``failing_triple``.  Here it is compared with two references
kept in this file: the plain triple loop, and the per-middle-index walker
that scanned the dense rows before it.  The comparison runs on random
tables that are mostly not associative, and on the real grid and club
windows, each also with one corrupted product.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hh2.cli import _club_associativity, _spade_associativity, _supercommutativity
from hh2.clubsuit import ClubWindow, NaturalMaps
from hh2.quiver import window_associativity, window_table
from hh2.spadesuit import build_spade

import club_reference
import spade_reference


def table_of(rows: list[list], p: int):
    """The ``WindowTable`` of dense rows: rows[i][j] is None out of the
    window, else the ((index, coeff), ...) terms of basis[i] * basis[j]."""
    terms, out = [], []
    for i, row in enumerate(rows):
        for j, r in enumerate(row):
            if r is None:
                out += i, j
            else:
                for el, c in r:
                    terms += i, j, el, c
    return window_table(len(rows), [np.array(terms, dtype=np.int64).reshape(-1, 4).T],
                        [np.array(out, dtype=np.int64).reshape(-1, 2).T], p)


def summed(rows: list[list], p: int) -> list[list]:
    """rows as a ``WindowTable`` stores them: the terms of each product
    summed per index mod p, zero sums dropped, indices ascending."""
    def entry(r):
        if r is None:
            return None
        acc: dict = {}
        for el, c in r:
            acc[el] = (acc.get(el, 0) + c) % p
        return tuple((el, c) for el, c in sorted(acc.items()) if c)

    return [[entry(r) for r in row] for row in rows]


def rows_of(table) -> list[list]:
    """The dense rows of a ``WindowTable``, as ``table_of`` reads them."""
    n, (x, y, t, c), (ox, oy) = table
    rows = [[()] * n for _ in range(n)]
    for i, j in zip(ox.tolist(), oy.tolist()):
        rows[i][j] = None
    for i, j, el, cf in zip(x.tolist(), y.tolist(), t.tolist(), c.tolist()):
        rows[i][j] += ((el, cf),)
    return rows


def cubic_associativity(rows: list[list], p: int) -> tuple[int, int]:
    """(checked, failed) over all triples whose products stay in the window."""
    n = len(rows)
    checked = failed = 0
    for i in range(n):
        row_i = rows[i]
        for j in range(n):
            r12 = row_i[j]
            if r12 is None:
                continue
            row_j = rows[j]
            for k in range(n):
                r23 = row_j[k]
                if r23 is None:
                    continue
                if not r12 and not r23:
                    checked += 1
                    continue
                ok = True
                acc: dict = {}
                for el, c in r12:
                    r = rows[el][k]
                    if r is None:
                        ok = False
                        break
                    for el2, c2 in r:
                        acc[el2] = (acc.get(el2, 0) + c * c2) % p
                if not ok:
                    continue
                for el, c in r23:
                    r = row_i[el]
                    if r is None:
                        ok = False
                        break
                    for el2, c2 in r:
                        acc[el2] = (acc.get(el2, 0) - c * c2) % p
                if not ok:
                    continue
                checked += 1
                if any(acc.values()):
                    failed += 1
    return checked, failed


def walker_associativity(rows: list[list], p: int) -> tuple[int, int]:
    """(checked, failed) over all triples whose products stay in the window.

    A triple (i, j, k) with rows[i][j] and rows[j][k] in the window is
    checked unless it is spoiled: some term el of rows[i][j] has
    rows[el][k] out of the window, or some term el of rows[j][k] has
    rows[i][el] out of it.  It fails if (xy)z - x(yz) is nonzero mod p.

    Both conditions need a term, so a triple whose two products are empty
    is checked and holds (0 = 0).  The scan therefore takes one middle index
    j at a time: it counts all #{i: rows[i][j] in window} x
    #{k: rows[j][k] in window} triples, then walks only the terms of the
    nonempty rows[i][j] (along row el) and of the nonempty rows[j][k] (down
    column el).  Out-of-window entries met on the walk mark (i, k) spoiled;
    nonempty ones add to (xy)z or subtract for x(yz).  Every triple the walk
    does not reach has both sides 0.  Spoiled pairs are taken off the count
    and every other pair the walk reached fails if its sum is nonzero mod p,
    so the result equals the full n^3 triple scan with work that grows with
    the nonempty products instead.
    """
    n = len(rows)
    row_out = [[k for k, r in enumerate(row) if r is None] for row in rows]
    row_nz = [[(k, r) for k, r in enumerate(row) if r] for row in rows]
    col_out: list[list] = [[] for _ in range(n)]
    col_nz: list[list] = [[] for _ in range(n)]
    for i in range(n):
        for j in row_out[i]:
            col_out[j].append(i)
        for j, r in row_nz[i]:
            col_nz[j].append((i, r))

    checked = failed = 0
    for j in range(n):
        row_j = rows[j]
        left_in = [row[j] is not None for row in rows]
        checked += (n - len(col_out[j])) * (n - len(row_out[j]))
        spoiled: set[int] = set()
        acc: dict[int, dict] = {}  # i * n + k -> (xy)z - x(yz) by basis index
        for i, r12 in col_nz[j]:
            for el, c in r12:
                for k in row_out[el]:
                    if row_j[k] is not None:
                        spoiled.add(i * n + k)
                for k, r in row_nz[el]:
                    if row_j[k] is not None:
                        d = acc.setdefault(i * n + k, {})
                        for el2, c2 in r:
                            d[el2] = d.get(el2, 0) + c * c2
        for k, r23 in row_nz[j]:
            for el, c in r23:
                for i in col_out[el]:
                    if left_in[i]:
                        spoiled.add(i * n + k)
                for i, r in col_nz[el]:
                    if left_in[i]:
                        d = acc.setdefault(i * n + k, {})
                        for el2, c2 in r:
                            d[el2] = d.get(el2, 0) - c * c2
        checked -= len(spoiled)
        for key, d in acc.items():
            if key not in spoiled and any(v % p for v in d.values()):
                failed += 1
    return checked, failed


@st.composite
def product_tables(draw):
    """(rows, p): an n x n table, n <= 12, whose entries are None (out of
    the window), () (a zero product) or 1-3 (index, coeff) terms with coeff
    in [1, p).  Half the entries are zero products, so that some tables are
    associative; most (about 80%) are not.  Entries come from one seeded
    random source, which keeps generation fast."""
    p = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(0, 12))
    rnd = draw(st.randoms(use_true_random=False))

    def entry():
        kind = rnd.randrange(4)
        if kind == 0:
            return None
        if kind < 3:
            return ()
        return tuple((rnd.randrange(n), rnd.randrange(1, p)) for _ in range(rnd.randint(1, 3)))

    return [[entry() for _ in range(n)] for _ in range(n)], p


# e*e = e; x*x = y with y*x = x and x*y = 0, so (xx)x = x but x(xx) = 0
# fails; x*x = y with x*y out of the window, so that triple is spoiled
@example(([[((0, 1),), ()], [(), ()]], 3))
@example(([[((1, 1),), ()], [((0, 1),), ()]], 5))
@example(([[((1, 1),), None], [(), ()]], 3))
@settings(max_examples=150, deadline=None)
@given(product_tables())
def test_scan_matches_triple_loop(case):
    rows, p = case
    # repeated terms are summed in the table, so the references read the
    # summed rows: a term that cancels spoils no triple
    want = cubic_associativity(summed(rows, p), p)
    assert window_associativity(table_of(rows, p), p) == want
    assert walker_associativity(summed(rows, p), p) == want


@settings(max_examples=100, deadline=None)
@given(product_tables(), st.integers(0, 11))
def test_scan_matches_walker_with_out_pairs_at_the_edges(case, r):
    # the out-of-window mask at its corners (0, 0) and (n - 1, n - 1) and
    # along a whole row
    rows, p = case
    n = len(rows)
    if n:
        rows = [list(row) for row in rows]
        rows[0][0] = rows[n - 1][n - 1] = None
        rows[r % n] = [None] * n
    want = walker_associativity(summed(rows, p), p)
    assert window_associativity(table_of(rows, p), p) == want == cubic_associativity(
        summed(rows, p), p)


def test_grid_counts():
    for p, lo, hi, want in ((3, -3, 4, (2256198, 0)), (5, -3, 4, (17332885, 0)),
                            (11, -2, 3, (46866503, 0))):
        alg = build_spade(p, lo, hi)
        assert _spade_associativity(spade_reference.product_table(alg), p) == want


def test_grid_count_p13():
    alg = build_spade(13, -2, 3)
    assert _spade_associativity(alg.product_table(), 13) == (80540639, 0)


def corrupted(rows: list[list], p: int) -> list[list]:
    """A copy of rows with the first coefficient of the middle nonzero
    product changed to another nonzero value mod p."""
    nz = [(i, j) for i, row in enumerate(rows) for j, r in enumerate(row) if r]
    i, j = nz[len(nz) // 2]
    (el, c), *rest = rows[i][j]
    rows = [list(row) for row in rows]
    rows[i][j] = ((el, c % (p - 1) + 1), *rest)
    return rows


def test_grid_windows_match_walker():
    # the windows verify scans, with their counts, and the failures after
    # one corrupted product
    for p, lo, hi, want, bad in ((3, -3, 4, (2256198, 0), 7), (5, -3, 4, (17332885, 0), 16),
                                 (7, -2, 3, (10347329, 0), 71),
                                 (11, -2, 3, (46866503, 0), 51),
                                 (13, -2, 3, (80540639, 0), 9)):
        table = build_spade(p, lo, hi).product_table()
        assert _spade_associativity(table, p) == want
        rows = rows_of(table)
        assert walker_associativity(rows, p) == want
        rows = corrupted(rows, p)
        assert window_associativity(table_of(rows, p), p) == walker_associativity(rows, p) \
            == (want[0], bad)


def test_grid_window_with_out_pairs_at_the_edges_matches_walker():
    rows = rows_of(build_spade(3, -3, 4).product_table())
    n = len(rows)
    rows[0][0] = rows[n - 1][n - 1] = None
    rows[n // 2] = [None] * n
    rows = corrupted(rows, 3)
    checked, failed = walker_associativity(rows, 3)
    assert window_associativity(table_of(rows, 3), 3) == (checked, failed)
    assert checked < 2256198 and failed > 0


def test_club_window_matches_walker():
    win = ClubWindow(NaturalMaps(3), -3, 4)
    rows = rows_of(club_reference.product_table(win))
    assert _club_associativity(win) == walker_associativity(rows, 3) == (1676825, 0)
    rows = corrupted(rows, 3)
    checked, failed = window_associativity(table_of(rows, 3), 3)
    assert (checked, failed) == walker_associativity(rows, 3) and failed > 0


def test_scan_cost_follows_nonzero_products():
    # a 1000-element zero algebra with one product out of the window: the
    # triple loop would visit 10^9 triples, the scan visits no product
    n, out = 1000, [(np.array([3]), np.array([5]))]
    assert window_associativity(window_table(n, [], out, 3), 3) == (n ** 3 - 2 * n, 0) \
        == (999998000, 0)


# -- supercommutativity ---------------------------------------------------------


def pairwise_supercommutativity(rows: list[list], ks: list[int], p: int) -> int:
    """Number of in-window pairs with x y != (-1)^{k(x) k(y)} y x, where
    ks[i] is the k-degree of basis element i; the terms of a product at one
    index are summed mod p."""
    def combo(terms, sign):
        acc: dict = {}
        for el, c in terms:
            acc[el] = (acc.get(el, 0) + sign * c) % p
        return {el: c for el, c in acc.items() if c}

    bad = 0
    for i, row in enumerate(rows):
        for j, r12 in enumerate(row):
            r21 = rows[j][i]
            if r12 is None or r21 is None:
                continue
            sign = -1 if (ks[i] * ks[j]) % 2 else 1
            if combo(r12, 1) != combo(r21, sign):
                bad += 1
    return bad


@st.composite
def graded_tables(draw):
    """(rows, ks, p): an n x n table, n <= 10, with k-degrees ks in [0, 3].

    Each unordered pair {i, j} is drawn as a whole: out of the window on one
    or both sides, zero on both sides, x y = () with y x nonzero (either
    way round), y x the signed x y (supercommutative), or both sides random.
    Terms have coefficients in [0, 2p), so some vanish mod p.  Most tables
    have a failing pair."""
    p = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(0, 10))
    rnd = draw(st.randoms(use_true_random=False))
    ks = [rnd.randrange(4) for _ in range(n)]

    def terms():
        return tuple((rnd.randrange(n), rnd.randrange(2 * p)) for _ in range(rnd.randint(1, 3)))

    rows: list[list] = [[()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            kind = rnd.randrange(6)
            if kind == 0:
                rows[i][j] = None
                rows[j][i] = rnd.choice((None, (), terms()))
            elif kind == 1:
                continue
            elif kind == 2:
                rows[i][j] = terms()
                if rnd.random() < 0.5:
                    rows[i][j], rows[j][i] = (), rows[i][j]
            elif kind == 3:
                rows[i][j] = terms()
                sign = -1 if (ks[i] * ks[j]) % 2 else 1
                if i != j:
                    rows[j][i] = tuple((el, (sign * c) % p) for el, c in rows[i][j])
            else:
                rows[i][j], rows[j][i] = terms(), terms()
    return rows, ks, p


# x y = () with y x = y: one failing pair, met from its nonzero side only;
# the same with y x = 3y at p = 3, which is zero mod p and so holds; and
# with x y out of the window, so the pair is not compared
@example(([[(), ()], [((1, 1),), ()]], [0, 0], 5))
@example(([[(), ()], [((1, 3),), ()]], [0, 0], 3))
@example(([[(), None], [((1, 1),), ()]], [1, 1], 3))
@settings(max_examples=200, deadline=None)
@given(graded_tables())
def test_supercommutativity_matches_pair_loop(case):
    rows, ks, p = case
    assert _supercommutativity(table_of(rows, p), ks, p) == pairwise_supercommutativity(rows, ks, p)
