"""The associativity scan behind ``verify`` and ``spadesuit --check-associativity``.

``cli._associativity`` walks only the nonempty products of a table.  Here it
is compared with the plain triple loop it replaced, kept in this file as the
reference, on random tables that are mostly not associative, and pinned on
the real grid windows.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hh2.cli import (_associativity, _product_rows, _spade_associativity,
                    _supercommutativity)
from hh2.spadesuit import build_spade


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
    assert _associativity(rows, p) == cubic_associativity(rows, p)


def test_grid_counts():
    for p, lo, hi, want in ((3, -3, 4, (2256198, 0)), (5, -3, 4, (17332885, 0)),
                            (11, -2, 3, (46866503, 0))):
        alg = build_spade(p, lo, hi)
        assert _spade_associativity(_product_rows(alg.basis, alg.product), p) == want


def test_grid_count_p13():
    alg = build_spade(13, -2, 3)
    assert _spade_associativity(alg.product_rows(), 13) == (80540639, 0)


def test_scan_cost_follows_nonzero_products():
    # a 1000-element zero algebra with one product out of the window: the
    # triple loop would visit 10^9 triples, the scan visits no product
    n = 1000
    rows = [[()] * n for _ in range(n)]
    rows[3][5] = None
    assert _associativity(rows, 3) == (n ** 3 - 2 * n, 0) == (999998000, 0)


# -- supercommutativity ---------------------------------------------------------


def pairwise_supercommutativity(rows: list[list], ks: list[int], p: int) -> int:
    """Number of in-window pairs with x y != (-1)^{k(x) k(y)} y x, where
    ks[i] is the k-degree of basis element i."""
    bad = 0
    for i, row in enumerate(rows):
        for j, r12 in enumerate(row):
            r21 = rows[j][i]
            if r12 is None or r21 is None:
                continue
            sign = -1 if (ks[i] * ks[j]) % 2 else 1
            ex = {el: (sign * c) % p for el, c in r21}
            if dict(r12) != {el: c for el, c in ex.items() if c}:
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
    assert _supercommutativity(rows, ks, p) == pairwise_supercommutativity(rows, ks, p)
