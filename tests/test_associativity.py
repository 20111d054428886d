"""The associativity scan behind ``verify`` and ``spadesuit --check-associativity``.

``cli._associativity`` walks only the nonempty products of a table.  Here it
is compared with the plain triple loop it replaced, kept in this file as the
reference, on random tables that are mostly not associative, and pinned on
the real grid windows.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hh2.cli import _associativity, _product_rows, _spade_associativity
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


def test_scan_cost_follows_nonzero_products():
    # a 1000-element zero algebra with one product out of the window: the
    # triple loop would visit 10^9 triples, the scan visits no product
    n = 1000
    rows = [[()] * n for _ in range(n)]
    rows[3][5] = None
    assert _associativity(rows, 3) == (n ** 3 - 2 * n, 0) == (999998000, 0)
