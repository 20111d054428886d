"""Based algebras and bimodules for the two quiver algebras.

Conventions used throughout the package:

* Products compose like functions: ``mul(a, b)`` is "apply b first, then a",
  and a basis element x with slot (left, right) satisfies
  ``e_left * x * e_right == x``, i.e. x is a path right -> left.
* The double quiver on vertices 1..p has up arrows u_m: m -> m+1 and down
  arrows d_m: m+1 -> m.  In the degree-(1,0) algebra these are eta_m / xi_m;
  in the degree-(-1,1) algebra they are y_m / x_m.
* Monomials of the quadratic-dual algebra are stored in "valley" normal form
  (src, A, B): start at vertex src, take A down steps, then B up steps.  The
  rewriting system pushing peaks down (x_v y_v -> y_{v-1} x_{v-1}, with
  x_1 y_1 -> 0) is confluent, so these words are a basis and the product of
  two monomials is (src2, A1+A2, B1+B2) when the combined valley stays >= 1,
  and zero otherwise.

A basis is int64 arrays, (left, right, j, k) of each element; its
``BasisElement``s are made only when a caller reads them.

Linear combinations (combos) are dicts {basis_index: coefficient mod p}.
Every product, action and pairing table is a ``Table``: int64 arrays
(x, y, t, c) sorted by (x, y, t), one term per (x, y, t), c in [1, p).
A ``BimoduleMap`` is one too, f(m) at (m, 0).  Builders make tables by array
operations (Omega's from its closed form, the modules by masks, renumberings
and swaps, the maps from Omega's partner arrays), the identity scans join
them through the indexes each keeps, and ``Table.get`` reads single entries.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import Hh2Error
from .exactlin import (TooLarge, _among, _distinct, _summed, _xor, check_odd_prime, combo_add,
                       half_join, join_index)

Combo = dict[int, int]


class IncompatibleAlgebras(Hh2Error):
    pass


class BasisElement(NamedTuple):
    name: str
    left: int
    right: int
    j: int
    k: int


class Table:
    """A sparse table over F_p, stored as int64 arrays (x, y, t, c): entry
    (x, y) is the sum of c * [t] over its terms, and a pair without terms is
    zero.  The terms are sorted by (x, y, t), with one term per (x, y, t) and
    every c in [1, p).  Unpacking gives the four arrays.

    Tables are read-only once built: modules, maps and pairings share them
    instead of copying, and keep what is read off them on first use: ``by_x``
    and ``by_y``, the ``join_index`` of the x and y columns, and the rows that
    ``get`` reads entries from as combos, which callers only read.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, t: np.ndarray, c: np.ndarray):
        self.x, self.y, self.t, self.c = x, y, t, c
        self._rows: dict[int, dict[int, Combo]] = {}

    @cached_property
    def by_x(self) -> tuple:
        return join_index(self.x, ordered=True)

    @cached_property
    def by_y(self) -> tuple:
        return join_index(self.y)

    @classmethod
    def of(cls, x: np.ndarray, y: np.ndarray, t: np.ndarray, c: np.ndarray, p: int) -> "Table":
        """The table of the terms c * [t] at (x, y), given in any order: the
        terms at one (x, y, t) are summed mod p, and zero sums dropped."""
        n_x, n_y, n_t = (1 + int(v.max(initial=0)) for v in (x, y, t))
        if n_x * n_y * n_t > 2 ** 63 - 1:
            raise TooLarge(f"table keys over index ranges {[n_x, n_y, n_t]} would not fit in int64")
        key, c = _summed((x * n_y + y) * n_t + t, c, p)
        xy, t = np.divmod(key, n_t)
        return cls(*np.divmod(xy, n_y), t, c)

    def __iter__(self):
        return iter((self.x, self.y, self.t, self.c))

    def get(self, key: tuple[int, int], default=None):
        """The combo at key = (x, y), or default when it is zero."""
        x, y = key
        row = self._rows.get(x)
        if row is None:
            lo, hi = np.searchsorted(self.x, (x, x + 1))
            row = self._rows[x] = {}
            for yy, t, c in zip(*(a[lo:hi].tolist() for a in (self.y, self.t, self.c))):
                row.setdefault(yy, {})[t] = c
        return row.get(y, default)


def tables_equal(a, b) -> bool:
    """Whether two tables, or any two tuples of arrays, hold equal arrays place by place."""
    return all(np.array_equal(u, v) for u, v in zip(a, b))


def table_of(entries: dict[tuple[int, int], Combo], p: int) -> Table:
    """The ``Table`` of a dict of combos, {(x, y): {t: c}}."""
    flat = [v for (x, y), combo in entries.items() for t, c in combo.items() for v in (x, y, t, c)]
    return Table.of(*np.array(flat, dtype=np.int64).reshape(-1, 4).T, p)


class WindowTable(NamedTuple):
    """The products of the n basis elements of a window: basis[x] * basis[y]
    is the entry (x, y) of the ``Table`` terms, and leaves the window for
    each place of the int64 arrays out (x, y), sorted by (x, y), each pair
    once.  Other pairs multiply to zero."""
    n: int
    terms: Table
    out: tuple[np.ndarray, np.ndarray]


def window_table(n: int, terms: list[tuple[np.ndarray, ...]],
                 out: list[tuple[np.ndarray, np.ndarray]], p: int) -> WindowTable:
    """The ``WindowTable`` of lists of int64 array blocks, (x, y, t, c) terms
    and (x, y) out pairs: repeated terms are summed mod p, repeated pairs kept once."""
    empty = np.zeros(0, dtype=np.int64)
    x, y, t, c = (np.concatenate(col) for col in zip((empty,) * 4, *terms))
    ox, oy = (np.concatenate(col) for col in zip((empty,) * 2, *out))
    return WindowTable(n, Table.of(x, y, t, c, p), np.divmod(_distinct(ox * n + oy), n))


def failing_triple(a: Table, b: Table, c: Table, d: Table, p: int) -> tuple[int, int, int] | None:
    """The first (u, g, w), by g, then u, then w, at which

        sum_t a[u, g][t] * b[t, w]  =  sum_t c[g, w][t] * d[u, t]   (mod p)

    fails, or None, for four ``Table``s.  Associativity, the bimodule axioms,
    intertwining maps and balanced equivariant pairings are all identities of
    this shape.

    One join over the tables' terms, through the indexes they keep: each
    term t of a[u, g] meets the terms of b[t, .] (``b.by_x``) and each term t
    of c[g, w] the terms of d[., t] (``d.by_y``, ``half_join``, which
    ``window_associativity`` runs too), so a triple that no such pair reaches
    reads 0 = 0, and the work grows with the nonempty products.  Every product is
    keyed by (g, u, w, basis index), packed into one int64 with each index's
    own range, and the left minus the right side is summed mod p per key
    (``_summed``); the smallest key left is the first failure.  Raises
    ``TooLarge`` before the join when the packed keys would pass int64.
    """
    (au, ag, at, ac), (_, bw, bi, bc), (cg, cw, ct, cc), (du, _, di, dc) = a, b, c, d
    sizes = [1 + int(max(x.max(initial=-1), y.max(initial=-1)))
             for x, y in ((ag, cg), (au, du), (bw, cw), (bi, di))]
    if math.prod(sizes) > 2 ** 63 - 1:
        raise TooLarge(f"identity scan keys over index ranges {sizes} would not fit in int64")
    _, n_u, n_w, n_i = sizes

    def packed(g, u, w, i):
        return ((g * n_u + u) * n_w + w) * n_i + i

    s, e = half_join(at, b.by_x)  # each term of a[u, g] with the terms of b[t, .]
    left_key, left_val = packed(ag[s], au[s], bw[e], bi[e]), ac[s] * bc[e]
    s, e = half_join(ct, d.by_y)  # each term of c[g, w] with the terms of d[., t]
    right_key, right_val = packed(cg[s], du[e], cw[s], di[e]), -cc[s] * dc[e]
    key, _ = _summed(np.concatenate((left_key, right_key)),
                     np.concatenate((left_val, right_val)), p)
    if not len(key):
        return None
    guw = int(key[0]) // n_i
    return guw // n_w % n_u, guw // (n_w * n_u), guw % n_w


def window_associativity(table: WindowTable, p: int) -> tuple[int, int]:
    """(checked, failed) over the triples (i, j, k) whose products i j and
    j k stay in the window.  A triple is spoiled, and not checked, when a
    term el of i j has el k out of the window or a term el of j k has i el
    out; it fails when (i j) k - i (j k) is nonzero mod p.  Both need a term,
    so the count is the sum over j of #{i: i j in the window} * #{k: j k in
    the window} less the spoiled triples, the ``half_join``s of the terms
    with the out-of-window pairs; the products, keyed (j, i, k, basis index)
    as in ``failing_triple``, join the terms with themselves.  Both keep the
    triples whose other product is in the window, read off a dense mask.
    Blocks of about 2,048 terms by j, slices of the terms' indexes, bound the joins.
    """
    n, terms, (ox, oy) = table
    x, y, t, c = terms
    if n ** 4 > 2 ** 63 - 1:
        raise TooLarge(f"a window of {n} elements packs keys past int64")
    inside = np.ones(n * n, dtype=bool)  # at u * n + v: whether u v stays in the window
    inside[ox * n + oy] = False
    by_ox, by_oy = join_index(ox, ordered=True), join_index(oy)
    checked, failed = int(np.dot(n - np.bincount(oy, minlength=n),
                                 n - np.bincount(ox, minlength=n))), 0
    blocks = 1 + len(x) // 2048
    edges = np.arange(blocks + 1) * n // blocks
    (_, x_at, _), (y_order, y_at, _) = terms.by_x, terms.by_y
    x_at, y_at = (at[np.minimum(edges, len(at) - 1)] for at in (x_at, y_at))
    for k in range(blocks):
        a, b = y_order[y_at[k]:y_at[k + 1]], slice(x_at[k], x_at[k + 1])  # terms i j, j k
        xa, ya, ta, ca, xb, yb, tb, cb = x[a], y[a], t[a], c[a], x[b], y[b], t[b], c[b]
        s, e = half_join(ta, by_ox)  # a term el of i j with el k out
        spoiled = ((ya[s] * n + xa[s]) * n + oy[e])[inside[ya[s] * n + oy[e]]]
        s, e = half_join(tb, by_oy)  # a term el of j k with i el out
        spoiled = _distinct(np.concatenate(
            (spoiled, ((xb[s] * n + ox[e]) * n + yb[s])[inside[ox[e] * n + xb[s]]])))
        s, e = half_join(ta, terms.by_x)  # (i j) k, term by term
        m = inside[ya[s] * n + y[e]]
        key, val = (((ya[s] * n + xa[s]) * n + y[e]) * n + t[e])[m], (ca[s] * c[e])[m]
        s, e = half_join(tb, terms.by_y)  # i (j k), term by term
        m = inside[x[e] * n + xb[s]]
        key, _ = _summed(np.concatenate((key, (((xb[s] * n + x[e]) * n + yb[s]) * n + t[e])[m])),
                         np.concatenate((val, (-cb[s] * c[e])[m])), p)
        checked -= len(spoiled)
        failed += int(np.count_nonzero(~_among(spoiled, _distinct(key // n))))
    return checked, failed


class Basis(tuple):
    """(left, right, j, k) of each element as int64 arrays, and the function listing their names."""
    def __new__(cls, slots: tuple[np.ndarray, ...], names: Callable[[], list[str]]):
        return super().__new__(cls, (slots, names))


class _Based:
    """The basis of an algebra or a bimodule, as ``BasisElement``s or as a ``Basis``;
    ``basis`` and ``index`` by name are made on first read."""

    def _set_basis(self, basis: list[BasisElement] | Basis) -> None:
        if isinstance(basis, Basis):
            self.basis_slots, self._name_list = basis
        else:
            self.basis, self._name_list = basis, lambda: [b.name for b in basis]

    basis = cached_property(lambda self: list(map(BasisElement, self._name_list(), *(
        col.tolist() for col in self.basis_slots))))
    basis_slots = cached_property(lambda self: tuple(np.array(
        [[b.left, b.right, b.j, b.k] for b in self.basis], dtype=np.int64).reshape(-1, 4).T))
    index = cached_property(lambda self: {name: i for i, name in enumerate(self._name_list())})

    @property
    def dim(self) -> int:
        return len(self.basis_slots[0])


class BasedAlgebra(_Based):
    """Finite-dimensional algebra with a fixed basis and structure constants.

    ``products`` is the ``Table`` of basis[i] o basis[j] (j acts first) at
    (i, j).  ``idem[v]`` is the index of the idempotent e_v.
    """

    def __init__(self, p: int, basis: list[BasisElement] | Basis, products: Table,
                 idem: dict[int, int], name: str = ""):
        self.p = p
        self._set_basis(basis)
        self.products = products
        self.idem = idem
        self.name = name
        self.vertices = sorted(idem)
        self._slot_products: Table | None = None
        self._associative = False

    def unit(self) -> Combo:
        return {i: 1 for i in self.idem.values()}

    def mul_basis(self, i: int, j: int) -> Combo:
        return self.slot_products().get((i, j), {})

    def mul(self, a: Combo, b: Combo) -> Combo:
        out: Combo = {}
        for i, ca in a.items():
            for j, cb in b.items():
                prod = self.mul_basis(i, j)
                if prod:
                    combo_add(out, prod, ca * cb, self.p)
        return out

    def slot_products(self) -> Table:
        """The products that ``mul_basis`` returns: slot-matched keys only.

        Made on the first call and kept; it is ``products`` itself when every
        key is slot-matched, as for Omega.  Callers only read it."""
        if self._slot_products is None:
            left, right, _, _ = self.basis_slots
            x, y, t, c = self.products
            keep = right[x] == left[y]
            self._slot_products = (self.products if keep.all()
                                   else Table(x[keep], y[keep], t[keep], c[keep]))
        return self._slot_products

    def check_associativity(self) -> None:
        if self._associative:  # a pass is kept, as the table is read-only; a failure is not
            return
        mul = self.slot_products()
        bad = failing_triple(mul, mul, mul, mul, self.p)
        if bad is not None:
            i, j, k = (self.basis[x].name for x in bad)
            raise AssertionError(f"associativity fails at {i}, {j}, {k}")
        self._associative = True


class BasedBimodule(_Based):
    """Bimodule over a BasedAlgebra with explicit action constants.

    ``left`` is the ``Table`` of basis_a o m at (a, m) and ``right`` that of
    m o basis_a at (m, a), both over the full algebra basis.  A module made
    from Omega's monomials keeps ``position``, the place of each monomial
    in its basis or -1, and ``parent_index``, the monomial at each place.
    """

    def __init__(self, over: BasedAlgebra, basis: list[BasisElement] | Basis,
                 left: Table, right: Table, name: str = ""):
        self.over = over
        self.p = over.p
        self._set_basis(basis)
        self.left = left
        self.right = right
        self.name = name
        self._axioms_hold = False

    def check_bimodule(self) -> None:
        if self._axioms_hold:  # a pass is kept, as the tables are read-only; a failure is not
            return
        alg, name, p = self.over, self.name, self.p
        # idempotent entries as stored: e_v m = m if v is the slot of m, else zero;
        # the terms (m, e_v, t, c) found against those required, as packed keys
        vertex = np.full(alg.dim, -1, dtype=np.int64)  # the vertex of each idempotent
        vertex[list(alg.idem.values())] = list(alg.idem)
        idem = np.full(1 + max(alg.idem), -1, dtype=np.int64)  # the idempotent of each vertex
        idem[list(alg.idem)] = list(alg.idem.values())
        slots = np.stack(self.basis_slots[:2])
        right = self.right
        for side, (a, m, t, c) in enumerate((self.left, (right.y, right.x, right.t, right.c))):
            at = vertex[a] >= 0
            own = np.flatnonzero(np.isin(slots[side], list(alg.idem)))
            bad = _xor(((m[at] * alg.dim + a[at]) * self.dim + t[at]) * p + c[at],
                       ((own * alg.dim + idem[slots[side, own]]) * self.dim + own) * p + 1)
            if len(bad):
                m_bad, a_bad = divmod(int(bad[0]) // (self.dim * p), alg.dim)
                v, el = vertex[a_bad], self.basis[m_bad].name
                raise AssertionError((f"e_{v} . {el}" if side == 0 else f"{el} . e_{v}")
                                     + f" wrong in {name}")
        mul, left, right = alg.slot_products(), self.left, self.right
        for tables, law in (((mul, left, left, left), "(ab)m != a(bm)"),
                            ((right, right, mul, right), "m(ab) != (ma)b"),
                            ((left, right, right, left), "(am)b != a(mb)")):
            if failing_triple(*tables, self.p) is not None:
                raise AssertionError(f"{law} in {name}")
        self._axioms_hold = True


# ---------------------------------------------------------------------------
# the degree-(1,0) algebra on the double quiver (Koszul dual of the other one)

def build_zigzag_c(p: int) -> BasedAlgebra:
    """Path algebra of the double A_p quiver mod its length-2 relations.

    Basis: e_s (s=1..p), xi_m: m+1 -> m and eta_m: m -> m+1 in degree (1,0),
    and one loop per vertex 1..p-1 in degree (2,0).  The loop at s is the
    up-down word xi_s eta_s; the down-up loop at s+1 equals minus loop_{s+1},
    the loop at p is zero, and all length-3 paths vanish.
    """
    check_odd_prime(p)
    # the places of e_s, xi_m, eta_m and loop_s, one block after another
    s, m = np.arange(1, p + 1), np.arange(1, p)
    e, xi, eta, loop = s - 1, p + m - 1, 2 * p + m - 2, 3 * p + m - 3
    left, right = np.concatenate((s, m, m + 1, m)), np.concatenate((s, m + 1, m, m))
    j = np.repeat([0, 1, 1, 2], [p, p - 1, p - 1, p - 1])
    names = [f"{word}{v}" for word, vs in (("e", s), ("xi", m), ("eta", m), ("loop", m))
             for v in vs.tolist()]
    # e_left b = b = b e_right (e_s e_s once), xi_s eta_s = loop_s, and
    # eta_s xi_s = -loop_{s+1} but for s = p - 1; all longer words vanish
    n = np.arange(len(j))
    x, y, t = (np.concatenate(cols) for cols in ((e[left - 1], n[p:], xi, eta[:-1]),
                                                 (n, e[right[p:] - 1], eta, xi[:-1]),
                                                 (n, n[p:], loop, loop[1:])))
    c = np.where(np.arange(len(x)) < len(x) - (p - 2), 1, p - 1)
    alg = BasedAlgebra(p, Basis((left, right, j, 0 * j), lambda: names), Table.of(x, y, t, c, p),
                       dict(zip(s.tolist(), e.tolist())), name="c")
    alg.xi, alg.eta, alg.loop = (dict(zip(m.tolist(), v.tolist())) for v in (xi, eta, loop))
    return alg


# ---------------------------------------------------------------------------
# the degree-(-1,1) algebra and its quotients/sub-bimodules

def monomial_name(src: int, a: int, b: int) -> str:
    if a == 0 and b == 0:
        return f"e{src}"
    word = ""
    if b:
        word += f"y{b}"
    if a:
        word += f"x{a}"
    return f"{word}e{src}"


class OmegaAlgebra(BasedAlgebra):
    """The quadratic dual: commuting up/down arrows with the bottom loop killed.

    ``words`` holds the (src, downs, ups) of every basis monomial as int64
    arrays, by src, downs and ups, and ``places[src, downs, ups]`` is the
    index of a monomial, -1 for other words.  The product table comes from the closed form: i o j is
    (src_j, downs_i + downs_j, ups_i + ups_j) when j ends where i starts and
    src_j > downs_i + downs_j, else zero.

    Three int64 arrays give a partner of each monomial (src, a, b) ending at
    tgt = src - a + b, and -1 where it has none:

    * ``sigma``, the diagram involution off the ideal: swap the arrows and
      flip the vertices, (p - src, b, a);
    * ``ideal_partner``, the beta-partner in the ideal, whose down and up
      counts complement a and b to p - 1: (tgt, p - 1 - a, p - 1 - b);
    * ``theta_partner``, the form partner off the ideal, with which the
      monomial composes to the socle: (tgt, src - 1 - a, p - 1 - b - src).
    """

    def __init__(self, p: int):
        check_odd_prime(p)
        # the words by src, then a, then b: a < src and b <= p - src + a
        src, a = np.nonzero(np.arange(p) < np.arange(p + 1)[:, None])
        count = p - src + a + 1
        b = np.arange(count.sum()) - (np.cumsum(count) - count).repeat(count)
        self.words = src, a, b = src.repeat(count), a.repeat(count), b
        self.places = np.full((p + 1,) * 3, -1, dtype=np.int64)
        self.places[self.words] = np.arange(len(src))
        idem = dict(zip(range(1, p + 1), self.places[1:, 0, 0].tolist()))
        super().__init__(p, Basis((src - a + b, src, -(a + b), a + b), lambda: list(map(
            monomial_name, *(w.tolist() for w in self.words)))), self._products(p), idem,
            name="Omega")
        tgt, ideal = src - a + b, self.ideal_mask()
        # off its domain a partner's word may have a negative count, which wraps; np.where drops it
        self.sigma = np.where(ideal, -1, self.places[p - src, b, a])
        self.ideal_partner = np.where(ideal, self.places[tgt, p - 1 - a, p - 1 - b], -1)
        self.theta_partner = np.where(ideal, -1, self.places[tgt, src - 1 - a, p - 1 - b - src])

    def _products(self, p: int) -> Table:
        # the monomials are listed by src, so those starting at s are one
        # block of indices i; their partners j end at s, and both lists
        # ascend, so the nonzero products come out sorted by (i, j)
        src, a, b = self.words
        (_, starts, _), (by_tgt, bounds, _) = join_index(src, ordered=True), join_index(src - a + b)
        parts = []
        for s in range(1, p + 1):
            i, j = np.arange(starts[s], starts[s + 1]), by_tgt[bounds[s]:bounds[s + 1]]
            x, y = np.nonzero(src[j] - (a[i][:, None] + a[j]) >= 1)
            x, y = i[x], j[y]
            parts.append((x, y, self.places[src[y], a[x] + a[y], b[x] + b[y]]))
        x, y, t = (np.concatenate(part) for part in zip(*parts))
        return Table(x, y, t, np.ones(len(x), dtype=np.int64))

    def ideal_mask(self) -> np.ndarray:
        """Whether each basis monomial factors through the top vertex p."""
        src, a, b = self.words
        return a >= self.p - (src - a + b)


def build_omega(p: int) -> OmegaAlgebra:
    return OmegaAlgebra(p)


def regular_bimodule(omega: OmegaAlgebra) -> BasedBimodule:
    """Omega as a bimodule over itself: both actions are its product table."""
    mod = BasedBimodule(omega, Basis(omega.basis_slots, omega._name_list), omega.products,
                        omega.products, name="Omega")
    mod.position = np.arange(omega.dim)
    return mod


def _sub_bimodule(omega: OmegaAlgebra, keep: np.ndarray, name: str) -> BasedBimodule:
    # the products whose result and module factor both lie in keep, renumbered
    # in keep's order, which is ascending, so the tables stay sorted; new is
    # where each Omega monomial sits in the module, -1 off it
    new = np.full(omega.dim, -1, dtype=np.int64)
    new[keep] = np.arange(len(keep))
    x, y, t, c = omega.slot_products()
    inside = new[t] >= 0
    left, right = inside & (new[y] >= 0), inside & (new[x] >= 0)
    parent_index = keep.tolist()
    basis = Basis(tuple(col[keep] for col in omega.basis_slots),
                  lambda: list(map(omega._name_list().__getitem__, parent_index)))
    mod = BasedBimodule(omega, basis, Table(x[left], new[y[left]], new[t[left]], c[left]),
                        Table(new[x[right]], y[right], new[t[right]], c[right]), name=name)
    mod.parent_index, mod.position = parent_index, new
    return mod


def sub_ideal_epep(omega: OmegaAlgebra) -> BasedBimodule:
    """The two-sided ideal generated by e_p, spanned by through-the-top monomials."""
    return _sub_bimodule(omega, np.flatnonzero(omega.ideal_mask()), "OmegaEpOmega")


def quotient_theta(omega: OmegaAlgebra) -> BasedBimodule:
    """The preprojective quotient by the ideal above, as an Omega-bimodule."""
    return _sub_bimodule(omega, np.flatnonzero(~omega.ideal_mask()), "Theta")


def twist_sigma(mod: BasedBimodule) -> BasedBimodule:
    """Right twist of a preprojective-type bimodule by its diagram involution.

    The underlying space is unchanged; the right slot label of m becomes
    p - right(m) and the right action of w is the action of sigma(w).
    Applying it twice gives back the original module.
    """
    omega = mod.over
    if not isinstance(omega, OmegaAlgebra):
        raise IncompatibleAlgebras("twist_sigma needs a module over the quadratic dual")
    p, (left, right, j, k) = omega.p, mod.basis_slots
    if np.any((left == p) | (right == p)):
        raise IncompatibleAlgebras("twist_sigma only applies to modules killed by e_p")
    # m . a here is m . sigma(a) there, and sigma is an involution of its domain
    x, y, t, c = mod.right
    sigma = omega.sigma
    keep = sigma[y] >= 0
    twisted = Table.of(x[keep], sigma[y[keep]], t[keep], c[keep], p)
    new_name = mod.name[:-5] if mod.name.endswith("Sigma") else mod.name + "Sigma"
    new = BasedBimodule(omega, Basis((left, p - right, j, k), mod._name_list), mod.left,
                        twisted, name=new_name)
    if hasattr(mod, "parent_index"):
        new.parent_index, new.position = mod.parent_index, mod.position
    return new


def dual(mod: BasedBimodule) -> BasedBimodule:
    """Linear dual: slots swap, degrees negate, actions transpose.

    With (a f b)(m) = f(b m a), the left action on duals is the transpose of
    the right action and vice versa: m . a = tgt gives a . tgt* = m*.
    """
    left, right, j, k = mod.basis_slots
    basis = Basis((right, left, -j, -k), lambda: [name + "*" for name in mod._name_list()])
    (m, a, tgt, c), p = mod.right, mod.p
    left = Table.of(a, tgt, m, c, p)
    a, m, tgt, c = mod.left
    new = BasedBimodule(mod.over, basis, left, Table.of(tgt, a, m, c, p), name=mod.name + "*")
    new.position = getattr(mod, "position", None)  # m* is where m is
    return new


class BimoduleMap:
    """Linear map between bimodules: ``table`` holds f(m) at (m, 0)."""

    def __init__(self, source: BasedBimodule, target: BasedBimodule,
                 table: Table, dj: int = 0, dk: int = 0, name: str = ""):
        self.source = source
        self.target = target
        self.table = table
        self.dj = dj
        self.dk = dk
        self.name = name

    @cached_property
    def transposed(self) -> Table:  # f(m) at (0, m), kept with its indexes
        return Table(self.table.y, self.table.x, self.table.t, self.table.c)

    def check_intertwines(self) -> None:
        # f(a m) = a f(m) and f(m a) = f(m) a, f as a table with a dummy index 0
        f_m0, f_0m = self.table, self.transposed
        src, tgt, p = self.source, self.target, self.source.p
        if failing_triple(src.left, f_m0, f_m0, tgt.left, p) is not None:
            raise AssertionError(f"{self.name}: left action not intertwined")
        if failing_triple(f_0m, tgt.right, src.right, f_0m, p) is not None:
            raise AssertionError(f"{self.name}: right action not intertwined")

    def check_degree_shift(self) -> None:
        (*_, src_j, src_k), (*_, tgt_j, tgt_k) = self.source.basis_slots, self.target.basis_slots
        m, _, t, _ = self.table
        if np.any(tgt_j[t] - src_j[m] != self.dj) or np.any(tgt_k[t] - src_k[m] != self.dk):
            raise AssertionError(f"{self.name}: inhomogeneous degree shift")
