"""The plain reduced bar complex over the vertex subalgebra: the tests'
reference for ``koszulhh.bar_oracle``.

``bar_oracle`` here computes dim HH^n(alg, x_mod) from the chains of radical
basis elements of every degree, with no presentation of the algebra: it
assembles each d_n, checks d_n . d_{n-1} = 0 and ranks d_n.  The complex
grows as (dim rad)^n, so it reaches h <= 4 at p = 3, h <= 3 at p = 5 and
h <= 2 at p = 7 under the default ``HH2_MAX_CELLS``.  ``koszulhh.bar_oracle``
computes the same dimensions from the Morse-reduced complex, whose cells
stop at degree 2.
"""

import weakref
from typing import NamedTuple

import numpy as np

from hh2.exactlin import TooLarge, _among, _distinct, _expand, _summed, _within, coo_pivot_rows
from hh2.koszulhh import _ints, bar_sizes, max_cells
from hh2.quiver import BasedAlgebra, BasedBimodule


class ChainLevel(NamedTuple):
    """The chains of one degree n as parallel int64 arrays, indexed by place.

    ``chain`` has shape (count, n): row q holds the radical basis indices of
    the chain at place q.  ``lft`` and ``rgt`` are its slot (the left vertex
    of its first and the right vertex of its last term) and ``j``, ``k`` its
    total degree.  ``parent`` and ``face`` are the places in level n - 1 of
    ch[:-1] and ch[1:].  In degree 1 they are the places of the left and the
    right vertex; degree 0 has no level below it and holds -1.
    """
    chain: np.ndarray
    lft: np.ndarray
    rgt: np.ndarray
    j: np.ndarray
    k: np.ndarray
    parent: np.ndarray
    face: np.ndarray


class Cofaces(NamedTuple):
    """The coefficient-free part of the bar differential from degree n, as
    COO arrays from places of level n (``src``) to places of level n + 1
    (``tgt``), each table sorted by ``src``:

    * heads (src, r, tgt): tgt is (r,) + src;
    * collapses (src, tgt, coeff): tgt is ch[:i] + (a, b) + ch[i + 1:] for
      each (a, b) whose product a b has the coefficient c on ch[i], and
      coeff = (-1)^(i+1) c;
    * tails (src, r, tgt): tgt is src + (r,).
    """
    heads: tuple[np.ndarray, np.ndarray, np.ndarray]
    collapses: tuple[np.ndarray, np.ndarray, np.ndarray]
    tails: tuple[np.ndarray, np.ndarray, np.ndarray]


class RadicalChains:
    """Composable chains of radical basis elements of an algebra: the basis
    of the reduced bar complex over the vertex subalgebra, as arrays.

    ``level(n)`` is a ``ChainLevel``.  Degree 0 holds the empty chain once
    per vertex, in vertex order.  Degree 1 is the radical in index order.
    Degree n + 1 lists, for each chain of degree n in order, its children
    ch + (r,), one for each radical r leaving its right vertex, in index
    order.  So every level of degree >= 1 is sorted lexicographically by
    radical index, a place is the index of a chain in that order, and the
    places are those of the tuples the chains stand for.  Levels are built
    on first request and kept.

    The children of a chain are contiguous in the next level, so the child
    of place q by r is ``first[q]`` (its first child) plus the rank of r
    among the radical elements with the same left vertex (degree 0 is the
    exception: the child of a vertex by r is the place of (r,) in degree 1).
    Then ``parent`` repeats each place once per child, and ``face`` follows
    from one recursion: the face of parent + (r,) is the child of
    face(parent) by r.

    ``cofaces(n)`` is a ``Cofaces``, built on first request, with level
    n + 1, and kept.  Heads and tails are the ``face`` and ``parent`` of level
    n + 1 read backwards.  A collapse target ch[:i] + (a, b) + ch[i + 1:] is
    reached by walking children from the place of ch[:i], an ancestor along
    ``parent``, through a, b and the rest of the chain.
    """

    def __init__(self, alg: BasedAlgebra):
        basis = alg.basis
        left, right, bj, bk = alg.basis_slots
        self._left, self._right, self._j, self._k = left, right, bj, bk
        rad = [i for i, b in enumerate(basis) if b.j != 0 or b.k != 0]
        self._rad = np.array(rad, dtype=np.int64)
        vertices = np.array(alg.vertices, dtype=np.int64)
        n_vertex_ids = int(max(left.max(), right.max(), vertices.max())) + 1
        self._vplace = np.full(n_vertex_ids, -1, dtype=np.int64)
        self._vplace[vertices] = np.arange(len(vertices))
        self._radpos = np.full(len(basis), -1, dtype=np.int64)
        self._radpos[self._rad] = np.arange(len(rad))
        # the radical grouped by left vertex, in index order within a group
        self._by_left = self._rad[np.argsort(left[self._rad], kind="stable")]
        self._n_by_left = np.bincount(left[self._rad], minlength=n_vertex_ids)
        self._by_left_start = np.cumsum(self._n_by_left) - self._n_by_left
        # the place of each radical element within its group
        self._sibling = np.zeros(len(basis), dtype=np.int64)
        self._sibling[self._by_left] = (np.arange(len(rad))
                                        - self._by_left_start[left[self._by_left]])

        # (m, a, b, coeff of m in a b) over composable radical a, b, stored
        # by m as CSR arrays over the basis index
        is_rad = self._radpos >= 0
        a, b, mid, cm = alg.slot_products()
        at = is_rad[a] & is_rad[b] & is_rad[mid]
        a, b, mid, cm = a[at], b[at], mid[at], cm[at]
        leaves = np.flatnonzero((left[a] != left[mid]) | (right[b] != right[mid]))
        if len(leaves):
            raise AssertionError(f"{basis[a[leaves[0]]].name}*{basis[b[leaves[0]]].name}"
                                 " leaves its slot")
        by_mid = np.argsort(mid, kind="stable")
        self._split_a, self._split_b, self._split_c = a[by_mid], b[by_mid], cm[by_mid]
        self._split_count = np.bincount(mid, minlength=len(basis))
        self._split_start = np.cumsum(self._split_count) - self._split_count

        none = np.full(len(vertices), -1, dtype=np.int64)
        zero = np.zeros(len(vertices), dtype=np.int64)
        self._levels = [ChainLevel(np.zeros((len(vertices), 0), dtype=np.int64),
                                   vertices, vertices, zero, zero, none, none)]
        self._first: list[np.ndarray | None] = []  # per level below the last
        self._cofaces: list[Cofaces] = []

    def _child(self, m: int, q: np.ndarray | None, r: np.ndarray) -> np.ndarray:
        """The places in level m + 1 of the children by r of the places q of level m."""
        if m == 0:
            return self._radpos[r]
        return self._first[m][q] + self._sibling[r]

    def level(self, n: int) -> ChainLevel:
        """The chains of degree n, built on first request from level n - 1."""
        while len(self._levels) <= n:
            m = len(self._levels) - 1
            cur = self._levels[m]
            if m == 0:
                r = self._rad
                chain, lft, j, k = r.reshape(-1, 1), self._left[r], self._j[r], self._k[r]
                parent, face = self._vplace[lft], self._vplace[self._right[r]]
                self._first.append(None)
            else:
                count = self._n_by_left[cur.rgt]
                self._first.append(np.cumsum(count) - count)
                parent, idx = _expand(self._by_left_start[cur.rgt], count)
                r = self._by_left[idx]
                face = self._child(m - 1, cur.face[parent], r)
                chain = np.column_stack((cur.chain[parent], r))
                lft, j, k = cur.lft[parent], cur.j[parent] + self._j[r], cur.k[parent] + self._k[r]
            self._levels.append(ChainLevel(chain, lft, self._right[r], j, k, parent, face))
        return self._levels[n]

    def cofaces(self, n: int) -> Cofaces:
        """The heads, collapses and tails from the chains of degree n."""
        while len(self._cofaces) <= n:
            m = len(self._cofaces)
            up = self.level(m + 1)
            by_face = np.argsort(up.face, kind="stable")
            by_parent = np.argsort(up.parent, kind="stable")  # sorted already if m > 0
            self._cofaces.append(Cofaces(
                (up.face[by_face], up.chain[by_face, 0], by_face),
                self._collapses(m),
                (up.parent[by_parent], up.chain[by_parent, -1], by_parent)))
        return self._cofaces[n]

    def _collapses(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        lv = self.level(n)
        # anc[i]: the place of ch[:i] in level i, for 1 <= i <= n
        anc: list = [None] * n + [np.arange(len(lv.lft))]
        for i in range(n - 1, 0, -1):
            anc[i] = self.level(i + 1).parent[anc[i + 1]]
        parts = []
        for i in range(n):
            mid = lv.chain[:, i]
            src, e = _expand(self._split_start[mid], self._split_count[mid])
            tgt = self._child(i, anc[i][src] if i else None, self._split_a[e])
            for t in range(i, n):
                tgt = self._child(t + 1, tgt, self._split_b[e] if t == i else lv.chain[src, t])
            parts.append((src, tgt, (-1) ** (i + 1) * self._split_c[e]))
        if not parts:
            return tuple(_ints([], [], []))
        src, tgt, coeff = (np.concatenate(part) for part in zip(*parts))
        order = np.argsort(src, kind="stable")
        return src[order], tgt[order], coeff[order]


_CHAINS = weakref.WeakKeyDictionary()  # algebra -> its RadicalChains


def radical_chains(alg: BasedAlgebra) -> RadicalChains:
    """The ``RadicalChains`` of alg, made on the first call and kept while alg
    lives, so its basis and products must not change after that."""
    bar = _CHAINS.get(alg)
    if bar is None:
        bar = _CHAINS[alg] = RadicalChains(alg)
    return bar


# cochains of degree n_max per block of whole buckets in ``bar_oracle``
_BLOCK_CELLS = 1 << 11


def _bar_differential(n: int, pos: np.ndarray, xi: np.ndarray, faces: list, left: tuple,
                      right: tuple, width: int, nrows: int, p: int) -> tuple[np.ndarray, ...]:
    """d_n on the cochains (pos[i], xi[i]) of degree n as (i, row, coeff),
    nonzero mod p, by i and then row (a cochain id of degree n + 1, < nrows):
    d(phi)(r0..rn) = r0 . phi(r1..rn) + sum_i (-1)^{i+1} phi(.. r_i r_{i+1} ..)
                     + (-1)^{n+1} phi(r0..r_{n-1}) . rn.
    faces and left, right: ``Cofaces`` and the actions, with the bounds of
    each source chain's run and of each a * width + x in place of the keys."""
    (hb, hr, ht), (cb, ct, cc), (tb, tr, tt) = faces
    keys, vals = [], []
    for bound, r, tgt, (ab, atgt, acoeff), sign in (
            (hb, hr, ht, left, 1), (tb, tr, tt, right, -1 if (n + 1) % 2 else 1)):
        c, f = _expand(bound[pos], bound[pos + 1] - bound[pos])  # each cochain's chain's cofaces
        a = r[f] * width + xi[c]
        at, e = _expand(ab[a], ab[a + 1] - ab[a])  # and the action on its value
        c, f = c[at], f[at]
        keys.append(c * nrows + tgt[f] * width + atgt[e])
        vals.append(sign * acoeff[e])
    c, f = _expand(cb[pos], cb[pos + 1] - cb[pos])
    keys.append(c * nrows + ct[f] * width + xi[c])
    vals.append(cc[f])
    key, val = _summed(np.concatenate(keys), np.concatenate(vals), p)
    return *np.divmod(key, nrows), val


def bar_oracle(alg: BasedAlgebra, x_mod: BasedBimodule, n_max: int) -> list[int]:
    """dim HH^n(alg, x_mod) for n = 0..n_max via the reduced bar complex.

    Cochains in degree n are A0-bimodule maps (rad A)^{(x)_{A0} n} -> X; no
    Koszulity is used.  Raises TooLarge before anything is built, from the
    exact sizes of ``bar_sizes``: when the cochains of degrees 1..n_max+1
    pass ``max_cells()``, or when the keys of a d_n or of its d.d = 0 check
    would not index in int64.

    A cochain's id is (place of its chain in level n) * dim X + (index of its
    value in X).  d keeps its bucket deg(x) - deg(chain) in (j, k), so the
    complex is the direct sum of its buckets, and the oracle works on blocks
    of whole buckets, in code order, of at most ``_BLOCK_CELLS`` cochains of
    degree n_max (or one bucket): when ``verify`` ran this oracle,
    ``verify --p 5`` peaked at about 65 MB of RSS, not 105 MB as with each
    d_n whole (x86-64 Linux).

    Phase 1, per block: ``_bar_differential`` assembles d_0..d_{n_max}; each
    entry's row must have its column's code, x's (slot, j, k) less the
    chain's (else "leaves its bucket"), and d_n . d_{n-1} must vanish.
    Phase 2, per block: ``coo_pivot_rows`` ranks d_n only on its columns off
    R, the pivot rows of d_{n-1}, the leading rows of V = im d_{n-1}.  A
    basis of V leading at R is triangular with a nonzero diagonal on R, so
    the coordinate vectors off R span a complement of V, on which d_n,
    killing V, has its full rank.  That needs d.d = 0, so no rank is taken
    before phase 1 has checked every block; the result is exact in any
    elimination order.  DEBUG lines give each bucket's shape and rank (the
    pivots leading in its rows), by n and then by its first cochain.
    """
    cap = max_cells()
    chains, cells = bar_sizes(alg, x_mod, n_max + 2)
    if sum(cells[1:n_max + 2]) > cap:
        raise TooLarge(f"bar complex would exceed {cap} cells")
    width = x_mod.dim
    for n in range(n_max + 1):
        # d_n is keyed by col * rows + row, its d.d = 0 join by col * (rows of d_{n+1}) + row
        if chains[n] * width * max(chains[n + 1], chains[n + 2]) * width > 2 ** 63 - 1:
            raise TooLarge(f"the entries of d_{n} would not index in int64")
    p, bar = alg.p, radical_chains(alg)
    faces = [[(t[0].searchsorted(np.arange(chains[n] + 1)), *t[1:]) for t in bar.cofaces(n)]
             for n in range(n_max + 1)]  # by the bounds of each chain's run, a dense index

    # codes of (slot, j, k) in digits of a base past twice any j or k difference
    x_left, x_right, x_j, x_k = x_mod.basis_slots
    vmax = 1 + max([0, *alg.vertices, *x_left.tolist(), *x_right.tolist()])
    base = 1 + 2 * (n_max + 2) * max(abs(v) for b in (*alg.basis, *x_mod.basis) for v in (b.j, b.k))
    x_slot = x_left * vmax + x_right
    x_code = (x_slot * base + x_j) * base + x_k
    ch_code = [((lv.lft * vmax + lv.rgt) * base + lv.j) * base + lv.k
               for lv in map(bar.level, range(n_max + 2))]
    x_by_slot = np.argsort(x_slot, kind="stable")

    def cochains(n: int) -> np.ndarray:
        """The ids of the cochains of degree n, ascending."""
        pos, idx = _within(x_slot[x_by_slot], bar.level(n).lft * vmax + bar.level(n).rgt)
        return pos * width + x_by_slot[idx]

    def code(n: int, ids: np.ndarray) -> np.ndarray:
        """x's code less its chain's, for ids of degree n: the bucket's iff slot-matched."""
        q, x = np.divmod(ids, width)
        return x_code[x] - ch_code[n][q]

    ids = [cochains(n) for n in range(n_max + 1)]
    codes = [code(n, i) for n, i in enumerate(ids)]
    buckets = _distinct(np.concatenate(codes))
    of, fill = [-1], _BLOCK_CELLS + 1  # each bucket's block, after a -1
    for t in np.bincount(buckets.searchsorted(codes[-1]), minlength=len(buckets)).tolist():
        new, fill = (1, t) if fill + t > _BLOCK_CELLS else (0, fill + t)
        of.append(of[-1] + new)
    blk = [np.array(of[1:], dtype=np.int64)[buckets.searchsorted(c)] for c in codes]

    lt, rt = x_mod.left, x_mod.right  # (a, x, a x, coeff) and (x, a, x a, coeff), sorted
    by_a, keys = np.lexsort((rt.x, rt.y)), np.arange(alg.dim * width + 1)
    left = (np.searchsorted(lt.x * width + lt.y, keys), lt.t, lt.c)
    right = (np.searchsorted(rt.y[by_a] * width + rt.x[by_a], keys), rt.t[by_a], rt.c[by_a])

    def phase1(b: int) -> list[tuple[np.ndarray, ...]]:  # block b's d_n as (col, row, coeff)
        d = []
        for n in range(n_max + 1):
            cols, c = (a[blk[n] == b] for a in (ids[n], codes[n]))
            nrows = max(1, chains[n + 1] * width)
            i, row, val = _bar_differential(n, *np.divmod(cols, max(1, width)), faces[n],
                                            left, right, width, nrows, p)
            if (code(n + 1, row) != c[i]).any():
                raise AssertionError(f"bar differential d_{n} leaves its bucket")
            col = cols[i]
            if d:  # d_n . d_{n-1} = 0: the rows of d_{n-1} are columns of d_n in the block
                lcol, lrow, lval = d[-1]
                o, u = _within(col, lrow)
                if len(_summed(lcol[o] * nrows + row[u], lval[o] * val[u], p)[0]):
                    raise AssertionError("bar differential does not square to zero")
            d.append((col, row, val))
        return d

    blocks = [phase1(b) for b in range(of[-1] + 1)]

    # imported here, not at module level, so that only the oracle's callers
    # pay for loading logging at start-up
    import logging
    log = logging.getLogger(__name__)
    debug = log.isEnabledFor(logging.DEBUG)
    if debug:  # by bucket code: each degree's first cochain, and the rows of each d_n
        from collections import Counter
        first = [dict(zip(c[::-1].tolist(), i[::-1].tolist())) for i, c in zip(ids, codes)]
        rows = [Counter(c.tolist()) for c in codes[1:] + [code(n_max + 1, cochains(n_max + 1))]]

    dims, lines = cells[:n_max + 1], []  # less each block's ranks
    for b in sorted(range(len(blocks)), key=lambda b: len(blocks[b][-1][0])):
        d, blocks[b] = blocks[b], None  # phase 2, smallest first, each freed once ranked
        skip = np.zeros(0, dtype=np.int64)  # the pivot rows of d_{n-1} in the block
        for n, (dcol, drow, dval) in enumerate(d):
            off = ~_among(skip, dcol)
            found = coo_pivot_rows(dcol[off], drow[off], dval[off], p)
            dims[n] -= len(found) + len(skip)
            if debug:  # a pivot counts in the bucket of its leading row
                nnz, pivots = (Counter(code(m, a).tolist()) for m, a in ((n, dcol), (n + 1, found)))
                lines += [(n, first[n][k], k, rows[n][k], c, nnz[k], pivots[k])
                          for k, c in Counter(codes[n][blk[n] == b].tolist()).items()]
            skip = found
    for n, _, k, *counts in sorted(lines):
        dj, dk = divmod(k + base // 2, base)
        log.debug("bar piece n=%d bucket=%s rows=%d cols=%d nnz=%d rank=%d", n,
                  (dj, dk - base // 2), *counts)
    return dims
