"""The finite tower hh_l of the contraction operator.

The operator contracts a trigraded algebra G against the j-grading of a
bigraded algebra S:  O_G(S)^{ik} = sum_j G^{ijk1} (x) S^{jk2}, with the super
tensor product taken in the k-grading.  Iterating the grid algebra's operator
on Laurent polynomials and applying the ground-field operator once gives
hh_l; its basis is the set of weight-zero tuples of grid basis elements
together with a Laurent exponent, which ``build_hhl`` lists directly.  The
step-by-step operator is the tests' reference (``tests/tower_reference.py``).

The product is componentwise: e1 e2 is the tensor of the grid products of
the factors, at the Laurent exponent of e1 plus e2's, with the super sign
(-1)^(sum over q < q' of k(e2, q) k(e1, q')).  The first factor whose grid
product is out of the window or zero makes the pair out or zero; past that,
a result tuple outside the basis puts the pair out, and terms that cancel
leave it zero.  ``HHLAlgebra.product_table`` holds all products as one
``quiver.WindowTable``, and ``product`` reads an entry of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import Hh2Error
from .exactlin import _among, _distinct, _within, half_join, join_index
from .quiver import WindowTable, window_table
from .spadesuit import MAX_PRODUCTS, SpadeAlgebra, augmentation, window_entry


class UnboundedWindow(Hh2Error):
    pass


MAX_WINDOW = 250_000


# ---------------------------------------------------------------------------
# direct construction of the tower by weight-zero tuples

@dataclass(frozen=True)
class TowerElement:
    factors: tuple  # SpadeElements, outermost first
    alpha: int      # Laurent exponent

    @property
    def k(self) -> int:
        return sum(m.k for m in self.factors)

    @property
    def j(self) -> int:
        return self.factors[0].j if self.factors else self.alpha


def _completions(spade: SpadeAlgebra, level: int) -> list[dict[int, dict[int, int]]]:
    """ways[r][i] = {k: the number of r-factor tuples that start in row i and
    add k}, for r = 0..level, where each next factor lies in the row of the
    previous one's j.  A row that no such tuple starts in is absent; r = 0
    is one way, adding 0, after any row."""
    rows: dict[int, list] = {}
    for m in spade.basis:
        rows.setdefault(m.i, []).append(m)
    ways = [{i: {0: 1} for i in {0, *(m.j for m in spade.basis)}}]
    for _ in range(level):
        prev, cur = ways[-1], {}
        for i, row in rows.items():
            at: dict[int, int] = {}
            for m in row:
                for k, n in prev.get(m.j, {}).items():
                    at[k + m.k] = at.get(k + m.k, 0) + n
            if at:
                cur[i] = at
        ways.append(cur)
    return ways


def _size(ways: list[dict[int, dict[int, int]]], k_max: int | None) -> int:
    return sum(n for k, n in ways[-1].get(0, {}).items() if k_max is None or k <= k_max)


def super_sign(k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """(-1)^(sum over q < q' of k2[q] k1[q']) per row: the sign of the
    product of tuples with factor degrees k1 and k2, arrays of one row each."""
    return 1 - 2 * ((k1 * (np.cumsum(k2, axis=1) - k2)).sum(axis=1) % 2)


class HHLAlgebra:
    """The level-l approximant on a finite window.

    Basis: tuples (m^1, ..., m^l, alpha) with i(m^1) = 0, i(m^{q+1}) = j(m^q)
    and alpha = j(m^l), of total k-degree within the window, as arrays in
    basis order: ``factors``, the grid indices of m^1..m^l per row, ``alpha``
    and ``k``.  Their ``TowerElement``s are made on the first read of ``basis``.
    """

    def __init__(self, p: int, level: int, spade: SpadeAlgebra, k_max: int | None = None):
        ways = _completions(spade, level)
        size = _size(ways, k_max)
        if size > MAX_WINDOW:
            raise UnboundedWindow(f"hh_{level} has {size} basis elements, more than "
                                  f"{MAX_WINDOW} can be enumerated")
        self.p = p
        self.level = level
        self.spade = spade
        bound = math.inf if k_max is None else k_max
        si, sj, sk = (np.array([getattr(m, x) for m in spade.basis], dtype=np.int64) for x in "ijk")
        lo = min(0, si.min(initial=0), sj.min(initial=0))
        row = join_index(si - lo)  # each row's elements in basis order
        # the tuples so far in basis order, their k-degree and the j of their
        # last factor: at first the empty tuple, before row 0
        f, (k, end) = np.zeros((1, 0), dtype=np.int64), np.zeros((2, 1), dtype=np.int64)
        for q in range(level):
            # the least k that the remaining factors add after each element;
            # NaN, which fails the bound, where no continuation completes
            rest = ways[level - q - 1]
            least = np.array([min(rest[m.j]) if m.j in rest else np.nan for m in spade.basis])
            s, e = half_join(end - lo, row)
            keep = k[s] + sk[e] + least[e] <= bound
            s, e = s[keep], e[keep]
            f, k, end = np.column_stack((f[s], e)), k[s] + sk[e], sj[e]
        keep = k <= bound
        self.factors, self.k, self.alpha = f[keep], k[keep], end[keep]
        self._table: WindowTable | None = None

    @cached_property
    def basis(self) -> list[TowerElement]:
        return [TowerElement(tuple(map(self.spade.basis.__getitem__, row)), alpha)
                for row, alpha in zip(self.factors.tolist(), self.alpha.tolist())]

    @cached_property  # only product, project and the hh_2 checks look elements up
    def index(self) -> dict[TowerElement, int]:
        return {el: n for n, el in enumerate(self.basis)}

    @property
    def dim(self) -> int:
        return len(self.alpha)

    def product(self, e1: TowerElement, e2: TowerElement):
        """{TowerElement: coeff} or OUT_OF_WINDOW: the entry of ``product_table``
        at the pair."""
        return window_entry(self.product_table(), self.basis, self.index[e1], self.index[e2])

    def product_table(self) -> WindowTable:
        """The products, made from the grid's table on the first call and kept.
        The pairs whose first factors multiply to nonzero or out (a join with
        the grid's pairs) are decided factor by factor; the grid's terms of
        the pairs left are then joined level by level."""
        if self._table is not None:
            return self._table
        p, n, level = self.p, self.dim, self.level
        if n * n > MAX_PRODUCTS:
            raise UnboundedWindow(f"hh_{level} has {n} elements, so {n * n} products: "
                                  f"more than {MAX_PRODUCTS}")
        g, (gx, gy, gt, gc), (ox, oy) = self.spade.product_table()
        f, alpha = self.factors, self.alpha
        ks = np.array([m.k for m in self.spade.basis], dtype=np.int64)[f]
        key, outs = gx * g + gy, ox * g + oy  # each sorted
        i = j = np.zeros(n, dtype=np.int64)  # the pair of hh_0, if k_max leaves it
        if level:
            first, both = join_index(f[:, 0]), _distinct(np.concatenate((key, outs)))
            d, a = half_join(both // g, first)
            o, j = half_join(both[d] % g, first)
            i = a[o]
        out = []
        for q in range(level):
            has = _among(key, pair := f[i, q] * g + f[j, q])
            off = ~has & _among(outs, pair)
            out.append((i[off], j[off]))
            i, j = i[has], j[has]
        # rows (pair, place among the basis's prefixes of its length or -1, coeff)
        r, place, c = np.arange(len(i)), np.zeros(len(i), dtype=np.int64), super_sign(ks[i], ks[j])
        placed = np.zeros(n, dtype=np.int64)  # the place of each element's prefix
        for q in range(level):
            codes = _distinct(placed * g + f[:, q])  # the prefixes of length q + 1
            placed = codes.searchsorted(placed * g + f[:, q])
            o, e = _within(key, f[i[r], q] * g + f[j[r], q])
            r, c, code = r[o], c[o] * gc[e] % p, place[o] * g + gt[e]
            place = np.where((code >= 0) & _among(codes, code), codes.searchsorted(code), -1)
        el = np.argsort(placed)[place]
        lost = _distinct(r[(place < 0) | (alpha[el] != alpha[i[r]] + alpha[j[r]])])
        keep = ~_among(lost, r)
        out.append((i[lost], j[lost]))
        self._table = window_table(n, [(i[r[keep]], j[r[keep]], el[keep], c[keep])], out, p)
        return self._table


def build_hhl(p: int, level: int, spade: SpadeAlgebra, k_max: int | None = None) -> HHLAlgebra:
    return HHLAlgebra(p, level, spade, k_max=k_max)


def project(alg: HHLAlgebra, el: TowerElement, target: HHLAlgebra) -> dict:
    """The tower surjection: augment the outermost factor away."""
    if alg.level == 0:
        raise ValueError("level-0 algebra has no projection")
    if augmentation(el.factors[0]) == 0:
        return {}
    image = TowerElement(el.factors[1:], el.alpha)
    if image not in target.index:
        return {}
    return {image: 1}
