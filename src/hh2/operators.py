"""The finite tower hh_l of the contraction operator.

The operator contracts a trigraded algebra G against the j-grading of a
bigraded algebra S:  O_G(S)^{ik} = sum_j G^{ijk1} (x) S^{jk2}, with the super
tensor product taken in the k-grading.  Iterating the grid algebra's operator
on Laurent polynomials and applying the ground-field operator once gives
hh_l; its basis is the set of weight-zero tuples of grid basis elements
together with a Laurent exponent, which ``build_hhl`` lists directly.  The
step-by-step operator is the tests' reference (``tests/tower_reference.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import Hh2Error
from .spadesuit import OUT_OF_WINDOW, SpadeAlgebra, augmentation


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

    def display(self) -> str:
        inner = " | ".join(m.display() for m in self.factors)
        return f"({inner} | z^{self.alpha})" if inner else f"(z^{self.alpha})"


def _completions(spade: SpadeAlgebra, level: int
                 ) -> tuple[dict[int, list], list[dict[int, dict[int, int]]]]:
    """(rows, ways): rows[i] lists the elements of row i in basis order, and
    ways[r][i] = {k: the number of r-factor tuples that start in row i and
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
    return rows, ways


def _size(ways: list[dict[int, dict[int, int]]], k_max: int | None) -> int:
    return sum(n for k, n in ways[-1].get(0, {}).items() if k_max is None or k <= k_max)


def tower_size(spade: SpadeAlgebra, level: int, k_max: int | None = None) -> int:
    """The number of basis elements of hh_level over spade, without listing them."""
    return _size(_completions(spade, level)[1], k_max)


class HHLAlgebra:
    """The level-l approximant on a finite window.

    Basis: tuples (m^1, ..., m^l, alpha) with i(m^1) = 0, i(m^{q+1}) = j(m^q)
    and alpha = j(m^l), of total k-degree within the window.  The product is
    componentwise with super signs; products leaving the underlying grid
    window return OUT_OF_WINDOW.
    """

    def __init__(self, p: int, level: int, spade: SpadeAlgebra, k_max: int | None = None):
        rows, ways = _completions(spade, level)
        size = _size(ways, k_max)
        if size > MAX_WINDOW:
            raise UnboundedWindow(f"hh_{level} has {size} basis elements, more than "
                                  f"{MAX_WINDOW} can be enumerated")
        self.p = p
        self.level = level
        self.spade = spade
        self.k_max = k_max
        bound = math.inf if k_max is None else k_max
        tuples: list[tuple[tuple, int]] = [((), 0)]  # (factors, their k-degree)
        for q in range(level):
            new: list[tuple[tuple, int]] = []
            # the least k that the remaining factors add after each row
            rest = {i: min(at) for i, at in ways[level - q - 1].items()}
            for tup, k in tuples:
                for m in rows.get(tup[-1].j if q else 0, ()):
                    # drop a tuple that no continuation completes within the bound
                    if m.j in rest and k + m.k + rest[m.j] <= bound:
                        new.append((tup + (m,), k + m.k))
            tuples = new
        self.basis = [TowerElement(tup, tup[-1].j if tup else 0) for tup, k in tuples
                      if k <= bound]
        self.index = {el: n for n, el in enumerate(self.basis)}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def product(self, e1: TowerElement, e2: TowerElement):
        """{TowerElement: coeff} or OUT_OF_WINDOW."""
        p = self.p
        sign_exp = 0
        for q in range(self.level):
            for q2 in range(q + 1, self.level):
                sign_exp += e2.factors[q].k * e1.factors[q2].k
        coeff0 = -1 if sign_exp % 2 else 1
        partial: list[tuple[tuple, int]] = [((), coeff0)]
        for q in range(self.level):
            prod = self.spade.product(e1.factors[q], e2.factors[q])
            if prod is OUT_OF_WINDOW:
                return OUT_OF_WINDOW
            if not prod:
                return {}
            new = []
            for tup, c in partial:
                for m, cm in prod.items():
                    new.append((tup + (m,), (c * cm) % p))
            partial = new
        out: dict[TowerElement, int] = {}
        for tup, c in partial:
            el = TowerElement(tup, e1.alpha + e2.alpha)
            if el not in self.index:
                return OUT_OF_WINDOW
            out[el] = (out.get(el, 0) + c) % p
        return {k: v for k, v in out.items() if v}

    def hilbert_series(self, grading: str = "k") -> dict:
        """Exact basis counts per degree ('k' or 'jk')."""
        out: dict = {}
        for el in self.basis:
            key = el.k if grading == "k" else (el.j, el.k)
            out[key] = out.get(key, 0) + 1
        return dict(sorted(out.items()))


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
