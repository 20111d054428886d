"""The tower's references, which no command runs, so they live with the
tests: the contraction operator on bigraded algebras applied step by step,
which ``tests/test_operators.py`` compares ``operators.build_hhl`` with, and
the tower's product one pair of basis elements at a time, which
``HHLAlgebra.product_table`` is compared with; ``tower_size``, the size of
the tower's basis counted without listing it; and ``hilbert_series``, the
basis counted by degree.

The operator contracts a trigraded algebra G against the j-grading of a
bigraded algebra S:  O_G(S)^{ik} = sum_j G^{ijk1} (x) S^{jk2}, with the super
tensor product taken in the k-grading.  Iterating the grid algebra's operator
on Laurent polynomials and applying the ground-field operator once gives hh_l.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from hh2.operators import (MAX_WINDOW, HHLAlgebra, TowerElement, UnboundedWindow, _completions,
                           _size)
from hh2.quiver import WindowTable
from hh2.spadesuit import OUT_OF_WINDOW, SpadeAlgebra
from tables import pair_table


def tower_size(spade: SpadeAlgebra, level: int, k_max: int | None = None) -> int:
    """The number of basis elements of hh_level over spade, without listing them."""
    return _size(_completions(spade, level), k_max)


def hilbert_series(alg: HHLAlgebra, grading: str = "k") -> dict:
    """Exact basis counts per degree ('k' or 'jk')."""
    out: dict = {}
    for el in alg.basis:
        key = el.k if grading == "k" else (el.j, el.k)
        out[key] = out.get(key, 0) + 1
    return dict(sorted(out.items()))


def product(alg: HHLAlgebra, e1: TowerElement, e2: TowerElement):
    """{TowerElement: coeff} or OUT_OF_WINDOW: ``HHLAlgebra.product`` from
    before the tower's table, with the tower passed as ``alg``."""
    p = alg.p
    sign_exp = 0
    for q in range(alg.level):
        for q2 in range(q + 1, alg.level):
            sign_exp += e2.factors[q].k * e1.factors[q2].k
    coeff0 = -1 if sign_exp % 2 else 1
    partial: list[tuple[tuple, int]] = [((), coeff0)]
    for q in range(alg.level):
        prod = alg.spade.product(e1.factors[q], e2.factors[q])
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
        if el not in alg.index:
            return OUT_OF_WINDOW
        out[el] = (out.get(el, 0) + c) % p
    return {k: v for k, v in out.items() if v}


def product_table(alg: HHLAlgebra) -> WindowTable:
    """The tower's table from one reference ``product`` per ordered pair."""
    return pair_table(alg.basis, lambda e1, e2: product(alg, e1, e2), alg.p)


@dataclass(frozen=True)
class Bigraded:
    """Element wrapper with (j, k) grading and an opaque payload key."""
    key: tuple
    j: int
    k: int


class BigradedAlgebra:
    """Explicitly based bigraded algebra with a partial product function.

    ``mul`` returns {Bigraded: coeff}, or OUT_OF_WINDOW for products that
    leave the enumerated window.
    """

    def __init__(self, p: int, basis: list[Bigraded], mul: Callable, name: str = ""):
        self.p = p
        self.basis = basis
        self.mul = mul
        self.name = name
        self.by_key = {b.key: b for b in basis}

    @property
    def dim(self) -> int:
        return len(self.basis)


def laurent_window(p: int, d_min: int, d_max: int) -> BigradedAlgebra:
    """F[z, z^-1] truncated to exponents [d_min, d_max]; z has degree (1, 0)."""
    if d_max - d_min > MAX_WINDOW:
        raise UnboundedWindow("exponent window too large to enumerate")
    basis = [Bigraded(("z", d), d, 0) for d in range(d_min, d_max + 1)]

    def mul(e1: Bigraded, e2: Bigraded):
        d = e1.key[1] + e2.key[1]
        if d_min <= d <= d_max:
            return {Bigraded(("z", d), d, 0): 1}
        return OUT_OF_WINDOW

    return BigradedAlgebra(p, basis, mul, name=f"F[z]({d_min},{d_max})")


def apply_operator(gamma: SpadeAlgebra | None, sigma: BigradedAlgebra) -> BigradedAlgebra:
    """One application of the contraction operator.

    gamma=None is the ground-field kernel: it keeps the j-degree-zero part of
    sigma (with i reinterpreted as 0).  Otherwise the output basis is the set
    of pairs (g, s) with j(g) = j(s), graded by (i(g), k(g) + k(s)), with
    product (g (x) s)(g' (x) s') = (-1)^{k(s) k(g')} gg' (x) ss'.
    """
    p = sigma.p
    if gamma is None:
        basis = [Bigraded(("F", b.key), 0, b.k) for b in sigma.basis if b.j == 0]

        def mul0(e1: Bigraded, e2: Bigraded):
            s1 = sigma.by_key[e1.key[1]]
            s2 = sigma.by_key[e2.key[1]]
            prod = sigma.mul(s1, s2)
            if prod is OUT_OF_WINDOW:
                return OUT_OF_WINDOW
            out = {}
            for s, c in prod.items():
                if s.j == 0:
                    out[Bigraded(("F", s.key), 0, s.k)] = c % p
            return out

        return BigradedAlgebra(p, basis, mul0, name=f"O_F({sigma.name})")

    basis = []
    sigma_by_j: dict[int, list[Bigraded]] = {}
    for s in sigma.basis:
        sigma_by_j.setdefault(s.j, []).append(s)
    for g in gamma.basis:
        for s in sigma_by_j.get(g.j, []):
            basis.append(Bigraded((g, s.key), g.i, g.k + s.k))

    def mul(e1: Bigraded, e2: Bigraded):
        g1, s1key = e1.key
        g2, s2key = e2.key
        s1, s2 = sigma.by_key[s1key], sigma.by_key[s2key]
        gprod = gamma.product(g1, g2)
        if gprod is OUT_OF_WINDOW:
            return OUT_OF_WINDOW
        if not gprod:
            return {}
        sprod = sigma.mul(s1, s2)
        if sprod is OUT_OF_WINDOW:
            return OUT_OF_WINDOW
        if not sprod:
            return {}
        sign = -1 if (s1.k * g2.k) % 2 else 1
        out = {}
        for g, cg in gprod.items():
            for s, cs in sprod.items():
                if g.j != s.j:
                    continue
                key = Bigraded((g, s.key), g.i, g.k + s.k)
                out[key] = (out.get(key, 0) + sign * cg * cs) % p
        return {k: v for k, v in out.items() if v}

    return BigradedAlgebra(p, basis, mul, name=f"O_spade({sigma.name})")
