"""Helpers the references in these tests share.

``as_dict`` gives the entries of a ``quiver.Table`` as a dict of combos,
{(x, y): {t: c}}: the form in which the references read and write tables.
``pair_table`` builds a window's ``quiver.WindowTable`` with one product
call per ordered pair, as the per-pair references of the grid, club and
tower products do, and ``component`` lists the grid elements of one slot.
``column_map`` and ``columned`` make and read a ``BimoduleMap`` as the list
of its columns, the combos f(m), as it was stored before its table.  The
per-index formulas of Omega's monomials (``word``, ``omega_key``, ``in_ideal``,
``theta_sigma_index``, ``ideal_partner``, ``theta_partner``) are the
references for the partner arrays of ``OmegaAlgebra``.  ``broken_omega3``
and ``corrupted_actions`` are inputs that both bar oracles must refuse.
"""

import functools
import types

import numpy as np

from hh2.clubsuit import OUT_OF_WINDOW
from hh2.quiver import (BasedAlgebra, BasedBimodule, BimoduleMap, WindowTable, combo_add,
                        table_of, window_table)


def as_dict(table) -> dict:
    """{(x, y): {t: c}} over the nonzero entries of a ``quiver.Table``."""
    out: dict = {}
    for x, y, t, c in zip(*(a.tolist() for a in table)):
        out.setdefault((x, y), {})[t] = c
    return out


def component(alg, a: int, b: int) -> list:
    """The elements of a grid window's basis at slot (a, b)."""
    return [m for m in alg.basis if (m.a, m.b) == (a, b)]


def pair_table(basis: list, product, p: int) -> WindowTable:
    """The table of basis[i] * basis[j]: one product call per ordered pair."""
    idx = {m: i for i, m in enumerate(basis)}
    terms, out = [], []  # flat: [x, y, t, c, ...] and [x, y, ...]
    for i, m1 in enumerate(basis):
        for j, m2 in enumerate(basis):
            r = product(m1, m2)
            if r is OUT_OF_WINDOW:
                out += i, j
            else:
                for el, c in r.items():
                    terms += i, j, idx[el], c
    return window_table(len(basis), [np.array(terms, dtype=np.int64).reshape(-1, 4).T],
                        [np.array(out, dtype=np.int64).reshape(-1, 2).T], p)


# -- maps as lists of columns --------------------------------------------------


def column_map(source, target, columns: list[dict], dj: int = 0, dk: int = 0,
               name: str = "") -> BimoduleMap:
    """The ``BimoduleMap`` sending basis element m of source to columns[m]."""
    entries = {(m, 0): col for m, col in enumerate(columns)}
    return BimoduleMap(source, target, table_of(entries, source.p), dj, dk, name)


def columned(mp: BimoduleMap):
    """mp with its ``columns``, f(m) for each m, and ``apply``, f of a combo."""
    columns = [dict(mp.table.get((m, 0), {})) for m in range(mp.source.dim)]

    def apply(combo: dict) -> dict:
        out: dict = {}
        for idx, c in combo.items():
            combo_add(out, columns[idx], c, mp.source.p)
        return out

    return types.SimpleNamespace(source=mp.source, target=mp.target, name=mp.name,
                                 columns=columns, apply=apply)


# -- Omega's monomials, one index at a time ------------------------------------


def data_of(b) -> tuple[int, int, int]:
    """(src, downs, ups) of a monomial of Omega from its basis element."""
    src = b.right
    length = b.k
    a = (length + src - b.left) // 2
    return src, a, length - a


@functools.cache
def omega_key(omega) -> dict:
    """{(src, downs, ups): index} of Omega's monomials, read from their basis elements."""
    return {data_of(b): i for i, b in enumerate(omega.basis)}


def word(omega, idx: int) -> tuple[int, int, int]:
    """(src, downs, ups) of a basis monomial."""
    return data_of(omega.basis[idx])


def in_ideal(omega, idx: int) -> bool:
    """Whether the monomial factors through the top vertex p."""
    src, a, b = word(omega, idx)
    return a >= omega.p - omega.basis[idx].left


def theta_sigma_index(omega, idx: int) -> int:
    """Index of the involution image of a non-ideal monomial (swap arrows, flip vertices)."""
    src, a, b = word(omega, idx)
    return omega_key(omega)[(omega.p - src, b, a)]


def ideal_partner(omega, idx: int) -> int:
    """beta-partner inside the ideal: complement the down/up counts to p-1."""
    src, a, b = word(omega, idx)
    left = src - a + b
    return omega_key(omega)[(left, omega.p - 1 - a, omega.p - 1 - b)]


def theta_partner(omega, idx: int) -> int:
    """Form partner of a non-ideal monomial: paths compose to the socle."""
    src, a, b = word(omega, idx)
    left = src - a + b
    p = omega.p
    return omega_key(omega)[(left, src - 1 - a, p - 1 - b - src)]


# -- inputs the bar oracles must refuse ---------------------------------------


def broken_omega3(omega) -> BasedAlgebra:
    """Omega at p = 3 with the product y1e1 * x1e2 doubled: not associative
    on radical triples, so d_3 . d_2 of the plain bar complex is not zero."""
    key = (omega.index["y1e1"], omega.index["x1e2"])
    products = as_dict(omega.products)
    products[key] = {t: 2 * c % 3 for t, c in products[key].items()}
    return BasedAlgebra(3, omega.basis, table_of(products, 3), omega.idem)


def corrupted_actions(omega, module, side: str):
    """Copies of module, each with one action entry a . x (side "left") or
    x . a (side "right") with a radical doubled: each breaks the bimodule
    axioms."""
    table = as_dict(getattr(module, side))
    radical = {i for i, b in enumerate(omega.basis) if b.j or b.k}
    for key, prod in table.items():
        if prod and (key[0] if side == "left" else key[1]) in radical:
            bad_table = dict(table)
            bad_table[key] = {t: 2 * c % omega.p for t, c in prod.items()}
            tables = {"left": module.left, "right": module.right,
                      side: table_of(bad_table, omega.p)}
            yield BasedBimodule(omega, module.basis, tables["left"], tables["right"], name="bad")
