"""The grid algebra's product one name pair and one pair of basis elements
at a time: the reference that ``spadesuit.name_table``,
``SpadeAlgebra.product_table`` and ``SpadeAlgebra.product`` are compared
with.  No command runs it, so it lives with the tests.

The closed-form name products (``chi_mul``, ``chi_on_dual``, ``star_mul``,
``box_mul``, ``triangle_mul``, ``diamond_mul``, and ``name_product``, which
picks one by the labels) are the per-pair rule that ``name_table`` was
enumerated from before it was built from arrays; ``name_table`` here is that
enumeration.  ``product`` is ``SpadeAlgebra.product`` from before the
window's table became its one product rule, with the window passed as
``alg`` and the target slot read from ``component_at``.  ``make_element`` is
one element as ``SpadeAlgebra`` made each before it kept its basis as arrays,
and ``augmentation`` the splitting onto the ground field that the tower's
projection (``tower_reference.project``) reads.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from tables import pair_table
from hh2.clubsuit import (CHI, CHIBAR_MINUS, CHIBAR_PLUS, CHIBARSTAR_MINUS, CHIBARSTAR_PLUS,
                          CHIUNDER, OMEGA0, OUT_OF_WINDOW, component_at)
from hh2.koszulhh import Name, NameCombo, concrete_degree, idempotent_label
from hh2.quiver import WindowTable
from hh2.spadesuit import SpadeAlgebra, SpadeElement, component_names, half


def make_element(p: int, a: int, b: int, name: Name) -> SpadeElement:
    comp = component_at(p, a, b)
    if comp is None:
        raise ValueError(f"vacant slot {(a, b)}")
    j, k, _h = concrete_degree(p, name)
    return SpadeElement(a, b, name, comp.label, a + b, j + comp.jshift, k + comp.kshift,
                        idempotent_label(name))


def augmentation(m: SpadeElement) -> int:
    """The splitting onto the ground field: 1 on the unit, 0 elsewhere."""
    return 1 if (m.a, m.b, m.name) == (0, 0, ("z", 0)) else 0


def chi_mul(p: int, n1: Name, n2: Name) -> NameCombo:
    """Product in the full class algebra chi."""
    k1, a1 = n1
    k2, a2 = n2
    if k1 == "z" and k2 == "z":
        return {("z", a1 + a2): 1} if a1 + a2 <= p - 1 else {}
    if k1 == "z" and k2 == "kz":
        return {("kz", a1 + a2): 1} if a1 + a2 <= p - 2 else {}
    if k1 == "kz" and k2 == "z":
        return {("kz", a1 + a2): 1} if a1 + a2 <= p - 2 else {}
    if k1 == "kz" and k2 == "kz":
        return {}
    if k1 == "c2":
        return {n1: 1} if n2 == ("z", 0) else {}
    if k2 == "c2":
        return {n2: 1} if n1 == ("z", 0) else {}
    raise ValueError((n1, n2))


@lru_cache(maxsize=None)
def _name_set(p: int, kind: str) -> frozenset[Name]:
    return frozenset(component_names(p, kind))


def truncate_to(p: int, kind: str, combo: NameCombo) -> NameCombo:
    """Project a chi-name combination onto the names of a target kind."""
    if not combo:
        return {}
    allowed = _name_set(p, kind)
    return {n: c for n, c in combo.items() if n in allowed}


def chi_on_dual(p: int, n1: Name, n2: Name) -> NameCombo:
    """Action of a chi-type name n1 on a dual-type name n2 (both sides agree)."""
    k1, a1 = n1
    k2, a2 = n2
    h = (p - 1) // 2
    if k1 == "z":
        if a1 == 0:
            return {n2: 1}
        if k2 in ("mu", "nu") and a2 - a1 >= 1:
            return {(k2, a2 - a1): 1}
        return {}
    if k1 == "kz":
        if k2 == "mu" and a2 - a1 >= 1:
            return {("nu", a2 - a1): half(p)}
        return {}
    if k1 == "c2":
        if k2 == "soc" and a2 == a1:
            s = a1
            sign = 1 if (h - s) % 2 == 0 else -1
            return {("nu", 1): (sign * half(p)) % p}
        return {}
    raise ValueError((n1, n2))


def star_mul(p: int, n1: Name, n2: Name) -> NameCombo:
    """Products of two dual-type names landing in truncation names."""
    h = (p - 1) // 2
    pairs = {n1, n2}
    if n1 == ("mu", h) and n2 == ("mu", h):
        return {("c2", h): 1, ("c2", h + 1): p - 1}
    if pairs == {("mu", h), ("soc", h)} or pairs == {("mu", h), ("soc", h + 1)}:
        return {("kz", h - 1): 1}
    return {}


def box_mul(p: int, n1: Name, n2: Name) -> NameCombo:
    """Truncation x dual (either order) landing in the vertex algebra."""
    for first, second in ((n1, n2), (n2, n1)):
        if first == ("z", 0) and second[0] == "soc":
            return {("e", second[1]): 1}
    return {}


def triangle_mul(p: int, n1: Name, n2: Name) -> NameCombo:
    """Kernel x kernel into the vertex algebra.

    The unique nonzero value, computed from the duality pairing on the ideal,
    is z^{(p-1)/2} squared = sum of e_s over s > (p-1)/2.  (The stated form
    of this product in the source records only its top-vertex component.)
    """
    h = (p - 1) // 2
    if n1 == ("z", h) and n2 == ("z", h):
        return {("e", s): 1 for s in range(h + 1, p + 1)}
    return {}


def diamond_mul(p: int, n1: Name, n2: Name) -> NameCombo:
    """chi x vertex algebra (either order) into z^{p-1}; only e_p survives."""
    for first, second in ((n1, n2), (n2, n1)):
        if first == ("z", 0) and second == ("e", p):
            return {("z", p - 1): 1}
    return {}


def name_product(p: int, kind1: str, n1: Name, kind2: str, n2: Name,
                 target_kind: str) -> NameCombo:
    """Product of names per the closed-form tables, before placement signs."""
    chi_kinds = (CHI, CHIBAR_MINUS, CHIBAR_PLUS, CHIUNDER)
    star_kinds = (CHIBARSTAR_MINUS, CHIBARSTAR_PLUS)
    if kind1 in chi_kinds and kind2 in chi_kinds:
        if target_kind in chi_kinds:
            return truncate_to(p, target_kind, chi_mul(p, n1, n2))
        if target_kind == OMEGA0:  # kernel x kernel
            if kind1 == CHIUNDER and kind2 == CHIUNDER:
                return triangle_mul(p, n1, n2)
            return {}
        return {}
    if kind1 in chi_kinds and kind2 in star_kinds:
        if target_kind in star_kinds:
            return chi_on_dual(p, n1, n2)
        if target_kind == OMEGA0:
            return box_mul(p, n1, n2)
        return {}
    if kind1 in star_kinds and kind2 in chi_kinds:
        if target_kind in star_kinds:
            return chi_on_dual(p, n2, n1)
        if target_kind == OMEGA0:
            return box_mul(p, n1, n2)
        return {}
    if kind1 in star_kinds and kind2 in star_kinds:
        if target_kind in (CHIBAR_MINUS, CHIBAR_PLUS, CHI):
            return truncate_to(p, target_kind, star_mul(p, n1, n2))
        return {}
    if OMEGA0 in (kind1, kind2):
        other = kind2 if kind1 == OMEGA0 else kind1
        if other == CHI:
            if target_kind == OMEGA0:
                # unit action only
                nc, no = (n1, n2) if kind1 == CHI else (n2, n1)
                return {no: 1} if nc == ("z", 0) else {}
            if target_kind in (CHIUNDER, CHI):
                return diamond_mul(p, n1, n2)
            return {}
        return {}  # vertex algebra kills everything else
    return {}


def name_table(p: int, label1: str, label2: str, target: str) -> tuple[np.ndarray, ...]:
    """The nonzero ``name_product``s of a label1 name and a label2 name into
    the target label, as int64 arrays (u, v, t, c), one call per name pair."""
    at = {name: i for i, name in enumerate(component_names(p, target))}
    names2 = list(enumerate(component_names(p, label2)))
    flat = [(u, v, at[name], c) for u, n1 in enumerate(component_names(p, label1))
            for v, n2 in names2
            for name, c in name_product(p, label1, n1, label2, n2, target).items()]
    return tuple(np.array(flat, dtype=np.int64).reshape(-1, 4).T)


def product(alg: SpadeAlgebra, m1: SpadeElement, m2: SpadeElement):
    """Linear combination {SpadeElement: coeff}, or OUT_OF_WINDOW."""
    target = component_at(alg.p, m1.a + m2.a, m1.b + m2.b)
    if target is None:
        return {}
    names = name_product(alg.p, m1.kind, m1.name, m2.kind, m2.name, target.label)
    if not names:
        return {}
    if not (alg.a_min <= target.a <= alg.a_max and alg.a_min <= target.b <= alg.a_max):
        return OUT_OF_WINDOW
    # Koszul sign from the odd k-suspension of the plus-side components:
    # only the right factor's slot shift against the left factor's
    # unshifted k-degree enters
    k2_shift = alg.slots[m2.a, m2.b].kshift
    k1_unshifted = m1.k - alg.slots[m1.a, m1.b].kshift
    sign = -1 if (k2_shift * k1_unshifted) % 2 else 1
    out = {}
    for name, coeff in names.items():
        el = alg.basis[alg.index[(target.a, target.b, name)]]
        out[el] = (sign * coeff) % alg.p
    return out


def product_table(alg: SpadeAlgebra) -> WindowTable:
    """The window's table from one reference ``product`` per ordered pair."""
    return pair_table(alg.basis, lambda m1, m2: product(alg, m1, m2), alg.p)
