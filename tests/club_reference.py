"""The club window's product one pair of basis elements at a time: the
reference that ``ClubWindow.product_table`` and ``ClubWindow.symmetry_form``
are compared with.  No command runs it, so it lives with the tests.  These
are the window's methods from before its table was read off the pairing
tables, with their bodies unchanged and the window passed as ``win``.
"""

from __future__ import annotations

from tables import pair_table
from hh2.clubsuit import OUT_OF_WINDOW, PRODUCT_TABLE, ClubWindow, GridComponent, component_at
from hh2.quiver import BasedBimodule, WindowTable


def module_of(win: ClubWindow, comp: GridComponent) -> BasedBimodule:
    return win.maps.modules[comp.kind]


def basis(win: ClubWindow) -> list[tuple[GridComponent, int]]:
    out = []
    for key in sorted(win.components):
        comp = win.components[key]
        mod = module_of(win, comp)
        out.extend((comp, m) for m in range(mod.dim))
    return out


def product(win: ClubWindow, comp1: GridComponent, m1: int, comp2: GridComponent, m2: int):
    """Product of two window elements.

    Returns (target, combo); (None, {}) is a genuine zero, while a target
    slot outside the window gives (OUT_OF_WINDOW, None).  A pairing of
    PRODUCT_TABLE whose codomain is not the target's module multiplies to
    zero there.
    """
    a, b = comp1.a + comp2.a, comp1.b + comp2.b
    target = component_at(win.p, a, b)
    if target is None:
        return None, {}
    name = PRODUCT_TABLE.get((comp1.kind, comp2.kind, target.kind))
    if name is None:
        return None, {}
    if (a, b) not in win.components:
        return OUT_OF_WINDOW, None
    pairing = win.maps.pairings[name]
    if pairing.z_mod is not module_of(win, target):
        return None, {}
    return target, pairing.table.get((m1, m2), {})


def socle_evaluation(win: ClubWindow, combo) -> int:
    """Sum of the coefficients on idempotent duals of a dual-algebra element."""
    total = 0
    dualm = win.maps.dual
    for idx, c in combo.items():
        if dualm.basis[idx].name.startswith("e") and dualm.basis[idx].j == 0:
            total = (total + c) % win.p
    return total


def symmetry_form(win: ClubWindow, i: int):
    """{(slotA, slotB): (matrix-as-dict, d1, d2)}: the forms of
    ``ClubWindow.symmetry_form`` evaluated pair by pair."""
    out = {}
    row_lo = [(a, b) for (a, b) in win.components if a + b == -i]
    row_hi = [(a, b) for (a, b) in win.components if a + b == i + 2]
    for (a1, b1) in sorted(row_lo):
        for (a2, b2) in sorted(row_hi):
            if (a1 + a2, b1 + b2) != (2, 0):
                continue
            c1 = win.components[(a1, b1)]
            c2 = win.components[(a2, b2)]
            m1d = module_of(win, c1).dim
            m2d = module_of(win, c2).dim
            mat = {}
            for u in range(m1d):
                for v in range(m2d):
                    tgt, prod = product(win, c1, u, c2, v)
                    val = socle_evaluation(win, prod) if tgt is not None else 0
                    if val:
                        mat[(u, v)] = val
            out[((a1, b1), (a2, b2))] = (mat, m1d, m2d)
    return out


def form_dict(form) -> dict[tuple[int, int], int]:
    """A form of ``ClubWindow.symmetry_form`` as {(u, v): value}."""
    u, v, _, c = (a.tolist() for a in form)
    return dict(zip(zip(u, v), c))


def product_table(win: ClubWindow) -> WindowTable:
    """The window's table with one ``product`` call per ordered pair, as
    ``cli._club_associativity`` built it before."""
    def pair_product(x, y):
        target, combo = product(win, *x, *y)  # a genuine zero has combo == {}
        if target is OUT_OF_WINDOW:
            return OUT_OF_WINDOW
        return {(target, m): c for m, c in combo.items()}

    return pair_table(basis(win), pair_product, win.p)
