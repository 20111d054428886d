"""The grid algebra's product one pair of basis elements at a time: the
reference that ``SpadeAlgebra.product_table`` and ``SpadeAlgebra.product``
are compared with.  No command runs it, so it lives with the tests.  It is
``SpadeAlgebra.product`` from before the window's table became its one
product rule, with the window passed as ``alg`` and the target slot read
from ``component_at``.
"""

from __future__ import annotations

from tables import pair_table
from hh2.clubsuit import OUT_OF_WINDOW, component_at
from hh2.quiver import WindowTable
from hh2.spadesuit import SpadeAlgebra, SpadeElement, name_product


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
