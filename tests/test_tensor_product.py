"""The sparse ``tensor_basis`` against the dense quotient it replaced.

The dense class below is the body that took the quotient by the relations
(m.w)(x)n - m(x)(w.n) with ``rref`` on dense rows, kept as the reference up
to the free pairs.  Both must give the same slot-matched pairs and free
pairs: the pivots of the sparse elimination are the leading pairs of the
relation span, which is the pivot set of ``rref``.
"""

import numpy as np
import pytest

from hh2.exactlin import rref, zeros
from hh2.koszulhh import KIND_IDEAL, KIND_THETA, KIND_THETA_SIGMA
from hh2.quiver import BasedBimodule, IncompatibleAlgebras
from tensor_products import tensor_basis


class DenseTensorProduct:
    """M (x)_Omega N computed as a quotient of the vertex-matched pair space."""

    def __init__(self, m_mod: BasedBimodule, n_mod: BasedBimodule):
        if m_mod.over is not n_mod.over:
            raise IncompatibleAlgebras("tensor factors live over different algebras")
        omega = m_mod.over
        p = omega.p
        pairs = [(i, j) for i in range(m_mod.dim) for j in range(n_mod.dim)
                 if m_mod.basis[i].right == n_mod.basis[j].left]
        pair_index = {pr: n for n, pr in enumerate(pairs)}

        # relations (m.w)(x)n - m(x)(w.n) over all slot-matched triples (m, w, n)
        rel_rows = []
        for i in range(m_mod.dim):
            for a in range(omega.dim):
                if omega.basis[a].j == 0:
                    continue  # idempotent relations hold on the nose
                if m_mod.basis[i].right != omega.basis[a].left:
                    continue
                mi = m_mod.right.get((i, a), {})
                for j in range(n_mod.dim):
                    if omega.basis[a].right != n_mod.basis[j].left:
                        continue
                    nj = n_mod.left.get((a, j), {})
                    row = zeros(1, len(pairs))[0]
                    for tgt, c in mi.items():
                        pr = (tgt, j)
                        if pr in pair_index:
                            row[pair_index[pr]] = (row[pair_index[pr]] + c) % p
                    for tgt, c in nj.items():
                        pr = (i, tgt)
                        if pr in pair_index:
                            row[pair_index[pr]] = (row[pair_index[pr]] - c) % p
                    if row.any():
                        rel_rows.append(row)
        rel = np.array(rel_rows, dtype=np.int64) if rel_rows else zeros(0, len(pairs))
        _, piv = rref(rel, p)
        self.pairs = pairs
        self.free = [c for c in range(len(pairs)) if c not in piv]


def assert_same_tensor_product(x_mod, y_mod):
    dense = DenseTensorProduct(x_mod, y_mod)
    assert tensor_basis(x_mod, y_mod) == (dense.pairs, dense.free)


def test_every_module_pair_at_p3(maps3):
    for x_mod in maps3.modules.values():
        for y_mod in maps3.modules.values():
            assert_same_tensor_product(x_mod, y_mod)


# the omega and dual pairs at p = 5 take about half a second each in the
# dense reference, so only the preprojective-type and ideal pairs run here
@pytest.mark.parametrize("kinds", [(KIND_IDEAL, KIND_IDEAL), (KIND_THETA, KIND_IDEAL),
                                   (KIND_IDEAL, KIND_THETA), (KIND_THETA, KIND_THETA_SIGMA)],
                         ids="-".join)
def test_module_pairs_at_p5(maps5, kinds):
    x_kind, y_kind = kinds
    assert_same_tensor_product(maps5.modules[x_kind], maps5.modules[y_kind])
