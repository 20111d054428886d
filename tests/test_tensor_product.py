"""The sparse ``quiver.TensorProduct`` against the dense one it replaced.

The dense class below is the body that took the quotient by the relations
(m.w)(x)n - m(x)(w.n) with ``rref`` on dense rows, kept verbatim as the
reference.  Both must give the same free pairs, basis names, action tables
and projection of every slot-matched pair: the pivots of the sparse
elimination are the leading pairs of the relation span, which is the pivot
set of ``rref``.
"""

import numpy as np
import pytest

from hh2.exactlin import rref, zeros
from hh2.koszulhh import KIND_IDEAL, KIND_THETA, KIND_THETA_SIGMA
from hh2.quiver import (BasedBimodule, BasisElement, Combo, IncompatibleAlgebras,
                        TensorProduct, combo_add)


class DenseTensorProduct(BasedBimodule):
    """M (x)_Omega N computed as a quotient of the vertex-matched pair space."""

    def __init__(self, m_mod: BasedBimodule, n_mod: BasedBimodule):
        if m_mod.over is not n_mod.over:
            raise IncompatibleAlgebras("tensor factors live over different algebras")
        omega = m_mod.over
        p = omega.p
        self.p = p
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
        rel_rref, piv = rref(rel, p)
        self.relations = rel_rref[: len(piv)]
        self.rel_pivots = piv
        free = [c for c in range(len(pairs)) if c not in piv]
        self.pairs = pairs
        self.pair_index = pair_index
        self.free = free

        basis = []
        for c in free:
            i, j = pairs[c]
            bi, bj = m_mod.basis[i], n_mod.basis[j]
            basis.append(BasisElement(f"{bi.name}(x){bj.name}", bi.left, bj.right,
                                      bi.j + bj.j, bi.k + bj.k))
        left: dict[tuple[int, int], Combo] = {}
        right: dict[tuple[int, int], Combo] = {}
        for new, c in enumerate(free):
            i, j = pairs[c]
            for a in range(omega.dim):
                acted = m_mod.left.get((a, i), {})
                combo: Combo = {}
                for tgt, cc in acted.items():
                    combo_add(combo, self.project_pair(tgt, j), cc, p)
                if combo:
                    left[(a, new)] = combo
                acted = n_mod.right.get((j, a), {})
                combo = {}
                for tgt, cc in acted.items():
                    combo_add(combo, self.project_pair(i, tgt), cc, p)
                if combo:
                    right[(new, a)] = combo
        super().__init__(omega, basis, left, right, name=f"{m_mod.name}(x){n_mod.name}")

    def project_pair(self, i: int, j: int) -> Combo:
        """Image of the pure tensor basis[i] (x) basis[j] in the quotient basis."""
        pr = (i, j)
        if pr not in self.pair_index:
            return {}
        p = self.p
        col = self.pair_index[pr]
        vec = zeros(1, len(self.pairs))[0]
        vec[col] = 1
        for r, c in enumerate(self.rel_pivots):
            if vec[c]:
                vec = (vec - int(vec[c]) * self.relations[r]) % p
        out: Combo = {}
        for new, c in enumerate(self.free):
            if vec[c]:
                out[new] = int(vec[c])
        return out


def assert_same_tensor_product(x_mod, y_mod):
    sparse, dense = TensorProduct(x_mod, y_mod), DenseTensorProduct(x_mod, y_mod)
    assert sparse.pairs == dense.pairs
    assert sparse.free == dense.free
    assert sparse.basis == dense.basis  # names, slots and degrees
    assert sparse.left == dense.left and sparse.right == dense.right
    for i, j in sparse.pairs:
        assert sparse.project_pair(i, j) == dense.project_pair(i, j), (i, j)
    assert sparse.project_pair(x_mod.dim, 0) == {}


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
