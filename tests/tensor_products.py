"""Tensor products over Omega, which only the tests use.

``tensor_basis`` gives M (x)_Omega N as a quotient of the vertex-matched
pair space, and ``pairing_rank_on_tensor`` ranks the map that a pairing of
``NaturalMaps`` induces on X (x)_Omega Y.  No command or ``verify`` check
runs them, so they live with the tests.
"""

import numpy as np

from hh2.exactlin import coo_columns, coo_pivot_rows
from hh2.quiver import BasedBimodule, IncompatibleAlgebras


def tensor_basis(m_mod: BasedBimodule, n_mod: BasedBimodule
                 ) -> tuple[list[tuple[int, int]], list[int]]:
    """M (x)_Omega N as a quotient of the vertex-matched pair space.

    Returns (pairs, free): the slot-matched pairs (i, j), and the places in
    pairs of the quotient's basis.  The relations (m.w)(x)n - m(x)(w.n) are
    sparse combos over the pairs, ranked by ``coo_pivot_rows``; its pivot
    rows are the leading pairs of the relation span, and the other pairs, in
    order, are free.
    """
    if m_mod.over is not n_mod.over:
        raise IncompatibleAlgebras("tensor factors live over different algebras")
    omega = m_mod.over
    pairs = [(i, j) for i in range(m_mod.dim) for j in range(n_mod.dim)
             if m_mod.basis[i].right == n_mod.basis[j].left]
    pair_index = {pr: n for n, pr in enumerate(pairs)}

    # relations (m.w)(x)n - m(x)(w.n) over the slot-matched triples (m, w, n)
    relations: list[dict] = []
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
                if not mi and not nj:
                    continue  # an empty relation adds nothing to the span
                rel: dict = {}
                terms = [((tgt, j), c) for tgt, c in mi.items()]
                terms += [((i, tgt), -c) for tgt, c in nj.items()]
                for pr, c in terms:
                    if pr in pair_index:
                        rel[pair_index[pr]] = rel.get(pair_index[pr], 0) + c
                relations.append(rel)
    pivots = set(coo_pivot_rows(*coo_columns(relations, omega.p), omega.p).tolist())
    return pairs, [c for c in range(len(pairs)) if c not in pivots]


def pairing_rank_on_tensor(nm, name: str) -> tuple[int, int]:
    """Rank of the induced map (X (x)_Omega Y) -> Z for a pairing of nm."""
    pr = nm.pairings[name]
    pairs, free = tensor_basis(pr.x_mod, pr.y_mod)
    (x, y, t, c), n_y = pr.table, pr.y_mod.dim
    keys = np.array([pairs[f][0] * n_y + pairs[f][1] for f in free], dtype=np.int64)
    hit = np.isin(x * n_y + y, keys)  # the terms at free pairs, a COO matrix by pair
    return len(coo_pivot_rows(np.searchsorted(keys, (x * n_y + y)[hit]), t[hit], c[hit],
                              nm.p)), len(free)
