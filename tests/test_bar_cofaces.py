"""``RadicalChains.cofaces`` against the faces of the longer chains, found by brute force."""
from collections import Counter

import pytest

from hh2.quiver import BasedAlgebra

from bar_reference import bar_oracle, radical_chains


def _chains(bar, n):
    """The chains of degree n as tuples, by place; degree 0 as the vertex chain (v,)."""
    level = bar.level(n)
    if n == 0:
        return [(v,) for v in level.lft.tolist()]
    return [tuple(ch) for ch in level.chain.tolist()]


def _faces_by_brute_force(alg, n):
    """For each chain of degree n, by its place: the heads, tails and collapses
    met by dropping the first term, dropping the last term and merging each
    adjacent pair through ``mul_basis`` in every chain of degree n + 1."""
    bar = radical_chains(alg)
    shorter = {ch: i for i, ch in enumerate(_chains(bar, n))}
    heads = [Counter() for _ in shorter]
    collapses = [Counter() for _ in shorter]
    tails = [Counter() for _ in shorter]
    for t, ch in enumerate(_chains(bar, n + 1)):
        # degree 0 stands for the empty chain by its vertex
        heads[shorter[ch[1:] if n else (alg.basis[ch[0]].right,)]][(ch[0], t)] += 1
        tails[shorter[ch[:-1] if n else (alg.basis[ch[-1]].left,)]][(ch[-1], t)] += 1
        for i in range(n):
            for m, cm in alg.mul_basis(ch[i], ch[i + 1]).items():
                s = shorter[ch[:i] + (m,) + ch[i + 2:]]
                collapses[s][(t, (-1) ** (i + 1) * cm % alg.p)] += 1
    return heads, collapses, tails


@pytest.mark.parametrize("prime,n_max", [(3, 3), (5, 2)])
def test_cofaces_are_the_faces_of_the_longer_chains(prime, n_max, maps3, maps5):
    omega = {3: maps3, 5: maps5}[prime].omega
    bar = radical_chains(omega)
    for n in range(n_max + 1):
        heads, collapses, tails = _faces_by_brute_force(omega, n)
        table = bar.cofaces(n)
        hd, cl, tl = ([Counter() for _ in range(len(bar.level(n).lft))] for _ in range(3))
        for s, r, t in zip(*(a.tolist() for a in table.heads)):
            hd[s][(r, t)] += 1
        for s, t, c in zip(*(a.tolist() for a in table.collapses)):
            cl[s][(t, c % prime)] += 1
        for s, r, t in zip(*(a.tolist() for a in table.tails)):
            tl[s][(r, t)] += 1
        assert hd == heads
        assert cl == collapses
        assert tl == tails
        if n:
            assert len(table.collapses[0])


def test_cofaces_are_built_once_per_algebra(maps3):
    omega = maps3.omega
    fresh = BasedAlgebra(3, omega.basis, omega.products, omega.idem)
    assert bar_oracle(fresh, maps3.reg, 3) == [3, 2, 2, 0]
    bar = radical_chains(fresh)
    tables = [bar.cofaces(n) for n in range(4)]
    assert bar_oracle(fresh, maps3.theta, 3) == [1, 1, 2, 0]
    assert radical_chains(fresh) is bar
    assert all(bar.cofaces(n) is tables[n] for n in range(4))
