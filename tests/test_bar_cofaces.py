"""``RadicalChains.cofaces`` against the faces of the longer chains, found by brute force."""
from collections import Counter

import pytest

from hh2.koszulhh import bar_oracle
from hh2.quiver import BasedAlgebra


def _faces_by_brute_force(alg, n):
    """For each chain of degree n, by its place: the heads, tails and collapses
    met by dropping the first term, dropping the last term and merging each
    adjacent pair through ``mul_basis`` in every chain of degree n + 1."""
    bar = alg.radical_chains()
    shorter = {ch: i for i, (ch, *_) in enumerate(bar.level(n))}
    heads = [Counter() for _ in shorter]
    collapses = [Counter() for _ in shorter]
    tails = [Counter() for _ in shorter]
    for t, (ch, lft, rgt, _, _) in enumerate(bar.level(n + 1)):
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
    bar = omega.radical_chains()
    for n in range(n_max + 1):
        heads, collapses, tails = _faces_by_brute_force(omega, n)
        table = bar.cofaces(n)
        assert len(table) == len(bar.level(n))
        for s, (hd, cl, tl) in enumerate(table):
            assert Counter(hd) == heads[s]
            assert Counter((t, c % prime) for t, c in cl) == collapses[s]
            assert Counter(tl) == tails[s]
        if n:
            assert any(cl for _, cl, _ in table)


def test_cofaces_are_built_once_per_algebra(maps3):
    omega = maps3.omega
    fresh = BasedAlgebra(3, omega.basis, omega.products, omega.idem)
    assert bar_oracle(fresh, maps3.reg, 3) == [3, 2, 2, 0]
    bar = fresh.radical_chains()
    tables = [bar.cofaces(n) for n in range(4)]
    assert bar_oracle(fresh, maps3.theta, 3) == [1, 1, 2, 0]
    assert fresh.radical_chains() is bar
    assert all(bar.cofaces(n) is tables[n] for n in range(4))
