"""The plain bar oracle of ``bar_reference`` hands the elimination the
columns of a list-based reference.

``ListChains``, ``pieces`` and ``d_columns`` are the list-of-tuples chains,
cofaces and column builders that the array code replaced, kept verbatim as
the reference.  Each call of ``coo_pivot_rows`` is recorded with the degree
it ranks, read from the oracle's frame: ``n``, the block's whole d_n
``d[n]`` and the pivot rows ``skip`` of the block's d_{n-1}.  The pieces come
in the order of the oracle's DEBUG lines.
"""
import inspect
import logging
import re

import pytest

from hh2.exactlin import coo_pivot_rows

import bar_reference
from bar_reference import bar_oracle


class ListChains:
    """The chains as lists of (chain, left, right, j, k), degree 0 using the
    vertex chain (v,), and the cofaces as (heads, collapses, tails) lists."""

    def __init__(self, alg):
        self.basis = alg.basis
        self.rad = [i for i, b in enumerate(alg.basis) if b.j != 0 or b.k != 0]
        self.by_left: dict[int, list[int]] = {}
        self.by_right: dict[int, list[int]] = {}
        for r in self.rad:
            self.by_left.setdefault(alg.basis[r].left, []).append(r)
            self.by_right.setdefault(alg.basis[r].right, []).append(r)
        rad_set = set(self.rad)
        self.split: dict[int, list[tuple[int, int, int]]] = {}
        for a in self.rad:
            for b in self.by_left.get(alg.basis[a].right, ()):
                for mid, cm in alg.mul_basis(a, b).items():
                    if mid in rad_set:
                        self.split.setdefault(mid, []).append((a, b, cm))
        self._levels: list[list[tuple]] = [[((v,), v, v, 0, 0) for v in alg.vertices]]
        self._cofaces: list[list[tuple[list, list, list]]] = []

    def level(self, n: int) -> list[tuple]:
        basis = self.basis
        while len(self._levels) <= n:
            m = len(self._levels)
            cur = []
            if m == 1:
                for r in self.rad:
                    b = basis[r]
                    cur.append(((r,), b.left, b.right, b.j, b.k))
            else:
                for ch, lft, rgt, j, k in self._levels[m - 1]:
                    for r in self.by_left.get(rgt, ()):
                        b = basis[r]
                        cur.append((ch + (r,), lft, b.right, j + b.j, k + b.k))
            self._levels.append(cur)
        return self._levels[n]

    def cofaces(self, n: int) -> list[tuple[list, list, list]]:
        while len(self._cofaces) <= n:
            m = len(self._cofaces)
            place = {ch: i for i, (ch, *_) in enumerate(self.level(m + 1))}
            table = []
            for ch, lft, rgt, _, _ in self.level(m):
                body = () if m == 0 else ch
                table.append((
                    [(r0, place[(r0,) + body]) for r0 in self.by_right.get(lft, ())],
                    [(place[ch[:i] + (a, b) + ch[i + 1:]], (-1) ** (i + 1) * cm)
                     for i in range(m) for a, b, cm in self.split.get(ch[i], ())],
                    [(r, place[body + (r,)]) for r in self.by_left.get(rgt, ())]))
            self._cofaces.append(table)
        return self._cofaces[n]


def reference(alg, x_mod, n_max):
    """The pieces and columns of d_n, n = 0..n_max, as the list-based oracle
    built them: pieces[n] {bucket: [cochain id]}, d[n] {cochain id: column}."""
    p = alg.p
    bar = ListChains(alg)
    x_by_slot: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for xi, xb in enumerate(x_mod.basis):
        x_by_slot.setdefault((xb.left, xb.right), []).append((xi, xb.j, xb.k))
    width = x_mod.dim

    def pieces(n: int) -> dict[tuple[int, int], list[int]]:
        """The cochains of degree n, each with the id (place of its chain in
        level n) * dim X + (x index), bucketed by (j(x) - j(chain), k(x) - k(chain))."""
        out: dict[tuple[int, int], list[int]] = {}
        for pos, (_, lft, rgt, dj, dk) in enumerate(bar.level(n)):
            for xi, xj, xk in x_by_slot.get((lft, rgt), ()):
                out.setdefault((xj - dj, xk - dk), []).append(pos * width + xi)
        return out

    def d_columns(n: int) -> dict[int, dict]:
        """The columns of d_n by cochain id, rows by cochain id of degree n + 1:
        d(phi)(r0..rn) = r0 . phi(r1..rn) + sum_i (-1)^{i+1} phi(.. r_i r_{i+1} ..)
                         + (-1)^{n+1} phi(r0..r_{n-1}) . rn."""
        sgn_last = -1 if (n + 1) % 2 else 1
        cols: dict[int, dict] = {}
        for pos, ((_, lft, rgt, _, _), (heads, collapses, tails)) in enumerate(
                zip(bar.level(n), bar.cofaces(n))):
            for xi, _, _ in x_by_slot.get((lft, rgt), ()):
                acc: dict[int, int] = {}
                for r0, t in heads:
                    for tx, cx in x_mod.left.get((r0, xi), {}).items():
                        acc[t * width + tx] = acc.get(t * width + tx, 0) + cx
                for t, cm in collapses:
                    acc[t * width + xi] = acc.get(t * width + xi, 0) + cm
                for rn, t in tails:
                    for tx, cx in x_mod.right.get((xi, rn), {}).items():
                        acc[t * width + tx] = acc.get(t * width + tx, 0) + sgn_last * cx
                cols[pos * width + xi] = {row: v for row, c in acc.items() if (v := c % p)}
        return cols

    return [pieces(n) for n in range(n_max + 1)], [d_columns(n) for n in range(n_max + 1)]


def _columns(col, row, val) -> dict[int, dict]:
    """{column: {row: value}} of COO arrays."""
    out: dict[int, dict] = {}
    for c, r, v in zip(col.tolist(), row.tolist(), val.tolist()):
        out.setdefault(c, {})[r] = v
    return out


def _handed_over(alg, x_mod, n_max, monkeypatch, caplog):
    """The nonzero columns {id: column} of each d_n, read off the blocks'
    d_n, and the (n, bucket) of the logged pieces in order; asserts that each
    elimination gets the columns of its block's d_n off the pivot rows of its
    d_{n-1}, sorted by column and then row, and that no two blocks share a
    column."""
    seen = [{} for _ in range(n_max + 1)]

    def recording(col, row, val, p):
        caller = inspect.currentframe().f_back.f_locals
        n, skip = caller["n"], set(caller["skip"].tolist())
        full = _columns(*caller["d"][n])
        assert _columns(col, row, val) == {c: v for c, v in full.items() if c not in skip}
        packed = col * (int(row.max(initial=0)) + 1) + row
        assert (packed[1:] > packed[:-1]).all()
        assert not seen[n].keys() & full.keys()
        seen[n].update(full)
        return coo_pivot_rows(col, row, val, p)

    monkeypatch.setattr(bar_reference, "coo_pivot_rows", recording)
    with caplog.at_level(logging.DEBUG, logger="bar_reference"):
        bar_oracle(alg, x_mod, n_max)
    pieces = [re.match(r"bar piece n=(\d+) bucket=\((-?\d+), (-?\d+)\)", rec.getMessage())
              for rec in caplog.records if rec.name == "bar_reference"]
    return seen, [(int(n), (int(j), int(k))) for n, j, k in (m.groups() for m in pieces)]


def _assert_reference_columns(alg, x_mod, n_max, monkeypatch, caplog):
    ref_pieces, ref_d = reference(alg, x_mod, n_max)
    seen, logged = _handed_over(alg, x_mod, n_max, monkeypatch, caplog)
    assert logged == [(n, key) for n in range(n_max + 1) for key in ref_pieces[n]]
    for n in range(n_max + 1):
        assert seen[n] == {i: column for i, column in ref_d[n].items() if column}


@pytest.mark.parametrize("kind", ["omega", "theta", "theta-sigma",
                                  "omega-dual", "omega-ep-omega"])
def test_oracle_columns_are_the_reference_columns_p3(kind, maps3, monkeypatch, caplog):
    _assert_reference_columns(maps3.omega, maps3.modules[kind], 4, monkeypatch, caplog)


@pytest.mark.parametrize("kind", ["theta", "omega-ep-omega"])
def test_oracle_columns_are_the_reference_columns_p5(kind, maps5, monkeypatch, caplog):
    _assert_reference_columns(maps5.omega, maps5.modules[kind], 3, monkeypatch, caplog)
