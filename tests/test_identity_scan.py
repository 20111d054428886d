"""The structure identities behind ``verify`` and the tests: one sparse scan.

``quiver.failing_triple`` is one sort-join over the nonempty products of
four tables, on the int64 arrays and join helpers of ``exactlin`` that the
bar oracle uses too.  Associativity, the bimodule axioms, intertwining maps
and balanced equivariant pairings all call it.  Here each caller is
compared with the loop over every tuple that it replaced, and the scan
itself with the dict walker that it replaced, and its ``half_join``, which
reads the join indexes that each table keeps, with the sort-join that it
replaced; all are kept in this file as references, and run on small random
structures that are mostly broken on purpose.
"""

import random
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hh2 import exactlin, koszulhh, quiver
from hh2.clubsuit import NaturalMaps
from hh2.koszulhh import Pairing
from hh2.exactlin import half_join, join_index
from hh2.quiver import (BasedAlgebra, BasedBimodule, BasisElement, BimoduleMap, build_omega,
                        combo_add, failing_triple, table_of, window_associativity)
from hh2.spadesuit import build_spade
from tables import as_dict, column_map, columned

# -- a bimodule acting on combos: the references below read only these -------


def act_left(mod, a: dict, m: dict) -> dict:
    out: dict = {}
    for i, ca in a.items():
        for mm, cm in m.items():
            prod = mod.left.get((i, mm))
            if prod:
                combo_add(out, prod, ca * cm, mod.p)
    return out


def act_right(mod, m: dict, a: dict) -> dict:
    out: dict = {}
    for mm, cm in m.items():
        for i, ca in a.items():
            prod = mod.right.get((mm, i))
            if prod:
                combo_add(out, prod, cm * ca, mod.p)
    return out


# -- the loops over every tuple, as they stood before the sparse scan --------
# (verbatim method bodies, so each takes the checked object as ``self``; a map
# comes as ``columned`` reads it, with the columns it was stored as then)


def dense_check_associativity(self) -> None:
    n = self.dim
    for i in range(n):
        for j in range(n):
            ij = self.mul_basis(i, j)
            for k in range(n):
                left = self.mul({idx: c for idx, c in ij.items()}, {k: 1})
                jk = self.mul_basis(j, k)
                right = self.mul({i: 1}, jk)
                if left != right:
                    raise AssertionError(
                        f"associativity fails at {self.basis[i].name},"
                        f" {self.basis[j].name}, {self.basis[k].name}")


def dense_check_bimodule(self) -> None:
    alg = self.over
    for v, iv in alg.idem.items():
        for m, bm in enumerate(self.basis):
            el = self.left.get((iv, m), {})
            er = self.right.get((m, iv), {})
            if el != ({m: 1} if bm.left == v else {}):
                raise AssertionError(f"e_{v} . {bm.name} wrong in {self.name}")
            if er != ({m: 1} if bm.right == v else {}):
                raise AssertionError(f"{bm.name} . e_{v} wrong in {self.name}")
    n = alg.dim
    for i in range(n):
        for j in range(n):
            ab = alg.mul_basis(i, j)
            for m in range(self.dim):
                lhs = act_left(self, {i: 1}, self.left.get((j, m), {}))
                rhs = act_left(self, ab, {m: 1})
                if lhs != rhs:
                    raise AssertionError(f"(ab)m != a(bm) in {self.name}")
                lhs = act_right(self, self.right.get((m, i), {}), {j: 1})
                rhs = act_right(self, {m: 1}, ab)
                if lhs != rhs:
                    raise AssertionError(f"m(ab) != (ma)b in {self.name}")
                mid = act_right(self, self.left.get((i, m), {}), {j: 1})
                mid2 = act_left(self, {i: 1}, self.right.get((m, j), {}))
                if mid != mid2:
                    raise AssertionError(f"(am)b != a(mb) in {self.name}")


def dense_check_intertwines(self) -> None:
    alg = self.source.over
    for a in range(alg.dim):
        for m in range(self.source.dim):
            lhs = self.apply(self.source.left.get((a, m), {}))
            rhs = act_left(self.target, {a: 1}, self.columns[m])
            if lhs != rhs:
                raise AssertionError(f"{self.name}: left action not intertwined")
            lhs = self.apply(self.source.right.get((m, a), {}))
            rhs = act_right(self.target, self.columns[m], {a: 1})
            if lhs != rhs:
                raise AssertionError(f"{self.name}: right action not intertwined")


def dense_pairing_check(self) -> None:
    """Balancedness and one-sided equivariance over the full algebra basis."""
    omega = self.x_mod.over
    p = self.p

    def value(x, y):
        return self.table.get((x, y), {})

    for x in range(self.x_mod.dim):
        for a in range(omega.dim):
            xa = self.x_mod.right.get((x, a), {})
            for y in range(self.y_mod.dim):
                ay = self.y_mod.left.get((a, y), {})
                lhs: dict = {}
                for t, c in xa.items():
                    combo_add(lhs, value(t, y), c, p)
                rhs: dict = {}
                for t, c in ay.items():
                    combo_add(rhs, value(x, t), c, p)
                if lhs != rhs:
                    raise AssertionError(f"{self.name}: not balanced")
    for a in range(omega.dim):
        for x in range(self.x_mod.dim):
            ax = self.x_mod.left.get((a, x), {})
            for y in range(self.y_mod.dim):
                lhs = act_left(self.z_mod, {a: 1}, value(x, y))
                rhs: dict = {}
                for t, c in ax.items():
                    combo_add(rhs, value(t, y), c, p)
                if lhs != rhs:
                    raise AssertionError(f"{self.name}: not left equivariant")
    for y in range(self.y_mod.dim):
        for a in range(omega.dim):
            ya = self.y_mod.right.get((y, a), {})
            for x in range(self.x_mod.dim):
                lhs = act_right(self.z_mod, value(x, y), {a: 1})
                rhs = {}
                for t, c in ya.items():
                    combo_add(rhs, value(x, t), c, p)
                if lhs != rhs:
                    raise AssertionError(f"{self.name}: not right equivariant")


# -- the dict walker, as it stood before the sort-join --------------------------
# (its body verbatim; the four groupings are made per call, in place of the
# ``GroupedViews`` cache that shared them between scans)


def _grouped(table, by: int) -> dict:
    """{key[by]: [(other index of key, combo)]} over the nonempty entries."""
    out: dict = {}
    for key, combo in table.items():
        if combo:
            out.setdefault(key[by], []).append((key[1 - by], combo))
    return out


def walked_failing_triple(a, b, c, d, p):
    a_by_g, b_by_t = _grouped(a, 1), _grouped(b, 0)
    c_by_g, d_by_t = _grouped(c, 0), _grouped(d, 1)
    for g in sorted(a_by_g.keys() | c_by_g.keys()):
        acc: dict[tuple[int, int, int], int] = {}  # (u, w, basis index) -> left - right
        get = acc.get
        for u, combo in a_by_g.get(g, ()):
            for t, coeff in combo.items():
                for w, prod in b_by_t.get(t, ()):
                    for idx, c2 in prod.items():
                        key = (u, w, idx)
                        acc[key] = get(key, 0) + coeff * c2
        for w, combo in c_by_g.get(g, ()):
            for t, coeff in combo.items():
                for u, prod in d_by_t.get(t, ()):
                    for idx, c2 in prod.items():
                        key = (u, w, idx)
                        acc[key] = get(key, 0) - coeff * c2
        if any(v % p for v in acc.values()):
            u, w, _ = min(key for key, v in acc.items() if v % p)
            return u, g, w
    return None


def outcome(check, obj) -> str | None:
    """The AssertionError message of check(obj), or None if it passes."""
    try:
        check(obj)
    except AssertionError as exc:
        return str(exc)
    return None


# -- small structures ----------------------------------------------------------
# One or two vertices; the basis of an algebra starts with its idempotents
# e1, e2, then its radical elements r0, r1, ...  Half of the structures are
# real ones (truncated polynomial rings, their regular bimodules, maps and
# multiplication) with a few entries overwritten; the others are random.
# An entry is empty or has 1-3 terms with coefficients in [-p, 2p).  The
# tables are made as dicts of combos, overwritten there, and then stored as
# ``Table``s, which reduce the coefficients mod p.


def algebra(p, n_vertices, radical, products, corrupt=lambda table: None):
    """Idempotents e_v and radical elements with the given (left, right)
    slots; idempotents multiply as they should, ``products`` adds the rest,
    and ``corrupt`` may overwrite the dict before it is stored."""
    basis = [BasisElement(f"e{v}", v, v, 0, 0) for v in range(1, n_vertices + 1)]
    basis += [BasisElement(f"r{i}", lt, rt, 1, 0) for i, (lt, rt) in enumerate(radical)]
    table = {}
    for i, bi in enumerate(basis):
        table[(bi.left - 1, i)] = {i: 1}
        table[(i, bi.right - 1)] = {i: 1}
    table.update(products)
    corrupt(table)
    return BasedAlgebra(p, basis, table_of(table, p), {v: v - 1 for v in range(1, n_vertices + 1)},
                        "A")


def truncated(p, n, corrupt=lambda table: None):
    """F_p[x]/(x^n): basis element i is x^i."""
    return algebra(p, 1, [(1, 1)] * (n - 1),
                   {(i, j): {i + j: 1} for i in range(1, n) for j in range(1, n - i)}, corrupt)


def bimodule(alg, slots, left, right, name="M", corrupt=lambda left, right: None):
    """Elements m0, m1, ... with the given slots; idempotents act as they
    should, ``left`` and ``right`` add the rest, and ``corrupt`` may
    overwrite the two dicts before they are stored."""
    basis = [BasisElement(f"m{i}", lt, rt, 0, 0) for i, (lt, rt) in enumerate(slots)]
    lt_, rt_ = {}, {}
    for m, bm in enumerate(basis):
        lt_[(alg.idem[bm.left], m)] = {m: 1}
        rt_[(m, alg.idem[bm.right])] = {m: 1}
    lt_.update(left)
    rt_.update(right)
    corrupt(lt_, rt_)
    return BasedBimodule(alg, basis, table_of(lt_, alg.p), table_of(rt_, alg.p), name=name)


def regular(alg, name="A", corrupt=lambda left, right: None):
    """The algebra as a bimodule over itself; ``corrupt`` may overwrite
    either action's dict before it is stored."""
    left, right = as_dict(alg.products), as_dict(alg.products)
    corrupt(left, right)
    return BasedBimodule(alg, list(alg.basis), table_of(left, alg.p), table_of(right, alg.p),
                         name=name)


class Draw:
    """Random structures from one seeded source, which keeps generation fast."""

    def __init__(self, rnd, p):
        self.rnd, self.p = rnd, p

    def combo(self, n):
        """1-3 terms with coefficients in [-p, 2p), or empty if n == 0."""
        rnd = self.rnd
        return {rnd.randrange(n): rnd.randrange(-self.p, 2 * self.p)
                for _ in range(rnd.randint(1, 3) if n else 0)}

    def real(self) -> bool:
        return self.rnd.random() < 0.5

    def overwrite(self, table, rows, cols, n):
        """Overwrite 0-2 entries of the table (none in a sixth of the draws)
        with an empty or a random entry."""
        rnd = self.rnd
        for _ in range(0 if rnd.random() < 1 / 6 else rnd.randint(1, 2)):
            key = (rnd.randrange(rows), rnd.randrange(cols))
            table[key] = rnd.choice(({}, self.combo(n), self.combo(n)))

    def random_table(self, rows, cols, n, skip=lambda i, j: False):
        """Entries in about a third of the places, none where skip holds."""
        return {(i, j): self.combo(n) for i in range(rows) for j in range(cols)
                if not skip(i, j) and self.rnd.random() < 0.35}

    def algebra(self):
        rnd = self.rnd
        if self.real():
            n = rnd.randint(1, 6)
            return truncated(self.p, n, lambda table: self.overwrite(table, n, n, n))
        nv = rnd.randint(1, 2)
        radical = [(rnd.randint(1, nv), rnd.randint(1, nv))
                   for _ in range(rnd.randint(1, 6 - nv))]
        n = nv + len(radical)
        products = self.random_table(n, n, n, lambda i, j: i < nv or j < nv)
        return algebra(self.p, nv, radical, products)

    def bimodule(self, alg, name="M"):
        rnd = self.rnd
        nv = len(alg.idem)
        slots = [(rnd.randint(1, nv), rnd.randint(1, nv)) for _ in range(rnd.randint(1, 6))]
        n = len(slots)
        def corrupt(left, right):
            if rnd.random() < 0.25:  # break the idempotent actions
                if rnd.random() < 0.5:
                    self.overwrite(left, nv, n, n)
                else:
                    self.overwrite(right, n, nv, n)

        return bimodule(alg, slots, self.random_table(alg.dim, n, n, lambda a, m: a < nv),
                        self.random_table(n, alg.dim, n, lambda m, a: a < nv), name, corrupt)


@st.composite
def draws(draw):
    return Draw(random.Random(draw(st.integers(0, 2 ** 32))), draw(st.sampled_from([3, 5, 7])))


@st.composite
def algebras(draw):
    return draw(draws()).algebra()


@st.composite
def bimodules(draw):
    """A truncated polynomial ring as a bimodule over itself, with 0-2
    entries of one action overwritten, or a random module."""
    d = draw(draws())
    if d.real():
        alg = truncated(d.p, d.rnd.randint(1, 6))
        return regular(alg, corrupt=lambda left, right: d.overwrite(
            d.rnd.choice((left, right)), alg.dim, alg.dim, alg.dim))
    return d.bimodule(d.algebra())


@st.composite
def maps(draw):
    """Right multiplication by a power of x on a truncated polynomial ring,
    which commutes with both actions, or a random map; then each column is
    overwritten with probability 1 / (dim + 1)."""
    d = draw(draws())
    rnd = d.rnd
    if d.real():
        alg = truncated(d.p, rnd.randint(1, 6))
        source = target = regular(alg)
        power = rnd.randrange(alg.dim)
        columns = [dict(alg.products.get((m, power), {})) for m in range(alg.dim)]
    else:
        alg = d.algebra()
        source, target = d.bimodule(alg, "M"), d.bimodule(alg, "N")
        columns = [d.combo(target.dim) if rnd.random() < 0.5 else {} for _ in range(source.dim)]
    for m in range(source.dim):
        if rnd.random() < 1 / (source.dim + 1):
            columns[m] = d.combo(target.dim)
    return column_map(source, target, columns, name="f")


@st.composite
def pairings(draw):
    """Multiplication on a truncated polynomial ring, with 0-2 entries of its
    table or of the target's left or right action overwritten, or a random
    table on random modules."""
    d = draw(draws())
    rnd = d.rnd
    if d.real():
        alg = truncated(d.p, rnd.randint(1, 6))
        table, z_left, z_right = as_dict(alg.products), as_dict(alg.products), as_dict(alg.products)
        d.overwrite(rnd.choice((table, z_left, z_right)), alg.dim, alg.dim, alg.dim)
        reg = regular(alg)
        z = BasedBimodule(alg, list(alg.basis), table_of(z_left, d.p), table_of(z_right, d.p),
                          name="Z")
        return Pairing(reg, reg, z, table_of(table, d.p), name="mult")
    alg = d.algebra()
    x, y, z = d.bimodule(alg, "X"), d.bimodule(alg, "Y"), d.bimodule(alg, "Z")
    return Pairing(x, y, z, table_of(d.random_table(x.dim, y.dim, z.dim), d.p), name="T")


# -- the identities, one tuple at a time ---------------------------------------


BIMODULE_LAWS = {
    "(ab)m != a(bm)": lambda mod, i, j, m: (
        act_left(mod, {i: 1}, mod.left.get((j, m), {})),
        act_left(mod, mod.over.mul_basis(i, j), {m: 1})),
    "m(ab) != (ma)b": lambda mod, i, j, m: (
        act_right(mod, mod.right.get((m, i), {}), {j: 1}),
        act_right(mod, {m: 1}, mod.over.mul_basis(i, j))),
    "(am)b != a(mb)": lambda mod, i, j, m: (
        act_right(mod, mod.left.get((i, m), {}), {j: 1}),
        act_left(mod, {i: 1}, mod.right.get((m, j), {}))),
}


def bimodule_law_fails(mod, law) -> bool:
    n = mod.over.dim
    return any(lhs != rhs for i in range(n) for j in range(n) for m in range(mod.dim)
               for lhs, rhs in [BIMODULE_LAWS[law](mod, i, j, m)])


def idempotent_pair_wrong(mod, v, m, side) -> bool:
    iv, bm = mod.over.idem[v], mod.basis[m]
    if side == "left":
        return mod.left.get((iv, m), {}) != ({m: 1} if bm.left == v else {})
    return mod.right.get((m, iv), {}) != ({m: 1} if bm.right == v else {})


def intertwining_fails(mp, side) -> bool:
    src, tgt = mp.source, mp.target
    for a in range(src.over.dim):
        for m in range(src.dim):
            if side == "left":
                fails = mp.apply(src.left.get((a, m), {})) != act_left(tgt, {a: 1}, mp.columns[m])
            else:
                fails = mp.apply(src.right.get((m, a), {})) != act_right(tgt, mp.columns[m], {a: 1})
            if fails:
                return True
    return False


# -- hand-made cases: one passing structure and one failure per identity -------
# Over one vertex at p = 5 unless stated.

A_ZERO = algebra(5, 1, [(1, 1)], {})                             # e1, r0 with r0 r0 = 0
A_TWO = algebra(5, 1, [(1, 1), (1, 1)], {})                      # r0, r1, all products 0
A_BAD = algebra(5, 1, [(1, 1), (1, 1)], {(1, 1): {2: 1}, (2, 1): {1: 1}})  # (r0r0)r0 != r0(r0r0)
# two vertices at p = 3: r0 r1 = e1 but r1 r0 = 0, so (r0 r1) r0 != r0 (r1 r0)
A_TWO_VERTICES = algebra(3, 2, [(1, 2), (2, 1)], {(1, 2): {0: 1}})
M_LEFT = bimodule(A_ZERO, [(1, 1)] * 2, {(1, 0): {1: 1}, (1, 1): {0: 1}}, {})   # (ab)m
M_RIGHT = bimodule(A_ZERO, [(1, 1)] * 2, {}, {(0, 1): {1: 1}, (1, 1): {0: 1}})  # m(ab)
M_MIXED = bimodule(A_TWO, [(1, 1)] * 3, {(1, 0): {1: 1}}, {(1, 2): {2: 1}})      # (am)b
M_IDEM = bimodule(A_ZERO, [(1, 1)], {(0, 0): {0: 2}}, {})                        # e1 m0 = 2 m0
# e2 m0 = 3 m0 and m0 e2 = 3 m0 at p = 3: zero mod p, which the table
# stores as zero, so every check holds; with 4 m0 = m0 they fail
M_IDEM_L = bimodule(A_TWO_VERTICES, [(1, 1)], {(1, 0): {0: 3}}, {})
M_IDEM_R = bimodule(A_TWO_VERTICES, [(1, 1)], {}, {(0, 1): {0: 3}})
M_IDEM_L4 = bimodule(A_TWO_VERTICES, [(1, 1)], {(1, 0): {0: 4}}, {})
M_IDEM_R4 = bimodule(A_TWO_VERTICES, [(1, 1)], {}, {(0, 1): {0: 4}})
M_ACT = bimodule(A_ZERO, [(1, 1)] * 2, {(1, 0): {1: 1}}, {(0, 1): {1: 1}})      # a bimodule
A_REG = regular(A_ZERO)


@example(A_ZERO)
@example(A_TWO_VERTICES)
@example(A_BAD)
@settings(max_examples=100, deadline=None)
@given(algebras())
def test_associativity_matches_dense_loop(alg):
    got = outcome(BasedAlgebra.check_associativity, alg)
    want = outcome(dense_check_associativity, alg)
    assert (got is None) == (want is None), (got, want)
    if got is not None:
        match = re.fullmatch(r"associativity fails at (\w+), (\w+), (\w+)", got)
        i, j, k = (alg.index[name] for name in match.groups())
        assert alg.mul(alg.mul_basis(i, j), {k: 1}) != alg.mul({i: 1}, alg.mul_basis(j, k))


@example(M_ACT)
@example(A_REG)
@example(M_LEFT)
@example(M_RIGHT)
@example(M_MIXED)
@example(M_IDEM)
@example(M_IDEM_L)
@example(M_IDEM_R)
@example(M_IDEM_L4)
@example(M_IDEM_R4)
@settings(max_examples=100, deadline=None)
@given(bimodules())
def test_bimodule_axioms_match_dense_loop(mod):
    got = outcome(BasedBimodule.check_bimodule, mod)
    want = outcome(dense_check_bimodule, mod)
    assert (got is None) == (want is None), (got, want)
    if got is None:
        return
    law = got.removesuffix(f" in {mod.name}")
    if law in BIMODULE_LAWS:
        assert bimodule_law_fails(mod, law)
        return
    left = re.fullmatch(r"e_(\d+) \. (\w+) wrong", law)
    right = re.fullmatch(r"(\w+) \. e_(\d+) wrong", law)
    assert left or right, got
    if left:
        assert idempotent_pair_wrong(mod, int(left[1]), mod.index[left[2]], "left")
    else:
        assert idempotent_pair_wrong(mod, int(right[2]), mod.index[right[1]], "right")


def identity_map(mod, scale=1, name="f"):
    return column_map(mod, mod, [{m: scale} for m in range(mod.dim)], name=name)


@example(identity_map(M_ACT, 3))
@example(column_map(M_LEFT, M_LEFT, [{0: 1}, {1: 3}], name="f"))  # f(r0 m0) != r0 f(m0)
@example(column_map(M_RIGHT, M_RIGHT, [{0: 1}, {1: 3}], name="f"))  # f(m0 r0) != f(m0) r0
@example(column_map(M_ACT, M_ACT, [{0: 2}, {1: 1}], name="f"))  # both sides fail
@settings(max_examples=100, deadline=None)
@given(maps())
def test_intertwining_matches_dense_loop(mp):
    got = outcome(BimoduleMap.check_intertwines, mp)
    want = outcome(dense_check_intertwines, columned(mp))
    assert (got is None) == (want is None), (got, want)
    if got is not None:
        side = re.fullmatch(r"f: (left|right) action not intertwined", got)[1]
        assert intertwining_fails(columned(mp), side)


def drop(table, key):
    return {k: v for k, v in table.items() if k != key}


@example(Pairing(A_REG, A_REG, A_REG, A_ZERO.products, name="mult"))
@example(Pairing(A_REG, A_REG, A_REG, table_of(drop(as_dict(A_ZERO.products), (1, 0)), 5),
                 name="T"))  # balanced
@example(Pairing(A_REG, A_REG, bimodule(A_ZERO, [(1, 1)] * 2, {}, as_dict(A_ZERO.products)),
                 A_ZERO.products, name="T"))  # left equivariance
@example(Pairing(A_REG, A_REG, bimodule(A_ZERO, [(1, 1)] * 2, as_dict(A_ZERO.products), {}),
                 A_ZERO.products, name="T"))  # right equivariance
@settings(max_examples=100, deadline=None)
@given(pairings())
def test_pairing_check_matches_dense_loop(pr):
    # the three identities are checked one after the other on both paths,
    # so the first one that fails is reported by both
    assert outcome(Pairing.check, pr) == outcome(dense_pairing_check, pr)


def test_failing_triple_reports_first_failure_by_middle_index():
    # a and b are empty, so the identity fails wherever the right side
    # sum_t c[g, w][t] d[u, t] is nonzero mod p
    c = {(0, 4): {0: 1}, (1, 4): {1: 1}, (1, 2): {1: 1}}
    d = {(0, 1): {0: 1}, (2, 1): {0: 1}, (1, 0): {0: 3}}
    # g = 0 reaches only (u, w) = (1, 4), where the right side is 3; g = 1
    # reaches u in {0, 2} and w in {2, 4}, where it is 1
    for p, first in ((3, (0, 1, 2)), (5, (1, 0, 4))):
        assert failing_triple(*(table_of(t, p) for t in ({}, {}, c, d)), p) == first


def test_checks_cost_follows_nonempty_products():
    # k^3000: 3000 vertices and their idempotents, nothing else.  The loops
    # over every tuple would take minutes here; the scans visit only the
    # 3000 idempotent products of each table.
    n = 3000
    alg = algebra(3, n, [], {})
    reg = regular(alg)
    scale = identity_map(reg, 2)
    mult = Pairing(reg, reg, reg, alg.products, name="mult")
    start = time.perf_counter()
    alg.check_associativity()
    reg.check_bimodule()
    scale.check_intertwines()
    mult.check()
    assert time.perf_counter() - start < 1.0


# -- the sort-join against the dict walker --------------------------------------


@st.composite
def scans(draw):
    """(a, b, c, d, p): four tables over a few sparse indices below 10^4,
    with empty entries and coefficients in [-p, 2p).  Either all four are
    random, or c and d are random and a, b are made so that the identity
    holds mod p (a[u, g] = [(u, g)] and b[(u, g), w] is the right side plus
    a multiple of p), and then perhaps broken at one entry; either side may
    be blanked."""
    p = draw(st.sampled_from([3, 5, 7]))
    indices = st.lists(st.integers(0, 10 ** 4), min_size=1, max_size=3, unique=True)
    us, gs, ws, ts, xs = (draw(indices) for _ in range(5))
    coeffs = st.integers(-p, 2 * p - 1)

    def table(rows, cols, keys):
        combos = st.dictionaries(st.sampled_from(keys), coeffs, min_size=1, max_size=3)
        combos |= st.just({})
        return draw(st.dictionaries(st.tuples(st.sampled_from(rows), st.sampled_from(cols)),
                                    combos, min_size=1, max_size=8))

    c, d = table(gs, ws, ts), table(us, ts, xs)
    if draw(st.booleans()):
        a, b = table(us, gs, ts), table(ts, ws, xs)
    else:
        # the middle index of a's terms: (u, g) numbered by place
        place = {(u, g): n for n, (u, g) in enumerate((u, g) for u in us for g in gs)}
        a = {(u, g): {n: 1} for (u, g), n in place.items()}
        b = {}
        for (u, g), n in place.items():
            for w in ws:
                right: dict = {}
                for t, coeff in c.get((g, w), {}).items():
                    for x, c2 in d.get((u, t), {}).items():
                        right[x] = right.get(x, 0) + coeff * c2
                if right or draw(st.booleans()):
                    b[(n, w)] = {x: v + p * draw(st.integers(-2, 2)) for x, v in right.items()}
        if draw(st.booleans()) and b:
            key = draw(st.sampled_from(sorted(b)))
            b[key] = draw(st.dictionaries(st.sampled_from(xs), coeffs, max_size=3))
    blank = draw(st.sampled_from(("none", "none", "left", "right")))
    if blank == "left":
        a, b = (draw(st.sampled_from(({}, a))), draw(st.sampled_from(({}, b))))
    elif blank == "right":
        c, d = (draw(st.sampled_from(({}, c))), draw(st.sampled_from(({}, d))))
    return a, b, c, d, p


# the two sides differ by exactly p at (u, g, w) = (2, 1, 3): equal only mod p
@example(({(2, 1): {0: 1}}, {(0, 3): {7: 4}}, {(1, 3): {5: 1}}, {(2, 5): {7: 1}}, 3))
@example(({(2, 1): {0: 1}}, {(0, 3): {7: 4}}, {(1, 3): {5: 1}}, {(2, 5): {7: 1}}, 5))
@example(({(0, 0): {}}, {(0, 0): {0: 1}}, {}, {}, 3))  # empty combos only
@example(({}, {}, {(9999, 1): {4: 2}}, {(3, 4): {10 ** 4: 1}}, 7))  # the left side empty
@settings(max_examples=300, deadline=None)
@given(scans())
def test_sort_join_matches_dict_walker(scan):
    *tables, p = scan
    assert failing_triple(*(table_of(t, p) for t in tables), p) == walked_failing_triple(*scan)


def test_scan_keys_that_would_not_fit_in_int64_raise():
    n = 70_000  # 70001^4 > 2^63 - 1
    one = table_of({(n, n + 1): {n + 2: 1}}, 3)
    with pytest.raises(exactlin.TooLarge, match="int64"):
        failing_triple(one, one, one, one, 3)
    assert koszulhh.TooLarge is exactlin.TooLarge



# -- the indexed half-join against the sort-join it replaced --------------------


def sorted_half_join(keys, on):
    """``quiver.half_join`` as it stood before the join indexes: (s, e) with
    keys[s] == on[e], by sorting on and searching it for every key."""
    order = np.argsort(on)
    s, e = exactlin._within(on[order], keys)
    return s, order[e]


def pairs(s, e) -> list:
    return sorted(zip(s.tolist(), e.tolist()))


@st.composite
def joins(draw):
    """(table, keys): a table over indices below 8 and up to 20 keys below
    12, so that some keys lie past each column's range."""
    combos = st.dictionaries(st.integers(0, 7), st.integers(1, 4), min_size=1, max_size=3)
    entries = draw(st.dictionaries(st.tuples(st.integers(0, 7), st.integers(0, 7)), combos,
                                   max_size=12))
    keys = draw(st.lists(st.integers(0, 11), max_size=20))
    return table_of(entries, 5), np.array(keys, dtype=np.int64)


@example((table_of({}, 5), np.arange(3)))  # an empty table
@example((table_of({(2, 0): {1: 1}, (0, 2): {1: 1}}, 5), np.zeros(0, dtype=np.int64)))
@example((table_of({(0, 3): {1: 1}, (0, 1): {1: 1}, (4, 1): {1: 2}}, 5), np.array([1, 9, 1, 3])))
@settings(max_examples=200, deadline=None)
@given(joins())
def test_indexed_half_join_matches_sort_join(case):
    # x is sorted and repeats; y and t are unsorted and repeat
    table, keys = case
    for index, on in ((table.by_x, table.x), (table.by_y, table.y),
                      (join_index(table.t), table.t)):
        assert pairs(*half_join(keys, index)) == pairs(*sorted_half_join(keys, on))


def test_scans_build_each_index_once(monkeypatch):
    mul, nm = build_omega(3).slot_products(), NaturalMaps(3)
    maps = (nm.alpha, nm.beta, nm.gamma, nm.kappa, nm.lam, nm.mu)
    table = build_spade(5, -3, 4).product_table()
    built = []

    def counted(on, ordered=False):
        built.append(ordered)
        return join_index(on, ordered)

    monkeypatch.setattr(quiver, "join_index", counted)
    for _ in range(2):
        assert failing_triple(mul, mul, mul, mul, 3) is None
    assert sorted(built) == [False, True]  # mul.by_y, then mul.by_x, once each
    for mp in maps:
        mp.check_intertwines()
        first = len(built)
        mp.check_intertwines()  # its table and the transposed one keep theirs
        assert len(built) == first
    # a window scan indexes its out pairs once per call, its terms once
    assert len(table.terms.x) > 2048  # more than one block
    for want in (4, 2):
        del built[:]
        assert window_associativity(table, 5) == (17332885, 0)
        assert len(built) == want
