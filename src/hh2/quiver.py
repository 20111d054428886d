"""Based algebras and bimodules for the two quiver presentations.

Conventions used throughout the package:

* Products compose like functions: ``mul(a, b)`` is "apply b first, then a",
  and a basis element x with slot (left, right) satisfies
  ``e_left * x * e_right == x``, i.e. x is a path right -> left.
* The double quiver on vertices 1..p has up arrows u_m: m -> m+1 and down
  arrows d_m: m+1 -> m.  In the degree-(1,0) algebra these are eta_m / xi_m;
  in the degree-(-1,1) algebra they are y_m / x_m.
* Monomials of the quadratic-dual algebra are stored in "valley" normal form
  (src, A, B): start at vertex src, take A down steps, then B up steps.  The
  rewriting system pushing peaks down (x_v y_v -> y_{v-1} x_{v-1}, with
  x_1 y_1 -> 0) is confluent, so these words are a basis and the product of
  two monomials is (src2, A1+A2, B1+B2) when the combined valley stays >= 1,
  and zero otherwise.

Linear combinations are dicts {basis_index: coefficient mod p}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import Hh2Error
from .exactlin import TooLarge, _summed, _within, check_odd_prime, combo_add, sparse_pivots

Combo = dict[int, int]


class IncompatibleAlgebras(Hh2Error):
    pass


@dataclass(frozen=True)
class BasisElement:
    name: str
    left: int
    right: int
    j: int
    k: int


@dataclass(frozen=True)
class Arrow:
    name: str
    source: int
    target: int
    j: int
    k: int


@dataclass(frozen=True)
class QuiverPresentation:
    """Vertices, arrows, and relations; words list arrows outermost first.

    A relation is a tuple of (word, coefficient) pairs whose paths all share
    one (source, target); it must evaluate to zero in the presented algebra.
    """
    vertices: tuple[int, ...]
    arrows: tuple[Arrow, ...]
    relations: tuple[tuple[tuple[tuple[str, ...], int], ...], ...]

    def evaluate(self, alg: "BasedAlgebra", images: dict[str, str] | None = None
                 ) -> list[Combo]:
        """Value of each relation in an algebra realizing the arrows.

        ``images`` maps arrow names to basis names when they differ (the
        monomial algebras name the degree-one monomials with their slots).
        """
        images = images or {}
        out = []
        for rel in self.relations:
            acc: Combo = {}
            for word, coeff in rel:
                val = alg.unit()
                for name in reversed(word):  # innermost arrow acts first
                    val = alg.mul({alg.index[images.get(name, name)]: 1}, val)
                combo_add(acc, val, coeff, alg.p)
            out.append(acc)
        return out


def zigzag_presentation(p: int) -> QuiverPresentation:
    arrows = tuple(Arrow(f"eta{m}", m, m + 1, 1, 0) for m in range(1, p)) + \
        tuple(Arrow(f"xi{m}", m + 1, m, 1, 0) for m in range(1, p))
    rels = [((("eta" + str(p - 1), "xi" + str(p - 1)), 1),)]  # loop at the top
    for m in range(1, p - 1):
        rels.append((((f"xi{m}", f"xi{m + 1}"), 1),))
        rels.append((((f"eta{m + 1}", f"eta{m}"), 1),))
    for v in range(2, p):  # the two loops at an inner vertex cancel
        rels.append((((f"eta{v - 1}", f"xi{v - 1}"), 1), ((f"xi{v}", f"eta{v}"), 1)))
    return QuiverPresentation(tuple(range(1, p + 1)), arrows, tuple(rels))


def dual_presentation(p: int) -> QuiverPresentation:
    arrows = tuple(Arrow(f"y{m}", m, m + 1, -1, 1) for m in range(1, p)) + \
        tuple(Arrow(f"x{m}", m + 1, m, -1, 1) for m in range(1, p))
    rels = [((("x1", "y1"), 1),)]  # up-down loop at the bottom vanishes
    for v in range(2, p):  # up-down equals down-up at inner vertices
        rels.append((((f"x{v}", f"y{v}"), 1), ((f"y{v - 1}", f"x{v - 1}"), -1)))
    return QuiverPresentation(tuple(range(1, p + 1)), arrows, tuple(rels))


Table = dict[tuple[int, int], Combo]


def table_coo(table: Table) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The terms of a table as int64 arrays (x, y, t, c): one place per term
    c * [t] of each entry table[x, y], in the order of the entries and then
    of their combos; empty entries have none."""
    flat = [v for (x, y), combo in table.items() for t, c in combo.items() for v in (x, y, t, c)]
    return tuple(np.array(flat, dtype=np.int64).reshape(-1, 4).T)


class WindowTable(NamedTuple):
    """The products of the n basis elements of a window, as int64 arrays:
    basis[x] * basis[y] has coefficient c at basis[t] for each place of the
    terms (x, y, t, c), and leaves the window for each place of out (x, y).
    Other pairs multiply to zero."""
    n: int
    terms: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    out: tuple[np.ndarray, np.ndarray]


def window_table(n: int, terms: list[int], out: list[int]) -> WindowTable:
    """The ``WindowTable`` of the flat lists [x, y, t, c, ...] and [x, y, ...]."""
    return WindowTable(n, *(tuple(np.array(flat, dtype=np.int64).reshape(-1, width).T)
                            for flat, width in ((terms, 4), (out, 2))))


def half_join(keys: np.ndarray, on: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One half of an identity scan's join, as index pairs (s, e): every
    keys[s] == on[e]."""
    order = np.argsort(on)
    s, e = _within(on[order], keys)
    return s, order[e]


def failing_triple(a: Table, b: Table, c: Table, d: Table, p: int) -> tuple[int, int, int] | None:
    """The first (u, g, w), by g, then u, then w, at which

        sum_t a[u, g][t] * b[t, w]  =  sum_t c[g, w][t] * d[u, t]   (mod p)

    fails, or None.  Each table maps an index pair to a combo, a missing key
    to zero.  Associativity, the bimodule axioms, intertwining maps and
    balanced equivariant pairings are all identities of this shape.

    One sort-join over the terms of the nonempty entries (``table_coo``):
    each term t of a[u, g] meets the terms of b[t, .] and each term t of
    c[g, w] the terms of d[., t] (``half_join``, which the windowed scan
    ``window_associativity`` runs too), so a triple that no such pair reaches
    reads 0 = 0, and the work grows with the nonempty products.  Every product is
    keyed by (g, u, w, basis index), packed into one int64 with each index's
    own range, and the left minus the right side is summed mod p per key
    (``_summed``); the smallest key left is the first failure.  Raises
    ``TooLarge`` before the join when the packed keys would pass int64.
    """
    coo: dict[int, tuple[np.ndarray, ...]] = {}
    for table in (a, b, c, d):  # a table passed twice is converted once
        if id(table) not in coo:
            coo[id(table)] = table_coo(table)
    (au, ag, at, ac), (bt, bw, bi, bc), (cg, cw, ct, cc), (du, dt, di, dc) = (
        coo[id(table)] for table in (a, b, c, d))
    sizes = [1 + int(max(x.max(initial=-1), y.max(initial=-1)))
             for x, y in ((ag, cg), (au, du), (bw, cw), (bi, di))]
    if math.prod(sizes) > 2 ** 63 - 1:
        raise TooLarge(f"identity scan keys over index ranges {sizes} would not fit in int64")
    _, n_u, n_w, n_i = sizes

    def packed(g, u, w, i):
        return ((g * n_u + u) * n_w + w) * n_i + i

    s, e = half_join(at, bt)  # each term of a[u, g] with the terms of b[t, .]
    left_key, left_val = packed(ag[s], au[s], bw[e], bi[e]), ac[s] * bc[e]
    s, e = half_join(ct, dt)  # each term of c[g, w] with the terms of d[., t]
    right_key, right_val = packed(cg[s], du[e], cw[s], di[e]), -cc[s] * dc[e]
    key, _ = _summed(np.concatenate((left_key, right_key)),
                     np.concatenate((left_val, right_val)), p)
    if not len(key):
        return None
    guw = int(key[0]) // n_i
    return guw // n_w % n_u, guw // (n_w * n_u), guw % n_w


def window_associativity(table: WindowTable, p: int) -> tuple[int, int]:
    """(checked, failed) over the triples (i, j, k) whose products i j and
    j k stay in the window.  A triple is spoiled, and not checked, when a
    term el of i j has el k out of the window or a term el of j k has i el
    out; it fails when (i j) k - i (j k) is nonzero mod p.  Both need a term,
    so the count is the sum over j of #{i: i j in the window} * #{k: j k in
    the window} less the spoiled triples, the ``half_join``s of the terms
    with the out-of-window pairs; the products, keyed (j, i, k, basis index)
    as in ``failing_triple``, join the terms with themselves.  Both keep the
    triples whose other product is in the window.  Blocks of about 2,048
    terms by j bound the joins: one block added 7 MB to verify's peak RSS at p = 13.
    """
    n, (x, y, t, c), (ox, oy) = table
    if n ** 4 > 2 ** 63 - 1:
        raise TooLarge(f"a window of {n} elements packs keys past int64")
    out = ox * n + oy

    def inside(u, v):  # u v stays in the window
        return np.isin(u * n + v, out, invert=True)

    checked, failed = int(np.dot(n - np.bincount(oy, minlength=n),
                                 n - np.bincount(ox, minlength=n))), 0
    for js in np.array_split(np.arange(n), 1 + len(x) // 2048):
        a, b = np.isin(y, js), np.isin(x, js)  # the terms i j and j k
        xa, ya, ta, ca, xb, yb, tb, cb = x[a], y[a], t[a], c[a], x[b], y[b], t[b], c[b]
        s, e = half_join(ta, ox)  # a term el of i j with el k out
        spoiled = ((ya[s] * n + xa[s]) * n + oy[e])[inside(ya[s], oy[e])]
        s, e = half_join(tb, oy)  # a term el of j k with i el out
        spoiled = np.union1d(spoiled, ((xb[s] * n + ox[e]) * n + yb[s])[inside(ox[e], xb[s])])
        s, e = half_join(ta, x)  # (i j) k, term by term
        m = inside(ya[s], y[e])
        key, val = (((ya[s] * n + xa[s]) * n + y[e]) * n + t[e])[m], (ca[s] * c[e])[m]
        s, e = half_join(tb, y)  # i (j k), term by term
        m = inside(x[e], xb[s])
        key, _ = _summed(np.concatenate((key, (((xb[s] * n + x[e]) * n + yb[s]) * n + t[e])[m])),
                         np.concatenate((val, (-cb[s] * c[e])[m])), p)
        checked -= len(spoiled)
        failed += len(np.setdiff1d(key // n, spoiled))
    return checked, failed


class BasedAlgebra:
    """Finite-dimensional algebra with a fixed basis and structure constants.

    ``products[(i, j)]`` is the combo for basis[i] o basis[j] (j acts first);
    missing keys mean zero.  ``idem[v]`` is the index of the idempotent e_v.
    """

    def __init__(self, p: int, basis: list[BasisElement], products: dict[tuple[int, int], Combo],
                 idem: dict[int, int], name: str = ""):
        self.p = p
        self.basis = basis
        self.products = products
        self.idem = idem
        self.name = name
        self.index = {b.name: i for i, b in enumerate(basis)}
        self.vertices = sorted(idem)
        self._slot_products: Table | None = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    def unit(self) -> Combo:
        return {i: 1 for i in self.idem.values()}

    def mul_basis(self, i: int, j: int) -> Combo:
        bi, bj = self.basis[i], self.basis[j]
        if bi.right != bj.left:
            return {}
        return self.products.get((i, j), {})

    def mul(self, a: Combo, b: Combo) -> Combo:
        out: Combo = {}
        for i, ca in a.items():
            for j, cb in b.items():
                prod = self.mul_basis(i, j)
                if prod:
                    combo_add(out, prod, ca * cb, self.p)
        return out

    def slot_products(self) -> Table:
        """The products that ``mul_basis`` returns: slot-matched keys only.

        Made on the first call and kept, so ``products`` must not change
        after that; it is ``products`` itself when every key is slot-matched,
        as for Omega.  Callers only read it."""
        if self._slot_products is None:
            basis = self.basis
            matched = {(i, j): prod for (i, j), prod in self.products.items()
                       if basis[i].right == basis[j].left}
            self._slot_products = (self.products if len(matched) == len(self.products)
                                   else matched)
        return self._slot_products

    def check_associativity(self) -> None:
        mul = self.slot_products()
        bad = failing_triple(mul, mul, mul, mul, self.p)
        if bad is not None:
            i, j, k = (self.basis[x].name for x in bad)
            raise AssertionError(f"associativity fails at {i}, {j}, {k}")

    def check_unit_and_idempotents(self) -> None:
        one = self.unit()
        for i in range(self.dim):
            if self.mul(one, {i: 1}) != {i: 1} or self.mul({i: 1}, one) != {i: 1}:
                raise AssertionError(f"unit fails on {self.basis[i].name}")
        for v, iv in self.idem.items():
            for w, iw in self.idem.items():
                expect = {iv: 1} if v == w else {}
                if self.mul_basis(iv, iw) != expect:
                    raise AssertionError("idempotents not orthogonal")

    def check_degrees(self) -> None:
        for (i, j), prod in self.products.items():
            bi, bj = self.basis[i], self.basis[j]
            for idx in prod:
                b = self.basis[idx]
                if (b.j, b.k) != (bi.j + bj.j, bi.k + bj.k):
                    raise AssertionError(f"degree additivity fails on {bi.name}*{bj.name}")


class BasedBimodule:
    """Bimodule over a BasedAlgebra with explicit action constants.

    ``left[(a, m)]`` is the combo for basis_a o m and ``right[(m, a)]`` for
    m o basis_a, both over the full algebra basis.  The tables are read-only
    once built: modules, maps and pairings share them instead of copying.
    """

    def __init__(self, over: BasedAlgebra, basis: list[BasisElement],
                 left: dict[tuple[int, int], Combo], right: dict[tuple[int, int], Combo],
                 name: str = ""):
        self.over = over
        self.p = over.p
        self.basis = basis
        self.left = left
        self.right = right
        self.name = name
        self.index = {b.name: i for i, b in enumerate(basis)}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def check_bimodule(self) -> None:
        alg, basis, name = self.over, self.basis, self.name
        # idempotent entries as stored: e_v m = m if v is the slot of m, else empty
        for m, bm in enumerate(basis):
            if bm.left in alg.idem and self.left.get((alg.idem[bm.left], m)) != {m: 1}:
                raise AssertionError(f"e_{bm.left} . {bm.name} wrong in {name}")
            if bm.right in alg.idem and self.right.get((m, alg.idem[bm.right])) != {m: 1}:
                raise AssertionError(f"{bm.name} . e_{bm.right} wrong in {name}")
        vertex = {iv: v for v, iv in alg.idem.items()}
        for (a, m), prod in self.left.items():
            if a in vertex and prod and vertex[a] != basis[m].left:
                raise AssertionError(f"e_{vertex[a]} . {basis[m].name} wrong in {name}")
        for (m, a), prod in self.right.items():
            if a in vertex and prod and vertex[a] != basis[m].right:
                raise AssertionError(f"{basis[m].name} . e_{vertex[a]} wrong in {name}")
        mul, left, right = alg.slot_products(), self.left, self.right
        for tables, law in (((mul, left, left, left), "(ab)m != a(bm)"),
                            ((right, right, mul, right), "m(ab) != (ma)b"),
                            ((left, right, right, left), "(am)b != a(mb)")):
            if failing_triple(*tables, self.p) is not None:
                raise AssertionError(f"{law} in {name}")

    def check_degrees(self) -> None:
        alg_basis, basis = self.over.basis, self.basis
        for side, table, x_basis, y_basis in (("left", self.left, alg_basis, basis),
                                              ("right", self.right, basis, alg_basis)):
            for (i, m), prod in table.items():
                x, y = x_basis[i], y_basis[m]
                for idx in prod:
                    b = basis[idx]
                    if (b.j, b.k) != (x.j + y.j, x.k + y.k):
                        raise AssertionError(f"{side} degree additivity fails in {self.name}")


# ---------------------------------------------------------------------------
# the degree-(1,0) algebra on the double quiver (Koszul dual of the other one)

def build_zigzag_c(p: int) -> BasedAlgebra:
    """Path algebra of the double A_p quiver mod its length-2 relations.

    Basis: e_s (s=1..p), xi_m: m+1 -> m and eta_m: m -> m+1 in degree (1,0),
    and one loop per vertex 1..p-1 in degree (2,0).  The loop at s is the
    up-down word xi_s eta_s; the down-up loop at s+1 equals minus loop_{s+1},
    the loop at p is zero, and all length-3 paths vanish.
    """
    check_odd_prime(p)
    basis: list[BasisElement] = []
    idem: dict[int, int] = {}
    for s in range(1, p + 1):
        idem[s] = len(basis)
        basis.append(BasisElement(f"e{s}", s, s, 0, 0))
    xi: dict[int, int] = {}
    eta: dict[int, int] = {}
    for m in range(1, p):
        xi[m] = len(basis)
        basis.append(BasisElement(f"xi{m}", m, m + 1, 1, 0))
    for m in range(1, p):
        eta[m] = len(basis)
        basis.append(BasisElement(f"eta{m}", m + 1, m, 1, 0))
    loop: dict[int, int] = {}
    for s in range(1, p):
        loop[s] = len(basis)
        basis.append(BasisElement(f"loop{s}", s, s, 2, 0))

    products: dict[tuple[int, int], Combo] = {}

    def put(i: int, j: int, combo: Combo) -> None:
        if combo:
            products[(i, j)] = combo

    for i, b in enumerate(basis):
        put(idem[b.left], i, {i: 1})
        if b.left != b.right or b.j > 0:
            put(i, idem[b.right], {i: 1})
        elif b.j == 0:
            put(i, i, {i: 1})
    for s in range(1, p):
        put(xi[s], eta[s], {loop[s]: 1})
    for s in range(1, p - 1):
        put(eta[s], xi[s], {loop[s + 1]: p - 1})
    # eta_{p-1} o xi_{p-1} (loop at p) is zero; all longer words vanish

    alg = BasedAlgebra(p, basis, products, idem, name="c")
    alg.xi = xi
    alg.eta = eta
    alg.loop = loop
    alg.presentation = zigzag_presentation(p)
    return alg


# ---------------------------------------------------------------------------
# the degree-(-1,1) algebra and its quotients/sub-bimodules

def monomial_name(src: int, a: int, b: int) -> str:
    if a == 0 and b == 0:
        return f"e{src}"
    word = ""
    if b:
        word += f"y{b}"
    if a:
        word += f"x{a}"
    return f"{word}e{src}"


class OmegaAlgebra(BasedAlgebra):
    """The quadratic dual: commuting up/down arrows with the bottom loop killed."""

    def __init__(self, p: int):
        check_odd_prime(p)
        basis: list[BasisElement] = []
        key: dict[tuple[int, int, int], int] = {}
        idem: dict[int, int] = {}
        for src in range(1, p + 1):
            for a in range(0, src):
                for b in range(0, p - (src - a) + 1):
                    tgt = src - a + b
                    key[(src, a, b)] = len(basis)
                    basis.append(BasisElement(monomial_name(src, a, b), tgt, src, -(a + b), a + b))
        for s in range(1, p + 1):
            idem[s] = key[(s, 0, 0)]

        # the partners of i are the monomials that end where i starts
        data = [self._data_of(b) for b in basis]
        ending_at: dict[int, list[int]] = {}
        for j, bj in enumerate(basis):
            ending_at.setdefault(bj.left, []).append(j)
        products: dict[tuple[int, int], Combo] = {}
        for i, bi in enumerate(basis):
            _, ai, bbi = data[i]
            for j in ending_at[bi.right]:
                sj, aj, bbj = data[j]
                a = ai + aj
                if sj - a >= 1:
                    products[(i, j)] = {key[(sj, a, bbi + bbj)]: 1}
        super().__init__(p, basis, products, idem, name="Omega")
        self.key = key
        self.presentation = dual_presentation(p)
        self.arrow_images = {}
        for m in range(1, p):
            self.arrow_images[f"y{m}"] = monomial_name(m, 0, 1)
            self.arrow_images[f"x{m}"] = monomial_name(m + 1, 1, 0)

    @staticmethod
    def _data_of(b: BasisElement) -> tuple[int, int, int]:
        src = b.right
        length = b.k
        a = (length + src - b.left) // 2
        return src, a, length - a

    def data(self, idx: int) -> tuple[int, int, int]:
        """(src, downs, ups) of a basis monomial."""
        return self._data_of(self.basis[idx])

    def in_ideal(self, idx: int) -> bool:
        """Whether the monomial factors through the top vertex p."""
        src, a, b = self.data(idx)
        return a >= self.p - self.basis[idx].left

    def center_basis(self) -> list[Combo]:
        """Central elements: powers of the canonical degree-(-2,2) loop."""
        out = []
        for ell in range(self.p):
            combo = {self.key[(s, ell, ell)]: 1 for s in range(ell + 1, self.p + 1)}
            out.append(combo)
        return out


def build_omega(p: int) -> OmegaAlgebra:
    return OmegaAlgebra(p)


def regular_bimodule(omega: OmegaAlgebra) -> BasedBimodule:
    """Omega as a bimodule over itself: both actions are its product table."""
    return BasedBimodule(omega, list(omega.basis), omega.products, omega.products, name="Omega")


def _sub_bimodule(omega: OmegaAlgebra, keep: list[int], name: str) -> BasedBimodule:
    reindex = {old: new for new, old in enumerate(keep)}
    basis = [omega.basis[i] for i in keep]
    left: dict[tuple[int, int], Combo] = {}
    right: dict[tuple[int, int], Combo] = {}
    for (a, b), prod in omega.slot_products().items():
        mapped = {reindex[i]: c for i, c in prod.items() if i in reindex}
        if not mapped:
            continue
        if b in reindex:
            left[(a, reindex[b])] = mapped
        if a in reindex:
            right[(reindex[a], b)] = mapped
    return BasedBimodule(omega, basis, left, right, name=name)


def sub_ideal_epep(omega: OmegaAlgebra) -> BasedBimodule:
    """The two-sided ideal generated by e_p, spanned by through-the-top monomials."""
    keep = [i for i in range(omega.dim) if omega.in_ideal(i)]
    mod = _sub_bimodule(omega, keep, "OmegaEpOmega")
    mod.parent_index = keep
    return mod


def quotient_theta(omega: OmegaAlgebra) -> BasedBimodule:
    """The preprojective quotient by the ideal above, as an Omega-bimodule."""
    keep = [i for i in range(omega.dim) if not omega.in_ideal(i)]
    mod = _sub_bimodule(omega, keep, "Theta")
    mod.parent_index = keep
    return mod


def theta_sigma_index(omega: OmegaAlgebra, idx: int) -> int:
    """Index of the involution image of a non-ideal monomial (swap arrows, flip vertices)."""
    src, a, b = omega.data(idx)
    return omega.key[(omega.p - src, b, a)]


def twist_sigma(mod: BasedBimodule) -> BasedBimodule:
    """Right twist of a preprojective-type bimodule by its diagram involution.

    The underlying space is unchanged; the right slot label of m becomes
    p - right(m) and the right action of w is the action of sigma(w).
    Applying it twice gives back the original module.
    """
    omega = mod.over
    if not isinstance(omega, OmegaAlgebra):
        raise IncompatibleAlgebras("twist_sigma needs a module over the quadratic dual")
    p = omega.p
    for b in mod.basis:
        if b.left == p or b.right == p:
            raise IncompatibleAlgebras("twist_sigma only applies to modules killed by e_p")
    basis = [BasisElement(b.name, b.left, p - b.right, b.j, b.k) for b in mod.basis]
    sigma_of: dict[int, int] = {}
    for i in range(omega.dim):
        if not omega.in_ideal(i):
            src, a, b = omega.data(i)
            tgt = src - a + b
            if tgt != p and src != p:
                sigma_of[i] = theta_sigma_index(omega, i)
    # m . a here is m . sigma(a) there, and sigma is an involution of its domain
    right: dict[tuple[int, int], Combo] = {}
    for (m, s), prod in mod.right.items():
        if prod and s in sigma_of:
            right[(m, sigma_of[s])] = prod
    new_name = mod.name[:-5] if mod.name.endswith("Sigma") else mod.name + "Sigma"
    new = BasedBimodule(omega, basis, mod.left, right, name=new_name)
    if hasattr(mod, "parent_index"):
        new.parent_index = mod.parent_index
    return new


def dual(mod: BasedBimodule) -> BasedBimodule:
    """Linear dual: slots swap, degrees negate, actions transpose.

    With (a f b)(m) = f(b m a), the left action on duals is the transpose of
    the right action and vice versa.
    """
    basis = [BasisElement(b.name + "*", b.right, b.left, -b.j, -b.k) for b in mod.basis]
    p = mod.p
    left: dict[tuple[int, int], Combo] = {}
    right: dict[tuple[int, int], Combo] = {}
    for (m, a), prod in mod.right.items():
        for tgt, c in prod.items():
            left.setdefault((a, tgt), {})[m] = c % p
    for (a, m), prod in mod.left.items():
        for tgt, c in prod.items():
            right.setdefault((tgt, a), {})[m] = c % p
    return BasedBimodule(mod.over, basis, left, right, name=mod.name + "*")


def tensor_basis(m_mod: BasedBimodule, n_mod: BasedBimodule
                 ) -> tuple[list[tuple[int, int]], list[int]]:
    """M (x)_Omega N as a quotient of the vertex-matched pair space.

    Returns (pairs, free): the slot-matched pairs (i, j), and the places in
    pairs of the quotient's basis.  The relations (m.w)(x)n - m(x)(w.n) are
    sparse combos over the pairs, reduced by ``sparse_pivots``; their pivots
    are the leading pairs of the relation span, and the other pairs, in
    order, are free.
    """
    if m_mod.over is not n_mod.over:
        raise IncompatibleAlgebras("tensor factors live over different algebras")
    omega = m_mod.over
    pairs = [(i, j) for i in range(m_mod.dim) for j in range(n_mod.dim)
             if m_mod.basis[i].right == n_mod.basis[j].left]
    pair_index = {pr: n for n, pr in enumerate(pairs)}

    # relations (m.w)(x)n - m(x)(w.n) over the slot-matched triples (m, w, n)
    relations: list[Combo] = []
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
                rel: Combo = {}
                terms = [((tgt, j), c) for tgt, c in mi.items()]
                terms += [((i, tgt), -c) for tgt, c in nj.items()]
                for pr, c in terms:
                    if pr in pair_index:
                        rel[pair_index[pr]] = rel.get(pair_index[pr], 0) + c
                relations.append(rel)
    pivots = sparse_pivots(relations, omega.p)
    return pairs, [c for c in range(len(pairs)) if c not in pivots]


class BimoduleMap:
    """Linear map between bimodules, stored columnwise on the source basis."""

    def __init__(self, source: BasedBimodule, target: BasedBimodule,
                 columns: list[Combo], dj: int = 0, dk: int = 0, name: str = ""):
        self.source = source
        self.target = target
        self.columns = columns
        self.dj = dj
        self.dk = dk
        self.name = name

    def apply(self, combo: Combo) -> Combo:
        out: Combo = {}
        for idx, c in combo.items():
            combo_add(out, self.columns[idx], c, self.source.p)
        return out

    def check_intertwines(self) -> None:
        # f(a m) = a f(m) and f(m a) = f(m) a, f as a table with a dummy index 0
        f_m0 = {(m, 0): col for m, col in enumerate(self.columns)}
        f_0m = {(0, m): col for m, col in enumerate(self.columns)}
        src, tgt, p = self.source, self.target, self.source.p
        if failing_triple(src.left, f_m0, f_m0, tgt.left, p) is not None:
            raise AssertionError(f"{self.name}: left action not intertwined")
        if failing_triple(f_0m, tgt.right, src.right, f_0m, p) is not None:
            raise AssertionError(f"{self.name}: right action not intertwined")

    def check_degree_shift(self) -> None:
        for m, combo in enumerate(self.columns):
            bm = self.source.basis[m]
            for idx in combo:
                bt = self.target.basis[idx]
                if (bt.j - bm.j, bt.k - bm.k) != (self.dj, self.dk):
                    raise AssertionError(f"{self.name}: inhomogeneous degree shift")
