"""The componentwise-cohomology algebra on the grid, with its monomial basis.

Elements are named copies of the canonical classes of the five coefficient
computations, placed at grid positions (a, b):

* (a, 0), a <= 0: full class algebra ("chi"), names 1, z^l, kz^l, c2_s;
* (a, b), a <= 0, b <= -2 even: the truncation ("chibar");
* (a, b), a <= 0, b <= -1 odd: its dual ("chibar*"), names soc_s, mu_l, nu_l;
* (1, 0): the kernel ("chiunder"), names z^l, kz^l with l >= (p-1)/2;
* (a, b), a >= 2, b >= 1 odd: "chibar" again; b >= 2 even: "chibar*";
* (a, 0), a >= 2: the vertex algebra ("omega0"), names e_s.

Which piece sits at which slot, with its shifts, is ``clubsuit.component_at``.

Products come from closed-form name products (frozen from cup computations
in the cochain models, which verify_first_principles compares table by
table).  Each label's names are an ordered subset of one of three lists:
chi's, the duals' or the vertex algebra's.  Each closed form is one array
table over those lists, built once per prime from masks on the names'
(family, exponent) arrays, and a label triple's ``name_table`` is its lists'
table restricted to the labels' names.  A window keeps its basis as arrays
and joins all its slot pairs with those tables into its ``product_table``, with
a suspension sign for components whose k-shift is odd; ``product`` reads it.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property, lru_cache
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import Hh2Error
from .clubsuit import (CHI, CHIBAR_MINUS, CHIBAR_PLUS, CHIBARSTAR_MINUS,
                       CHIBARSTAR_PLUS, CHIUNDER, OMEGA0, OUT_OF_WINDOW, PRODUCT_TABLE,
                       GridComponent, NaturalMaps, component_at, product_pairing)
from .exactlin import (_among, _distinct, _summed, _within, _xor, check_odd_prime,
                       coo_pivot_rows, half_join, join_index)
from .koszulhh import (KIND_DUAL, KIND_THETA_SIGMA, Name, NameCombo, concrete_degree,
                       format_name, idempotent_label)
from .quiver import Table, WindowTable, failing_triple, table_of, tables_equal, window_table


class WindowEmpty(Hh2Error):
    pass


class WindowTooLarge(Hh2Error):
    pass


# the most products, dim squared, that product_table scans; its arrays keep only
# nonzero and out-of-window pairs, so this bounds time and output: at p = 61 the
# default window prints 56 MB of JSON in 2.0 s, 263 MB peak (2-CPU x86-64 host)
MAX_PRODUCTS = 16_000_000


def component_names(p: int, kind: str) -> list[Name]:
    h = (p - 1) // 2
    if kind == CHI:
        return ([("z", l) for l in range(p)] + [("kz", l) for l in range(p - 1)]
                + [("c2", s) for s in range(1, p)])
    if kind in (CHIBAR_MINUS, CHIBAR_PLUS):
        return ([("z", l) for l in range(h)] + [("kz", l) for l in range(h)]
                + [("c2", s) for s in range(1, p)])
    if kind in (CHIBARSTAR_MINUS, CHIBARSTAR_PLUS):
        return ([("soc", s) for s in range(1, p)]
                + [("mu", l) for l in range(1, h + 1)] + [("nu", l) for l in range(1, h + 1)])
    if kind == CHIUNDER:
        return [("z", l) for l in range(h, p)] + [("kz", l) for l in range(h, p - 1)]
    if kind == OMEGA0:
        return [("e", s) for s in range(1, p + 1)]
    raise ValueError(kind)


class SpadeElement(NamedTuple):
    a: int
    b: int
    name: Name
    kind: str
    i: int
    j: int
    k: int
    x: str  # idempotent label: "1" or "e_s"


# ---------------------------------------------------------------------------
# frozen name-level product tables (values verified against cup products)

def half(p: int) -> int:
    return (p + 1) // 2  # the scalar 1/2 in F_p


# the labels by code, and the superset list, by code, that each label's names
# are an ordered subset of: chi's (0), the duals' (1) or the vertex algebra's (2)
LABELS = (CHI, CHIBAR_MINUS, CHIBAR_PLUS, CHIUNDER, CHIBARSTAR_MINUS, CHIBARSTAR_PLUS, OMEGA0)
_STAR = CHIBARSTAR_MINUS
SUPERSETS, _SUPERSET = (CHI, _STAR, OMEGA0), np.array([0, 0, 0, 0, 1, 1, 2])
_CHI, _UNDER, _OMEGA0 = (LABELS.index(label) for label in (CHI, CHIUNDER, OMEGA0))


@lru_cache(maxsize=None)
def _names(p: int) -> SimpleNamespace:
    """The superset lists' ``names``, from ``start`` of each, with arrays of their ``j``, ``k``,
    ``idem`` (s of e_s, 0 of 1), place ``by_str`` in str order and ``texts``; a label's
    ``members`` and ``places[label, name]``, a name's place in its members or -1."""
    names = [name for label in SUPERSETS for name in component_names(p, label)]
    at = {name: n for n, name in enumerate(names)}
    members = [np.array([at[name] for name in component_names(p, label)]) for label in LABELS]
    places = np.full((len(LABELS), len(names)), -1, dtype=np.int64)
    for code, member in enumerate(members):
        places[code, member] = np.arange(len(member))
    j, k, _ = np.array([concrete_degree(p, name) for name in names], dtype=np.int64).T
    idem = np.array([0 if x == "1" else int(x[2:]) for x in map(idempotent_label, names)])
    return SimpleNamespace(names=names, start=np.cumsum([0, 3 * p - 2, 2 * p - 2]), j=j, k=k,
                           idem=idem, by_str=np.argsort(np.argsort(list(map(str, names)))),
                           texts=np.array(list(map(format_name, names)), dtype=object),
                           places=places, members=members)


def _where(mask: np.ndarray, t, c) -> tuple[np.ndarray, ...]:
    """The rows (u, v, t, c) at the True cells (u, v) of a 2-d mask, broadcast
    with t and c."""
    mask, t, c = np.broadcast_arrays(mask, t, c)
    u, v = np.nonzero(mask)
    return u, v, t[u, v], c[u, v]


def _sorted(*blocks: tuple) -> tuple[np.ndarray, ...]:
    """Row blocks (u, v, t, c) as one int64 table sorted by (u, v, t)."""
    u, v, t, c = (np.concatenate([np.asarray(col, dtype=np.int64).ravel() for col in cols])
                  for cols in zip(*blocks))
    order = np.lexsort((t, v, u))
    return u[order], v[order], t[order], c[order]


@lru_cache(maxsize=None)
def _base_tables(p: int) -> dict[tuple[str, str, str], tuple[np.ndarray, ...]]:
    """The closed-form name products over the superset lists, keyed by their
    (left, right, target) superset labels: int64 arrays (u, v, t, c) sorted by
    (u, v, t), each name numbered by its place in its superset's list.

    Chi's names are z^l, kz^l, c2_s (family 0, 1, 2), the duals' soc_s, mu_l,
    nu_l (0, 1, 2), at the place ``off[family] + exponent``; e_s is at s - 1.
    With h = (p-1)/2 and 1/2 = (p+1)/2, the nonzero products are
      chi x chi -> chi:   z^a z^b = z^{a+b} (a+b <= p-1), z^a kz^b = kz^a z^b
                          = kz^{a+b} (a+b <= p-2), z^0 c2_s = c2_s z^0 = c2_s;
      chi x dual -> dual: z^0 acts as 1, z^a mu_l = mu_{l-a} and z^a nu_l =
                          nu_{l-a} (l > a >= 1), kz^a mu_l = 1/2 nu_{l-a} (l > a),
                          c2_s soc_s = (-1)^{h-s} 1/2 nu_1; the same on the right;
      chi x dual -> vertex (box): z^0 soc_s = soc_s z^0 = e_s;
      dual x dual -> chi (star): mu_h mu_h = c2_h - c2_{h+1}, and mu_h times
                          soc_h or soc_{h+1}, either order, is kz^{h-1};
      chi x chi -> vertex (triangle): z^h z^h = sum of e_s over s > h;
      chi x vertex -> vertex: z^0 e_s = e_s z^0 = e_s (the unit action);
      chi x vertex -> chi (diamond): z^0 e_p = e_p z^0 = z^{p-1}.
    """
    h, half_ = (p - 1) // 2, half(p)
    cf, ce = np.repeat([0, 1, 2], [p, p - 1, p - 1]), np.r_[0:p, 0:p - 1, 1:p]
    sf, se = np.repeat([0, 1, 2], [p - 1, h, h]), np.r_[1:p, 1:h + 1, 1:h + 1]
    chi_off, star_off = np.array([0, p, 2 * p - 2]), np.array([-1, p - 2, p - 2 + h])
    fu, eu = cf[:, None], ce[:, None]  # a chi name on the left, down the rows
    unit_u = (fu == 0) & (eu == 0)
    fv, ev = cf[None, :], ce[None, :]  # a chi name on the right
    s = eu + ev
    chi = _sorted(_where((fu == 0) & (fv == 0) & (s <= p - 1), chi_off[0] + s, 1),
                  _where((fu + fv == 1) & (s <= p - 2), chi_off[1] + s, 1),
                  _where((fu == 2) & (fv == 0) & (ev == 0), chi_off[2] + eu, 1),
                  _where(unit_u & (fv == 2), chi_off[2] + ev, 1))
    fv, ev = sf[None, :], se[None, :]  # a dual name on the right
    d = ev - eu
    act = _sorted(_where(unit_u, star_off[fv] + ev, 1),
                  _where((fu == 0) & (eu >= 1) & (fv >= 1) & (d >= 1), star_off[fv] + d, 1),
                  _where((fu == 1) & (fv == 1) & (d >= 1), star_off[2] + d, half_),
                  _where((fu == 2) & (fv == 0) & (d == 0), star_off[2] + 1,
                         np.where((h - eu) % 2 == 0, half_, p - half_)))
    box = _sorted(_where(unit_u & (fv == 0), ev - 1, 1))
    mu_h, soc = (sf == 1) & (se == h), (sf == 0) & ((se == h) | (se == h + 1))
    mu_mu = mu_h[:, None] & mu_h[None, :]
    star = _sorted(_where(mu_mu, chi_off[2] + h, 1), _where(mu_mu, chi_off[2] + h + 1, p - 1),
                   _where((mu_h[:, None] & soc[None, :]) | (soc[:, None] & mu_h[None, :]),
                          chi_off[1] + h - 1, 1))
    triangle = _sorted((np.full(h + 1, h), np.full(h + 1, h), np.arange(h, p), np.ones(h + 1)))
    unit_action = _sorted((np.zeros(p), np.arange(p), np.arange(p), np.ones(p)))
    diamond = _sorted(([0], [p - 1], [p - 1], [1]))
    tables = {(CHI, CHI, CHI): chi, (CHI, _STAR, _STAR): act, (CHI, _STAR, OMEGA0): box,
              (_STAR, _STAR, CHI): star, (CHI, CHI, OMEGA0): triangle,
              (CHI, OMEGA0, OMEGA0): unit_action, (CHI, OMEGA0, CHI): diamond}
    for (s1, s2, st), (u, v, t, c) in list(tables.items()):
        if s1 != s2:  # each product of a chi name and another the same either side
            tables[s2, s1, st] = _sorted((v, u, t, c))
    return tables


def _ruled_out(l1, l2, target):
    """Whether labels, by code, rule their supersets' products out: a vertex name only meets chi's,
    chi x chi is a vertex only for the kernel squared, dual x dual only chi or a truncation."""
    s1, s2 = _SUPERSET[l1], _SUPERSET[l2]
    return ((((l1 == _OMEGA0) | (l2 == _OMEGA0)) & (l1 != _CHI) & (l2 != _CHI))
            | ((target == _OMEGA0) & (s1 == 0) & (s2 == 0) & ((l1 != _UNDER) | (l2 != _UNDER)))
            | ((target == _UNDER) & (s1 == 1) & (s2 == 1)))


@lru_cache(maxsize=None)
def name_table(p: int, label1: str, label2: str, target: str) -> tuple[np.ndarray, ...]:
    """The nonzero closed-form products of a label1 name and a label2 name
    into the target label, as int64 arrays (u, v, t, c): name u times name v
    has c at name t, each name numbered by its place in its
    ``component_names``, the rows sorted by (u, v, t).

    It is the superset labels' table of ``_base_tables`` restricted to the
    labels' names, so a product with a term off the target's names loses
    that term, and zero where ``_ruled_out``.  Made once per process and
    shared, so callers only read it.
    """
    codes = [LABELS.index(label) for label in (label1, label2, target)]
    base = _base_tables(p).get(tuple(SUPERSETS[_SUPERSET[code]] for code in codes))
    if base is None or _ruled_out(*codes):
        return (np.zeros(0, dtype=np.int64),) * 4
    names, (u, v, t, c) = _names(p), base
    u, v, t = (names.places[code, names.start[_SUPERSET[code]] + col]
               for code, col in zip(codes, (u, v, t)))
    keep = (u >= 0) & (v >= 0) & (t >= 0)
    return u[keep], v[keep], t[keep], c[keep]


def window_entry(table: WindowTable, basis: list, i: int, j: int):
    """basis[i] * basis[j] as the table has it: {element: coeff}, {} when it
    is zero, or OUT_OF_WINDOW.  A pair with terms is never out."""
    _, terms, (ox, oy) = table
    combo = terms.get((i, j))
    if combo is not None:
        return {basis[t]: c for t, c in combo.items()}
    lo, hi = ox.searchsorted((i, i + 1))
    return OUT_OF_WINDOW if j in oy[lo:hi].tolist() else {}


def window_slots(p: int, a_min: int, a_max: int) -> dict[tuple[int, int], GridComponent]:
    """{(a, b): its grid component} over a, b in a_min..a_max; WindowEmpty if none."""
    span = range(a_min, a_max + 1)
    slots = {(a, b): comp for a in span for b in span if (comp := component_at(p, a, b))}
    if not slots:
        raise WindowEmpty("no grid slots in the requested window")
    return slots


class SpadeAlgebra:
    """Windowed realization with the closed-form product, read from its table.

    The basis is int64 arrays, slot after slot from ``first`` of each: ``a``, ``b``,
    ``label`` (a code of ``LABELS``), ``name`` (a place in ``_names``), ``i``, ``j``, ``k``,
    idempotent ``x``, slot ``kshift``; ``basis`` and ``index`` are made on first read."""

    def __init__(self, p: int, a_min: int, a_max: int):
        check_odd_prime(p)
        self.p, self.a_min, self.a_max = p, a_min, a_max
        self.slots = window_slots(p, a_min, a_max)
        names = _names(p)
        a, b, label, jshift, kshift = np.array(
            [(a, b, LABELS.index(comp.label), comp.jshift, comp.kshift)
             for (a, b), comp in self.slots.items()], dtype=np.int64).T
        members = [names.members[code] for code in label.tolist()]
        self.first = np.cumsum([0] + list(map(len, members)))
        slot = np.repeat(np.arange(len(a)), np.diff(self.first))  # each element's
        self.a, self.b, self.label, self.kshift = a[slot], b[slot], label[slot], kshift[slot]
        self.name = np.concatenate(members)
        self.i, self.j = self.a + self.b, names.j[self.name] + jshift[slot]
        self.k, self.x = names.k[self.name] + self.kshift, names.idem[self.name]
        self._table: WindowTable | None = None

    @cached_property
    def basis(self) -> list[SpadeElement]:
        names = _names(self.p).names
        return [SpadeElement(a, b, names[n], LABELS[label], i, j, k, f"e_{x}" if x else "1")
                for a, b, n, label, i, j, k, x in zip(*(col.tolist() for col in (
                    self.a, self.b, self.name, self.label, self.i, self.j, self.k, self.x)))]

    index = cached_property(lambda self: {(m.a, m.b, m.name): i for i, m in enumerate(self.basis)})

    @cached_property
    def displays(self) -> np.ndarray:
        """Each element's text, name@(a,b), from one text per name and per slot."""
        at = np.array([f"@({a},{b})" for a, b in self.slots], dtype=object)
        return _names(self.p).texts[self.name] + at.repeat(np.diff(self.first))

    @property
    def dim(self) -> int:
        return len(self.name)

    def unit(self) -> SpadeElement:
        return self.basis[self.index[(0, 0, ("z", 0))]]

    def product(self, m1: SpadeElement, m2: SpadeElement):
        """Linear combination {SpadeElement: coeff}, or OUT_OF_WINDOW: the
        entry of ``product_table`` at the pair."""
        return window_entry(self.product_table(), self.basis,
                            self.index[m1.a, m1.b, m1.name], self.index[m2.a, m2.b, m2.name])

    def product_table(self) -> WindowTable:
        """The window's products, made on the first call and kept: one join of the slot
        pairs whose sum is a grid slot, unless ``_ruled_out``, with the rows of their
        supersets' tables, each name placed among its label's by ``places`` (a row with
        a name off them dropped) and moved past its slot's first element; a pair whose sum
        is outside the window has its name pairs out.  A product is signed -1 when the
        right factor's slot has odd k-shift and the left factor's name odd k-degree: the
        Koszul sign of the odd k-suspension of the plus-side components, the unique rule
        of this shape compatible with associativity and supercommutativity."""
        if self._table is not None:
            return self._table
        p, n, names = self.p, self.dim, _names(self.p)
        if n * n > MAX_PRODUCTS:
            raise WindowTooLarge(f"the window has {n} elements, so {n * n} products: "
                                 f"more than {MAX_PRODUCTS}")
        codes, rows = np.full((3,) * 3, -1), []  # the superset tables, names placed in _names
        for code, (triple, (u, v, t, c)) in enumerate(_base_tables(p).items()):
            s = [SUPERSETS.index(label) for label in triple]
            codes[tuple(s)] = code
            rows.append((np.full(len(u), code), *(names.start[s][:, None] + (u, v, t)), c))
        which, u, v, t, c = (np.concatenate(col) for col in zip(*rows))
        # each slot pair s1 s2 and the grid slot at its sum: its label, -1 if
        # vacant, and its first element, -1 outside the window
        first, lo, width = self.first[:-1], 2 * self.a_min, 2 * (self.a_max - self.a_min) + 1
        sa, sb, sl, shift = (col[first] for col in (self.a, self.b, self.label, self.kshift))
        at = dict(zip(self.slots, first.tolist()))
        grid = np.array([(LABELS.index(comp.label), at.get((comp.a, comp.b), -1))
                         if (comp := component_at(p, lo + a, lo + b)) else (-1, -1)
                         for a in range(width) for b in range(width)])
        s1, s2 = np.divmod(np.arange(len(first) ** 2), len(first))
        lt, ft = grid[(sa[s1] + sa[s2] - lo) * width + sb[s1] + sb[s2] - lo].T
        code = codes[_SUPERSET[sl[s1]], _SUPERSET[sl[s2]], _SUPERSET[lt]]
        keep = (lt >= 0) & (code >= 0) & ~_ruled_out(sl[s1], sl[s2], lt)
        s1, s2, lt, ft = s1[keep], s2[keep], lt[keep], ft[keep]
        q, e = half_join(code[keep], join_index(which, ordered=True))
        x, y, z = (names.places[label[q], col[e]] for label, col in
                   ((sl[s1], u), (sl[s2], v), (lt, t)))
        keep = (x >= 0) & (y >= 0) & (z >= 0)
        q, e = q[keep], e[keep]
        x, y, z = first[s1[q]] + x[keep], first[s2[q]] + y[keep], ft[q] + z[keep]
        c = np.where(shift[s2[q]] * names.k[u[e]] % 2 == 1, p - c[e], c[e])
        inside = ft[q] >= 0
        self._table = window_table(n, [(x[inside], y[inside], z[inside], c[inside])],
                                   [(x[~inside], y[~inside])], p)
        return self._table


def build_spade(p: int, a_min: int, a_max: int) -> SpadeAlgebra:
    return SpadeAlgebra(p, a_min, a_max)


# ---------------------------------------------------------------------------
# the duality pairing between the dual-type and truncation-type computations

def duality_form(p: int, n_sigma: Name, n_theta: Name) -> int:
    """The perfect pairing matching duals with truncation classes.

    Normalized so that nu_{l+1} pairs to 1 with z^l; associativity with the
    computed products then forces the value 1/2 on the mu/kz and (signed)
    soc/c2 matchings.
    """
    h = (p - 1) // 2
    k1, a1 = n_sigma
    k2, a2 = n_theta
    if k1 == "nu" and k2 == "z" and a1 == a2 + 1:
        return 1
    if k1 == "mu" and k2 == "kz" and a1 == a2 + 1:
        return half(p)
    if k1 == "soc" and k2 == "c2" and a1 == a2:
        sign = 1 if (h - a1) % 2 == 0 else -1
        return (sign * half(p)) % p
    return 0


def duality_form_checks(p: int) -> tuple[bool, bool]:
    """(is perfect, is associative over all basis triples).

    Associativity <h m, t> = <h, m t> is one ``failing_triple`` scan with
    u = h, g = m and w = t, each name numbered by its place in its component
    and the form a table with one dummy output index.  The action h m of a
    chi name on a dual name is the name table chi x dual -> dual with its
    sides swapped, so the form's values on dual x truncation names are all
    that either side reads; m t is the name table chi x truncation ->
    truncation, which drops the part of m t off the truncation names, as
    that part pairs to 0.  The form is perfect when its table, as a matrix
    with columns t and rows h, has full rank."""
    sig, th = (component_names(p, kind) for kind in (CHIBARSTAR_MINUS, CHIBAR_MINUS))
    form = table_of({(h, t): {0: f} for h, n_h in enumerate(sig) for t, n_t in enumerate(th)
                     if (f := duality_form(p, n_h, n_t))}, p)
    m, h, t, c = name_table(p, CHI, CHIBARSTAR_MINUS, CHIBARSTAR_MINUS)
    act = Table.of(h, m, t, c, p)
    mul = Table.of(*name_table(p, CHI, CHIBAR_MINUS, CHIBAR_MINUS), p)
    h, t, _, f = form
    by_t = np.lexsort((h, t))
    perfect = len(coo_pivot_rows(t[by_t], h[by_t], f[by_t], p)) == len(sig) == len(th)
    return perfect, failing_triple(act, form, mul, form, p) is None


# ---------------------------------------------------------------------------
# first-principles verification of the product tables against cup products

# the status of a cell of ``verify_first_principles``, by its code
STATUSES = ("ok", "slot", "tensor", "degree", "class-degree", "mismatch")
OK, SLOT, TENSOR, DEGREE, CLASS_DEGREE, MISMATCH = range(len(STATUSES))


class VerificationReport(NamedTuple):
    """Each cell's code in ``cells``, in triple-then-(u, v) order: ok (nonzero
    and matching), the reason a matching cell is zero, or mismatch.  The
    failing cells as (label1, name1, label2, name2, target label) in
    ``mismatches``, and the table's and the cup's value at the first."""
    p: int
    cells: np.ndarray
    mismatches: list[tuple[str, Name, str, Name, str]]
    first: tuple[NameCombo, NameCombo] | None = None

    def zero_reason_counts(self) -> dict[str, int]:
        counts = np.bincount(self.cells, minlength=len(STATUSES)).tolist()
        return {STATUSES[code]: counts[code] for code in range(SLOT, MISMATCH) if counts[code]}

    def summary(self) -> str:
        text = (f"p={self.p}: {len(self.cells)} cells checked, {len(self.mismatches)} "
                f"mismatches, zeros by reason {self.zero_reason_counts()}")
        if self.mismatches:
            label1, name1, label2, name2, target = self.mismatches[0]
            table, cup_value = ({format_name(n): c for n, c in v.items()} for v in self.first)
            text += (f"; first {format_name(name1)} ({label1}) x {format_name(name2)} "
                     f"({label2}) -> {target}: table {table}, cup {cup_value}")
        return text


def verify_first_principles(nm: NaturalMaps, a_min: int = -3,
                            a_max: int = 4) -> VerificationReport:
    """Compare each label triple's ``name_table`` with the cup products of the
    representatives in ``nm`` through its kinds' ``product_pairing``, projected
    onto the target's classes: all triples in one pass, as (cell, class, coeff)
    rows, a cell per name pair (u, v).  A cup term on a class outside the
    target label has no table row, so its cell fails.  A zero cell's reason is
    ``slot`` (vacant target slot), ``tensor`` (no pairing at any target),
    ``degree`` (none into the target's module) or ``class-degree`` (the cup
    vanishes in homology)."""
    p, models, hhs = nm.p, nm.models, nm.homology

    # the class-level map induced by the socle embedding, verified on the nose:
    # soc_s to e_s, every other class to 0.  Each term (ci, xi) of a
    # representative joins mu's terms at xi, and (ci, mu(xi)) is placed among
    # the dual model's pairs, as cup places its products
    sig, dual = hhs[KIND_THETA_SIGMA], hhs[KIND_DUAL]
    sig_model, dual_model = models[KIND_THETA_SIGMA], models[KIND_DUAL]
    # to[i]: the place of e_s among the dual classes if class i is soc_s, else -1;
    # the image of soc_s and the representative of e_s are keyed by (that place, pair)
    e_at = {cl.name: i for i, cl in enumerate(dual.classes)}
    to = np.array([e_at["e", cl.name[1]] if cl.name[0] == "soc" else -1
                   for cl in sig.classes], dtype=np.int64)
    _, owner, n, val = sig.reps
    mx, _, mt, mc = nm.mu.table
    t, e = _within(mx, sig_model.xi[n])
    m, inside = dual_model.place(sig_model.ci[n[t]], mt[e])
    if not inside.all():
        raise AssertionError("socle embedding left the diagonal")
    at = to[owner[t]] >= 0
    image = _summed(to[owner[t[at]]] * dual_model.dim + m[at], val[t[at]] * mc[e[at]], p)
    _, owner, n, val = dual.reps
    at = _among(np.sort(to), owner)
    expect = _summed(owner[at] * dual_model.dim + n[at], val[at], p)
    if not tables_equal(image, expect):
        raise AssertionError("socle embedding does not match class reps")

    @cache
    def classes(label: str, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """Each name's class (a KeyError if none), each class's place in the label or -1."""
        names = component_names(p, label)
        at = {cl.name: i for i, cl in enumerate(hhs[kind].classes)}
        return (np.array([at[name] for name in names], dtype=np.int64),
                np.array([names.index(n) if n in names else -1 for n in at], dtype=np.int64))

    paired = {(k1, k2) for k1, k2, _kt in PRODUCT_TABLE}
    triples: dict[tuple, tuple] = {}  # (label1, label2, target label) -> their kinds
    for ((a1, b1), s1), ((a2, b2), s2) in itertools.product(
            sorted(window_slots(p, a_min, a_max).items()), repeat=2):
        s = component_at(p, a1 + a2, b1 + b2)  # the target slot, or None
        triples.setdefault((s1.label, s2.label, s and s.label), (s1.kind, s2.kind, s and s.kind))
    labels, kinds = list(triples), list(triples.values())
    shapes = [(len(component_names(p, l1)), len(component_names(p, l2))) for l1, l2, _ in labels]
    starts = np.cumsum([0] + [h * w for h, w in shapes])
    empty = np.zeros((3, 0), dtype=np.int64)
    codes, table, cups = [], [empty], [empty]  # blocks of (cell, class, coeff) rows
    for (label1, label2, label), (k1, k2, kt), start, (_, width) in zip(
            labels, kinds, starts.tolist(), shapes):
        if label is None:
            codes.append(SLOT)
            continue
        lands = (k1, k2) in paired and product_pairing(nm, k1, k2, kt) is not None
        codes.append(CLASS_DEGREE if lands else DEGREE if (k1, k2) in paired else TENSOR)
        u, v, t, c = name_table(p, label1, label2, label)
        table.append(np.array((start + u * width + v, classes(label, kt)[0][t], c)))
        if lands:  # all classes of k1 times all of k2, over the target's classes
            _, owner, t, c = nm.class_products[k1, k2, kt]
            if product_pairing(nm, k1, k2, kt).factor:  # then the socle embedding
                at = to[t] >= 0
                owner, t, c = owner[at], to[t[at]], c[at]
            u, v = np.divmod(owner, hhs[k2].reps.count)
            u, v = classes(label1, k1)[1][u], classes(label2, k2)[1][v]
            at = (u >= 0) & (v >= 0)
            cups.append(np.array((start + u[at] * width + v[at], t[at], c[at])))
    cells = np.repeat(np.array(codes, dtype=np.int8), np.diff(starts))
    table, cups = (np.concatenate(blocks, axis=1) for blocks in (table, cups))
    cells[table[0]] = OK
    n_t = 1 + max(int(rows[1].max(initial=0)) for rows in (table, cups))
    bad = _distinct(_xor(*((cell * n_t + t) * p + c for cell, t, c in (table, cups)))
                    // (n_t * p)).tolist()
    cells[bad] = MISMATCH
    k = (starts.searchsorted(bad, "right") - 1).tolist()  # each failing cell's triple
    mismatches = [(l1, component_names(p, l1)[i // w], l2, component_names(p, l2)[i % w], lt)
                  for (l1, l2, lt), (_, w), i in zip([labels[j] for j in k], [shapes[j] for j in k],
                                                     (bad - starts[k]).tolist())]

    def value(rows: np.ndarray) -> NameCombo:  # the first failing cell's, by class name
        named = hhs[kinds[k[0]][2]].classes
        return {named[t].name: c for i, t, c in zip(*rows.tolist()) if i == bad[0]}
    return VerificationReport(p, cells, mismatches, (value(table), value(cups)) if bad else None)
