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
table restricted to the labels' names.
A window's ``product_table`` is built from those tables in one block per
group of slot pairs, with a suspension sign for components whose k-shift is
odd, and ``product`` reads it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache

import numpy as np

from . import Hh2Error
from .clubsuit import (CHI, CHIBAR_MINUS, CHIBAR_PLUS, CHIBARSTAR_MINUS,
                       CHIBARSTAR_PLUS, CHIUNDER, OMEGA0, OUT_OF_WINDOW, PRODUCT_TABLE,
                       GridComponent, NaturalMaps, component_at, product_pairing)
from .exactlin import (_among, _distinct, _summed, _within, _xor, check_odd_prime,
                       coo_pivot_rows)
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


@dataclass(frozen=True)
class SpadeElement:
    a: int
    b: int
    name: Name
    kind: str
    i: int
    j: int
    k: int
    x: str  # idempotent label: "1" or "e_s"

    @cached_property  # made once per element, however many listings print it
    def display(self) -> str:
        return f"{format_name(self.name)}@({self.a},{self.b})"


def make_element(p: int, a: int, b: int, name: Name) -> SpadeElement:
    comp = component_at(p, a, b)
    if comp is None:
        raise ValueError(f"vacant slot {(a, b)}")
    j, k, _h = concrete_degree(p, name)
    return SpadeElement(a, b, name, comp.label, a + b, j + comp.jshift, k + comp.kshift,
                        idempotent_label(name))


# ---------------------------------------------------------------------------
# frozen name-level product tables (values verified against cup products)

def half(p: int) -> int:
    return (p + 1) // 2  # the scalar 1/2 in F_p


# the superset list each label's names are an ordered subset of: chi's for
# the chi-type labels, the duals' for the star-type, the vertex algebra's
_SUPERSET = {CHI: CHI, CHIBAR_MINUS: CHI, CHIBAR_PLUS: CHI, CHIUNDER: CHI,
             CHIBARSTAR_MINUS: CHIBARSTAR_MINUS, CHIBARSTAR_PLUS: CHIBARSTAR_MINUS,
             OMEGA0: OMEGA0}
_STAR = CHIBARSTAR_MINUS


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


@lru_cache(maxsize=None)
def _places(p: int, label: str) -> np.ndarray:
    """Each name of the label's superset list at its place among the
    label's names, or -1 when the label lacks it."""
    at = {name: i for i, name in enumerate(component_names(p, label))}
    return np.array([at.get(name, -1) for name in component_names(p, _SUPERSET[label])],
                    dtype=np.int64)


@lru_cache(maxsize=None)
def name_table(p: int, label1: str, label2: str, target: str) -> tuple[np.ndarray, ...]:
    """The nonzero closed-form products of a label1 name and a label2 name
    into the target label, as int64 arrays (u, v, t, c): name u times name v
    has c at name t, each name numbered by its place in its
    ``component_names``, the rows sorted by (u, v, t).

    It is the superset labels' table of ``_base_tables`` restricted to the
    labels' names, so a product with a term off the target's names loses
    that term, and zero where the labels rule it out: a vertex name
    multiplies only with chi's, chi x chi lands in the vertex algebra only
    for the kernel times itself, and dual x dual lands only in chi and the
    truncations.  Made once per process and shared, so callers only read it.
    """
    s1, s2 = _SUPERSET[label1], _SUPERSET[label2]
    base = _base_tables(p).get((s1, s2, _SUPERSET[target]))
    if (base is None or (OMEGA0 in (label1, label2) and CHI not in (label1, label2))
            or (target == OMEGA0 and s1 == s2 == CHI and not label1 == label2 == CHIUNDER)
            or (target == CHIUNDER and s1 == s2 == _STAR)):
        return (np.zeros(0, dtype=np.int64),) * 4
    u, v, t, c = base
    u, v, t = _places(p, label1)[u], _places(p, label2)[v], _places(p, target)[t]
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
    """Windowed realization with the closed-form product, read from its table."""

    def __init__(self, p: int, a_min: int, a_max: int):
        check_odd_prime(p)
        self.p = p
        self.a_min, self.a_max = a_min, a_max
        self.slots = window_slots(p, a_min, a_max)
        self.basis = [make_element(p, a, b, name) for (a, b), comp in self.slots.items()
                      for name in component_names(p, comp.label)]
        self.index = {(m.a, m.b, m.name): i for i, m in enumerate(self.basis)}
        self._table: WindowTable | None = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    def unit(self) -> SpadeElement:
        return self.basis[self.index[(0, 0, ("z", 0))]]

    def product(self, m1: SpadeElement, m2: SpadeElement):
        """Linear combination {SpadeElement: coeff}, or OUT_OF_WINDOW: the
        entry of ``product_table`` at the pair."""
        return window_entry(self.product_table(), self.basis,
                            self.index[m1.a, m1.b, m1.name], self.index[m2.a, m2.b, m2.name])

    def product_table(self) -> WindowTable:
        """The window's products, made on the first call and kept.

        The slot pairs with a target slot are grouped by their label triple
        and whether the target is in the window.  Each group is one block,
        the triple's ``name_table`` moved past its slots' first elements; a
        group outside the window has its name pairs out.  A product is
        signed -1 when the right factor's slot has odd k-shift and the left
        factor's name odd k-degree: the Koszul sign of the odd k-suspension
        of the plus-side components, the unique rule of this shape
        compatible with associativity and supercommutativity on full windows.
        """
        if self._table is not None:
            return self._table
        p, basis, n = self.p, self.basis, self.dim
        if n * n > MAX_PRODUCTS:
            raise WindowTooLarge(f"the window has {n} elements, so {n * n} products: "
                                 f"more than {MAX_PRODUCTS}")
        shift = np.array([self.slots[m.a, m.b].kshift for m in basis], dtype=np.int64)
        name_k = np.array([m.k for m in basis], dtype=np.int64) - shift
        first = {(m.a, m.b): i for i, m in reversed(list(enumerate(basis)))}  # of each slot
        groups: dict[tuple[str, str, str, bool], list[tuple[int, int, int]]] = {}
        for (a1, b1), comp1 in self.slots.items():
            for (a2, b2), comp2 in self.slots.items():
                target = component_at(p, a1 + a2, b1 + b2)
                if target is not None:
                    at = first.get((target.a, target.b))  # None outside the window
                    groups.setdefault((comp1.label, comp2.label, target.label, at is not None),
                                      []).append((first[a1, b1], first[a2, b2], at or 0))
        terms, out = [], []
        for (label1, label2, label, inside), pairs in groups.items():
            u, v, t, c = name_table(p, label1, label2, label)
            f1, f2, ft = (np.array(col, dtype=np.int64)[:, None] for col in zip(*pairs))
            x, y = f1 + u, f2 + v
            if inside:
                c = np.where((shift[y] * name_k[x]) % 2 == 1, p - c, c)
                terms.append((x.ravel(), y.ravel(), (ft + t).ravel(), c.ravel()))
            else:
                out.append((x.ravel(), y.ravel()))
        self._table = window_table(n, terms, out, p)
        return self._table


def build_spade(p: int, a_min: int, a_max: int) -> SpadeAlgebra:
    return SpadeAlgebra(p, a_min, a_max)


def augmentation(m: SpadeElement) -> int:
    """The splitting onto the ground field: 1 on the unit, 0 elsewhere."""
    return 1 if (m.a, m.b, m.name) == (0, 0, ("z", 0)) else 0


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


@dataclass
class VerificationReport:
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
