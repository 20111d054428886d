"""The homology-grid algebra: bimodule components, natural maps, and products.

The grid is stated data (rows are powers of the tilting complex, columns are
slots within a row); each component is one of the five bimodules realized by
``quiver`` with explicit (j, k) shifts.  The sixteen natural bimodule maps of
the construction are built here, together with the balanced coefficient
pairings that the product table selects.

Pairing/tensor conventions follow ``quiver``: mul(a, b) applies b first.
The dual is normalized so that (a f b)(m) = f(b m a); the degree-(p-2) form
on the preprojective quotient pairs a monomial with its unique complement at
sigma-mirrored slots.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np

from . import Hh2Error, quiver
from .exactlin import coo_pivot_rows, half_join, join_index
from .koszulhh import (KIND_DUAL, KIND_IDEAL, KIND_OMEGA, KIND_THETA, KIND_THETA_SIGMA, Cochains,
                       Pairing, build_model, cup, homology_named)
from .quiver import BasedBimodule, BimoduleMap, Table, WindowTable, window_table

# spade labels: which piece of the class algebra a grid slot carries
CHI = "chi"
CHIBAR_MINUS = "chibar_minus"
CHIBARSTAR_MINUS = "chibar_star_minus"
CHIUNDER = "chi_under"
CHIBAR_PLUS = "chibar_plus"
CHIBARSTAR_PLUS = "chibar_star_plus"
OMEGA0 = "omega0_plus"


class ConstructionFailure(Hh2Error):
    pass


class WindowTooSmall(Hh2Error):
    pass


class OutOfWindow:
    """Marker for products whose target slot lies outside the built window."""

    def __repr__(self):
        return "OutOfWindow"


OUT_OF_WINDOW = OutOfWindow()


def _restrict(table: Table, p: int, rows: np.ndarray | None = None,
              cols: np.ndarray | None = None) -> Table:
    """The terms whose row (col) index i has rows[i] >= 0 (cols[i] >= 0),
    renumbered to it; None keeps every index of that side as it is."""
    x, y, t, c = table
    x, y = (idx if new is None else new[idx] for idx, new in ((x, rows), (y, cols)))
    keep = (x >= 0) & (y >= 0)
    return Table.of(x[keep], y[keep], t[keep], c[keep], p)


def _map_of(source: BasedBimodule, target: BasedBimodule, image: np.ndarray,
            dj: int = 0, dk: int = 0, name: str = "") -> BimoduleMap:
    """The map sending basis element m of source to image[m] of target, or
    to zero where image[m] is -1."""
    m = np.flatnonzero(image >= 0)
    return BimoduleMap(source, target, Table(m, np.zeros_like(m), image[m], np.ones_like(m)),
                       dj, dk, name)


def _compose(table: Table, mp: BimoduleMap, p: int, inner: bool = False) -> Table:
    """A table followed by a map, (x, y) -> mp(t(x, y)), or with ``inner`` the
    map applied to y first, (x, g) -> t(x, mp(g)): a join of the table's
    terms with the map's table, on t or on y."""
    x, y, t, c = table
    f = mp.table  # mp(g) at (g, 0)
    if inner:
        s, e = half_join(y, join_index(f.t))  # each term at (x, u) with each g that mp sends to u
        return Table.of(x[s], f.x[e], t[s], c[s] * f.c[e], p)
    s, e = half_join(t, f.by_x)  # each term t with the terms of mp(t)
    return Table.of(x[s], y[s], f.t[e], c[s] * f.c[e], p)


class BuiltOnRead(Mapping):
    """Values by name, each built when first read.

    Membership, length and iteration see every name, in the listed order,
    without building anything; reading a value builds it once.
    """

    def __init__(self, builders: dict[str, Callable[[], object]]):
        self._builders = builders
        self._built: dict[str, object] = {}

    def __getitem__(self, name: str):
        value = self._built.get(name)
        if value is None:
            value = self._built[name] = self._builders[name]()
        return value

    def __contains__(self, name) -> bool:
        return name in self._builders

    def __iter__(self) -> Iterator[str]:
        return iter(self._builders)

    def __len__(self) -> int:
        return len(self._builders)

    def built(self) -> list[str]:
        """The names built so far, in the order they were built."""
        return list(self._built)


class NaturalMaps:
    """Bimodules and all natural maps/pairings for one prime p.

    Only c and Omega are built at once.  Every module, map and pairing is
    built when it is first read, so a caller pays only for what it reads;
    ``modules`` and ``pairings`` are ``BuiltOnRead`` mappings by name, and
    ``models`` and ``homology`` hold each module's Koszul cochain model and
    its named Hochschild cohomology, by kind.  ``class_products`` holds, by
    (kind1, kind2, target) of ``PRODUCT_TABLE``, all classes of kind1 times all
    of kind2, u * (classes of kind2) + v, by ``product_pairing``, projected.
    """

    def __init__(self, p: int):
        self.p = p
        self.c = quiver.build_zigzag_c(p)
        self.omega = quiver.build_omega(p)
        self.modules = BuiltOnRead({
            KIND_OMEGA: lambda: self.reg, KIND_THETA: lambda: self.theta,
            KIND_THETA_SIGMA: lambda: self.theta_sigma, KIND_DUAL: lambda: self.dual,
            KIND_IDEAL: lambda: self.ideal})
        self.models = BuiltOnRead({kind: lambda k=kind: build_model(self.c, self.modules[k])
                                   for kind in self.modules})
        self.homology = BuiltOnRead({kind: lambda k=kind: homology_named(self.models[k], k)
                                     for kind in self.modules})
        self.pairings = BuiltOnRead(self._pairing_builders())
        self.class_products = BuiltOnRead({key: partial(self._class_products, *key)
                                           for key in PRODUCT_TABLE})

    # -- modules -------------------------------------------------------------

    reg = cached_property(lambda self: quiver.regular_bimodule(self.omega))
    theta = cached_property(lambda self: quiver.quotient_theta(self.omega))
    theta_sigma = cached_property(lambda self: quiver.twist_sigma(self.theta))
    dual = cached_property(lambda self: quiver.dual(self.reg))
    ideal = cached_property(lambda self: quiver.sub_ideal_epep(self.omega))
    ideal_dual = cached_property(lambda self: quiver.dual(self.ideal))
    theta_dual = cached_property(lambda self: quiver.dual(self.theta))

    # -- linear maps ---------------------------------------------------------

    @cached_property
    def alpha(self) -> BimoduleMap:
        # alpha: ideal -> Omega (inclusion)
        return _map_of(self.ideal, self.reg, np.array(self.ideal.parent_index), name="alpha")

    @cached_property
    def gamma(self) -> BimoduleMap:
        # gamma: Omega* ->> ideal,  m* -> beta-partner(m) for ideal monomials
        # (the dual basis is indexed like Omega's)
        partner, p = self.omega.ideal_partner, self.p
        image = np.where(partner >= 0, self.ideal.position[partner], -1)
        return _map_of(self.dual, self.ideal, image, dj=2 - 2 * p, dk=2 * p - 2, name="gamma")

    @cached_property
    def kappa(self) -> BimoduleMap:
        # kappa: Omega ->> Theta
        return _map_of(self.reg, self.theta, self.theta.position, name="kappa")

    @cached_property
    def mu(self) -> BimoduleMap:
        # mu = kappa* o lam, Theta^sigma -> Omega*: m -> the form partner of
        # its underlying monomial
        p = self.p
        return _map_of(self.theta_sigma, self.dual,
                       self.omega.theta_partner[self.theta.parent_index],
                       dj=p - 2, dk=-(p - 2), name="mu")

    @cached_property
    def beta(self) -> BimoduleMap:
        # beta: ideal -> ideal* via the complementing form
        p = self.p
        return _map_of(self.ideal, self.ideal_dual,
                       self.ideal.position[self.omega.ideal_partner[self.ideal.parent_index]],
                       dj=2 * (p - 1), dk=-2 * (p - 1), name="beta")

    @cached_property
    def lam(self) -> BimoduleMap:
        # lam: Theta^sigma -> Theta* (self-injectivity)
        p = self.p
        return _map_of(self.theta_sigma, self.theta_dual,
                       self.theta.position[self.omega.theta_partner[self.theta.parent_index]],
                       dj=p - 2, dk=-(p - 2), name="lambda")

    # -- pairings ------------------------------------------------------------

    def _pairing_builders(self) -> dict[str, Callable[[], Pairing]]:
        """The builder of each pairing, by name, in the order they are listed."""
        def sided(name: str, build) -> dict[str, Callable[[], Pairing]]:
            return {f"{name}_{side}": partial(build, side) for side in "lr"}

        builders: dict[str, Callable[[], Pairing]] = {
            "mult": partial(self._action, KIND_OMEGA, "l", "mult")}
        for kind in (KIND_THETA, KIND_THETA_SIGMA, KIND_DUAL, KIND_IDEAL):
            builders |= {f"act_{side}:{kind}": partial(self._action, kind, side) for side in "lr"}
        builders |= sided("mult_incl", self._mult_incl) | {"eta": self._eta}
        builders |= sided("zeta", self._zeta) | {"eps": self._eps}
        for side in "lr":
            builders |= {f"theta_{side}": partial(self._theta, side),
                         f"iota_{side}": partial(self._iota, side)}
        builders |= {f"collapse:{tag}": partial(self._collapse, tag)
                     for tag in ("ss", "sp", "ps", "pp")}
        return builders | sided("nu", self._nu)

    def _action(self, kind: str, side: str, name: str = "") -> Pairing:
        # Omega x X -> X and X x Omega -> X: the action tables themselves
        # (mult is Omega acting on itself); the tables are shared, not copied
        mod, reg, name = self.modules[kind], self.reg, name or f"act_{side}:{kind}"
        if side == "l":
            return Pairing(reg, mod, mod, mod.left, name=name)
        return Pairing(mod, reg, mod, mod.right, name=name)

    def _mult_incl(self, side: str) -> Pairing:
        # Omega x I and I x Omega multiplication landing in the ambient algebra
        # (into the ideal itself they are the action pairings above)
        reg, ideal, pos = self.reg, self.ideal, self.ideal.position
        if side == "l":
            return Pairing(reg, ideal, reg, _restrict(reg.left, self.p, cols=pos),
                           name="mult_incl_l")
        return Pairing(ideal, reg, reg, _restrict(reg.right, self.p, rows=pos), name="mult_incl_r")

    def _eta(self) -> Pairing:
        # eta: I x I -> Omega*,  (u, v) -> gamma^{-1}(u) . v: row f of Omega*
        # is row u = gamma(f*), as gamma is a bijection off its kernel
        gamma = self.gamma.table
        gamma_inv = np.full(self.dual.dim, -1, dtype=np.int64)
        gamma_inv[gamma.x] = gamma.t
        table = _restrict(self.dual.right, self.p, gamma_inv, self.ideal.position)
        return Pairing(self.ideal, self.ideal, self.dual, table, name="eta")

    def _zeta(self, side: str) -> Pairing:
        # zeta_l / zeta_r: ideal acting on Omega*
        ideal, dualm, pos = self.ideal, self.dual, self.ideal.position
        if side == "l":
            return Pairing(ideal, dualm, dualm, _restrict(dualm.left, self.p, rows=pos),
                           name="zeta_l")
        return Pairing(dualm, ideal, dualm, _restrict(dualm.right, self.p, cols=pos),
                       name="zeta_r")

    def _eps(self) -> Pairing:
        # eps: Omega* x Omega* -> Omega*,  (f, g) -> f . gamma(g) = zeta_r(f, gamma(g))
        dualm = self.dual
        table = _compose(self.pairings["zeta_r"].table, self.gamma, self.p, inner=True)
        return Pairing(dualm, dualm, dualm, table, name="eps")

    def _theta(self, side: str) -> Pairing:
        # theta_l / theta_r: Omega x Omega* -> ideal, the action followed by gamma
        reg, dualm, ideal, p = self.reg, self.dual, self.ideal, self.p
        if side == "l":
            return Pairing(reg, dualm, ideal, _compose(dualm.left, self.gamma, p), name="theta_l")
        return Pairing(dualm, reg, ideal, _compose(dualm.right, self.gamma, p), name="theta_r")

    def _iota(self, side: str) -> Pairing:
        # iota_l / iota_r: theta followed by the inclusion alpha
        th = self.pairings[f"theta_{side}"]
        return Pairing(th.x_mod, th.y_mod, self.reg, _compose(th.table, self.alpha, self.p),
                       name=f"iota_{side}")

    @cached_property
    def _theta_mul(self) -> Table:
        # Theta's product: its right action on the monomials of Theta
        return _restrict(self.theta.right, self.p, cols=self.theta.position)

    def _collapse(self, tag: str) -> Pairing:
        # collapse pairings between the preprojective-type components: the
        # product of Theta, where a twisted x reads (m, n) at (m, sigma(n))
        x_sigma, y_sigma = (t == "s" for t in tag)
        theta, ths = self.theta, self.theta_sigma
        x_mod = ths if x_sigma else theta
        y_mod = ths if y_sigma else theta
        z_mod = ths if x_sigma != y_sigma else theta
        sigma = None
        if x_sigma:  # an involution of Theta's basis, so it renumbers (m, sigma(n)) as (m, n)
            sigma = theta.position[self.omega.sigma[theta.parent_index]]
        return Pairing(x_mod, y_mod, z_mod, _restrict(self._theta_mul, self.p, cols=sigma),
                       name=f"collapse:{tag}")

    def _nu(self, side: str) -> Pairing:
        # nu_l: Theta x Theta^sigma -> Omega*; nu_r: Theta^sigma x Theta -> Omega*
        # (odd k-shift through mu, so they carry their factorization for cup)
        base = self.pairings["collapse:ps" if side == "l" else "collapse:sp"]
        return Pairing(base.x_mod, base.y_mod, self.dual, _compose(base.table, self.mu, self.p),
                       name=f"nu_{side}", factor=(base, self.mu))

    # -- consistency checks --------------------------------------------------

    def check_maps(self) -> None:
        for mp in (self.alpha, self.beta, self.gamma, self.kappa, self.lam, self.mu):
            mp.check_intertwines()
            mp.check_degree_shift()
        for mp, want, failure in ((self.beta, self.ideal.dim, "beta is not an isomorphism"),
                                  (self.lam, self.theta.dim, "lambda is not an isomorphism"),
                                  (self.alpha, self.ideal.dim, "alpha is not injective"),
                                  (self.gamma, self.ideal.dim, "gamma is not surjective"),
                                  (self.kappa, self.theta.dim, "kappa is not surjective"),
                                  (self.mu, self.theta.dim, "mu is not injective")):
            m, _, t, c = mp.table  # sorted by m, then t: a COO matrix by column
            if len(coo_pivot_rows(m, t, c, self.p)) != want:
                raise ConstructionFailure(failure)

    def check_bimodules(self) -> None:
        for mod in self.modules.values():
            mod.check_bimodule()

    def check_pairings(self) -> None:
        for pr in self.pairings.values():
            pr.check()

    def _class_products(self, kind1: str, kind2: str, target: str) -> Cochains:
        # through the inner pairing of one that factors, onto its codomain's classes
        via = product_pairing(self, kind1, kind2, target)
        inner, kind = (via.factor[0], KIND_THETA_SIGMA) if via.factor else (via, target)
        hh, models = self.homology, self.models
        return hh[kind].project(cup(models[kind1], hh[kind1].reps, models[kind2], hh[kind2].reps,
                                    inner, models[kind]))

# ---------------------------------------------------------------------------
# grid components and the windowed algebra

@dataclass(frozen=True)
class GridComponent:
    a: int
    b: int
    kind: str   # coefficient kind: which bimodule sits at the slot
    label: str  # spade label: which piece of its class algebra
    jshift: int
    kshift: int

    @property
    def i(self) -> int:
        return self.a + self.b


@lru_cache(maxsize=None)
def component_at(p: int, a: int, b: int) -> GridComponent | None:
    """Kind, label and shifts of the grid slot (a, b), or None if it is vacant."""
    if b == 0:
        if a <= 0:
            return GridComponent(a, b, KIND_OMEGA, CHI, a * p, a * (1 - p))
        if a == 1:
            return GridComponent(a, b, KIND_IDEAL, CHIUNDER, p, 1 - p)
        return GridComponent(a, b, KIND_DUAL, OMEGA0, 2 + (a - 2) * p, (a - 2) * (1 - p))
    if a <= 0 and b <= -1:
        kind, label = ((KIND_THETA_SIGMA, CHIBARSTAR_MINUS) if b % 2
                       else (KIND_THETA, CHIBAR_MINUS))
        return GridComponent(a, b, kind, label, a * p, a * (1 - p))
    if a >= 2 and b >= 1:
        kind, label = ((KIND_THETA, CHIBAR_PLUS) if b % 2
                       else (KIND_THETA_SIGMA, CHIBARSTAR_PLUS))
        return GridComponent(a, b, kind, label, (a - 1) * p, (a - 1) * (1 - p) + 1)
    return None


# The five-part product table: (left kind, right kind, target kind) -> the
# pairing of NaturalMaps that multiplies the components.  A kind pair with no
# entry multiplies to zero through the tensor product over Omega.  The
# collapse pairings are also listed at the theta-type target of the other
# twist, where their codomain is not the target's module; there the product
# is zero, the reason ``verify_first_principles`` calls "degree".
PRODUCT_TABLE: dict[tuple[str, str, str], str] = {
    (KIND_OMEGA, KIND_OMEGA, KIND_OMEGA): "mult",
    (KIND_OMEGA, KIND_IDEAL, KIND_IDEAL): "act_l:omega-ep-omega",
    (KIND_IDEAL, KIND_OMEGA, KIND_IDEAL): "act_r:omega-ep-omega",
    (KIND_OMEGA, KIND_IDEAL, KIND_OMEGA): "mult_incl_l",
    (KIND_IDEAL, KIND_OMEGA, KIND_OMEGA): "mult_incl_r",
    (KIND_OMEGA, KIND_THETA, KIND_THETA): "act_l:theta",
    (KIND_THETA, KIND_OMEGA, KIND_THETA): "act_r:theta",
    (KIND_OMEGA, KIND_THETA_SIGMA, KIND_THETA_SIGMA): "act_l:theta-sigma",
    (KIND_THETA_SIGMA, KIND_OMEGA, KIND_THETA_SIGMA): "act_r:theta-sigma",
    (KIND_OMEGA, KIND_DUAL, KIND_DUAL): "act_l:omega-dual",
    (KIND_DUAL, KIND_OMEGA, KIND_DUAL): "act_r:omega-dual",
    (KIND_OMEGA, KIND_DUAL, KIND_IDEAL): "theta_l",
    (KIND_DUAL, KIND_OMEGA, KIND_IDEAL): "theta_r",
    (KIND_OMEGA, KIND_DUAL, KIND_OMEGA): "iota_l",
    (KIND_DUAL, KIND_OMEGA, KIND_OMEGA): "iota_r",
    (KIND_IDEAL, KIND_IDEAL, KIND_DUAL): "eta",
    (KIND_IDEAL, KIND_DUAL, KIND_DUAL): "zeta_l",
    (KIND_DUAL, KIND_IDEAL, KIND_DUAL): "zeta_r",
    (KIND_DUAL, KIND_DUAL, KIND_DUAL): "eps",
    (KIND_THETA, KIND_THETA, KIND_THETA): "collapse:pp",
    (KIND_THETA, KIND_THETA, KIND_THETA_SIGMA): "collapse:pp",
    (KIND_THETA, KIND_THETA_SIGMA, KIND_THETA_SIGMA): "collapse:ps",
    (KIND_THETA, KIND_THETA_SIGMA, KIND_THETA): "collapse:ps",
    (KIND_THETA_SIGMA, KIND_THETA, KIND_THETA_SIGMA): "collapse:sp",
    (KIND_THETA_SIGMA, KIND_THETA, KIND_THETA): "collapse:sp",
    (KIND_THETA_SIGMA, KIND_THETA_SIGMA, KIND_THETA): "collapse:ss",
    (KIND_THETA_SIGMA, KIND_THETA_SIGMA, KIND_THETA_SIGMA): "collapse:ss",
    (KIND_THETA, KIND_THETA_SIGMA, KIND_DUAL): "nu_l",
    (KIND_THETA_SIGMA, KIND_THETA, KIND_DUAL): "nu_r",
}


def product_pairing(maps: NaturalMaps, kind1: str, kind2: str, target: str) -> Pairing | None:
    """PRODUCT_TABLE's pairing of a kind1 and a kind2 component into a target-kind
    one, or None, a zero product, when it has none or its codomain is not the target's."""
    name = PRODUCT_TABLE.get((kind1, kind2, target))
    pairing = maps.pairings[name] if name else None
    return pairing if pairing and pairing.z_mod is maps.modules[target] else None


class ClubWindow:
    """Realized grid components of rows i_min..i_max with their product; the
    basis is each component's module basis in turn, by slot (a, b)."""

    def __init__(self, maps: NaturalMaps, i_min: int, i_max: int):
        if not (i_min <= 0 and 1 <= i_max):
            raise WindowTooSmall("window must contain rows 0 and 1")
        self.p = maps.p
        self.maps = maps
        self.i_min, self.i_max = i_min, i_max
        self.components: dict[tuple[int, int], GridComponent] = {}
        for row in range(i_min, i_max + 1):
            # component_at is vacant outside min(row, 0) <= a <= max(row, 1)
            for a in range(min(row, 0), max(row, 1) + 1):
                comp = component_at(self.p, a, row - a)
                if comp is not None:
                    self.components[(a, row - a)] = comp

    def _pairing(self, comp1: GridComponent, comp2: GridComponent) -> Pairing | OutOfWindow | None:
        """The ``product_pairing`` of two components into the slot (a1 + a2,
        b1 + b2); None when their product is zero, OUT_OF_WINDOW when
        PRODUCT_TABLE has a pairing but the slot lies outside the window."""
        target = component_at(self.p, comp1.a + comp2.a, comp1.b + comp2.b)
        if target is None or (comp1.kind, comp2.kind, target.kind) not in PRODUCT_TABLE:
            return None
        if (target.a, target.b) not in self.components:
            return OUT_OF_WINDOW
        return product_pairing(self.maps, comp1.kind, comp2.kind, target.kind)

    def product_table(self) -> WindowTable:
        """The products of the window's basis as a ``quiver.WindowTable``: per
        ordered pair of components, the terms of its pairing's table with x,
        y and t moved past the elements of the components before the two
        factors and the target; a pair whose product leaves the window has
        all of its element pairs out."""
        dim = {key: self.maps.modules[comp.kind].dim for key, comp in self.components.items()}
        first, n = {}, 0
        for key in sorted(dim):
            first[key], n = n, n + dim[key]
        terms, out = [], []
        for (a1, b1), comp1 in self.components.items():
            for (a2, b2), comp2 in self.components.items():
                pairing = self._pairing(comp1, comp2)
                if pairing is OUT_OF_WINDOW:
                    u, v = np.divmod(np.arange(dim[a1, b1] * dim[a2, b2]), dim[a2, b2])
                    out.append((first[a1, b1] + u, first[a2, b2] + v))
                elif pairing is not None:
                    x, y, t, c = pairing.table
                    terms.append((first[a1, b1] + x, first[a2, b2] + y,
                                  first[a1 + a2, b1 + b2] + t, c))
        return window_table(n, terms, out, self.p)

    def symmetry_form(self, i: int) -> dict:
        """Bilinear forms row -i x row i+2 -> F through the top-left dual slot.

        Returns {(slotA, slotB): (form, d1, d2)} for the component pairs whose
        product lands at (2, 0).  The form holds its value on (u, v) at
        (u, v, 0): the sum of the coefficients of u v on the idempotent duals,
        its socle coordinates, which are Omega's idempotents as the dual basis
        is indexed like Omega's.  Raises WindowTooSmall when row -i, i+2 or 2
        lies outside the window.
        """
        missing = [row for row in (-i, i + 2, 2) if not self.i_min <= row <= self.i_max]
        if missing:
            raise WindowTooSmall(f"the form of row {-i} needs rows {missing} of the window")
        socle = np.array(list(self.maps.omega.idem.values()), dtype=np.int64)
        out = {}
        for (a1, b1) in sorted(key for key in self.components if sum(key) == -i):
            # row i + 2 holds the partner slot, and each such pair has a
            # pairing into the dual slot (2, 0)
            comp1, comp2 = self.components[a1, b1], self.components[2 - a1, -b1]
            x, y, t, c = self._pairing(comp1, comp2).table
            keep = np.isin(t, socle)
            out[((a1, b1), (2 - a1, -b1))] = (
                Table.of(x[keep], y[keep], np.zeros_like(t[keep]), c[keep], self.p),
                *(self.maps.modules[comp.kind].dim for comp in (comp1, comp2)))
        return out
