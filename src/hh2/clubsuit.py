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

from dataclasses import dataclass

from . import Hh2Error, quiver
from .exactlin import rank, sparse_rank, zeros
from .koszulhh import (KIND_DUAL, KIND_IDEAL, KIND_OMEGA, KIND_THETA,
                       KIND_THETA_SIGMA, Pairing)
from .quiver import (BasedBimodule, BimoduleMap, Combo, OmegaAlgebra,
                     combo_add, tensor_over)

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


class _ClubOut:
    """Marker target for window-truncated products."""

    def __repr__(self):
        return "CLUB_OUT"


CLUB_OUT = _ClubOut()


def ideal_partner(omega: OmegaAlgebra, idx: int) -> int:
    """beta-partner inside the ideal: complement the down/up counts to p-1."""
    src, a, b = omega.data(idx)
    left = src - a + b
    return omega.key[(left, omega.p - 1 - a, omega.p - 1 - b)]


def theta_partner(omega: OmegaAlgebra, idx: int) -> int:
    """Form partner of a non-ideal monomial: paths compose to the socle."""
    src, a, b = omega.data(idx)
    left = src - a + b
    p = omega.p
    return omega.key[(left, src - 1 - a, p - 1 - b - src)]


class NaturalMaps:
    """Bimodules and all natural maps/pairings for one prime p."""

    def __init__(self, p: int):
        self.p = p
        self.c = quiver.build_zigzag_c(p)
        self.omega = quiver.build_omega(p)
        om = self.omega
        self.reg = quiver.regular_bimodule(om)
        self.theta = quiver.quotient_theta(om)
        self.theta_sigma = quiver.twist_sigma(self.theta)
        self.dual = quiver.dual(self.reg)
        self.ideal = quiver.sub_ideal_epep(om)
        self.modules = {
            KIND_OMEGA: self.reg,
            KIND_THETA: self.theta,
            KIND_THETA_SIGMA: self.theta_sigma,
            KIND_DUAL: self.dual,
            KIND_IDEAL: self.ideal,
        }
        self._build_maps()
        self._build_pairings()

    # -- linear maps ---------------------------------------------------------

    def _build_maps(self) -> None:
        om, p = self.omega, self.p
        ideal, reg, dualm = self.ideal, self.reg, self.dual
        theta, ths = self.theta, self.theta_sigma

        # alpha: ideal -> Omega (inclusion)
        cols = [{ideal.parent_index[m]: 1} for m in range(ideal.dim)]
        self.alpha = BimoduleMap(ideal, reg, cols, name="alpha")

        # beta: ideal -> ideal* via the complementing form
        ideal_dual = quiver.dual(ideal)
        pos_in_ideal = {old: new for new, old in enumerate(ideal.parent_index)}
        cols = []
        for m in range(ideal.dim):
            partner = ideal_partner(om, ideal.parent_index[m])
            cols.append({pos_in_ideal[partner]: 1})
        self.ideal_dual = ideal_dual
        self.beta = BimoduleMap(ideal, ideal_dual, cols,
                                dj=2 * (p - 1), dk=-2 * (p - 1), name="beta")

        # gamma: Omega* ->> ideal,  m* -> beta-partner(m) for ideal monomials
        cols = []
        for f in range(dualm.dim):
            m = f  # dual basis is indexed like Omega's
            if om.in_ideal(m):
                cols.append({pos_in_ideal[ideal_partner(om, m)]: 1})
            else:
                cols.append({})
        self.gamma = BimoduleMap(dualm, ideal, cols,
                                 dj=2 - 2 * p, dk=2 * p - 2, name="gamma")

        # kappa: Omega ->> Theta
        pos_in_theta = {old: new for new, old in enumerate(theta.parent_index)}
        cols = []
        for m in range(reg.dim):
            cols.append({pos_in_theta[m]: 1} if m in pos_in_theta else {})
        self.kappa = BimoduleMap(reg, theta, cols, name="kappa")

        # lam: Theta^sigma -> Theta* (self-injectivity) and mu = kappa* o lam
        theta_dual = quiver.dual(theta)
        cols = []
        for m in range(ths.dim):
            m_omega = theta.parent_index[m]  # underlying monomial
            partner = theta_partner(om, m_omega)
            cols.append({pos_in_theta[partner]: 1})
        self.theta_dual = theta_dual
        self.lam = BimoduleMap(ths, theta_dual, cols,
                               dj=p - 2, dk=-(p - 2), name="lambda")

        # mu: Theta^sigma -> Omega*, m -> (Omega-monomial of the form partner)*
        cols = []
        for m in range(ths.dim):
            m_omega = theta.parent_index[m]
            partner = theta_partner(om, m_omega)
            cols.append({partner: 1})
        self.mu = BimoduleMap(ths, dualm, cols, dj=p - 2, dk=-(p - 2), name="mu")

    # -- pairings ------------------------------------------------------------

    def _action_pairing(self, x_mod: BasedBimodule, side: str,
                        other: BasedBimodule, name: str) -> Pairing:
        table: dict[tuple[int, int], Combo] = {}
        if side == "left":  # Omega x X -> X through the regular bimodule index
            for (a, m), prod in x_mod.left.items():
                table[(a, m)] = dict(prod)
            return Pairing(other, x_mod, x_mod, table, name=name)
        for (m, a), prod in x_mod.right.items():
            table[(m, a)] = dict(prod)
        return Pairing(x_mod, other, x_mod, table, name=name)

    def _build_pairings(self) -> None:
        om, p = self.omega, self.p
        reg, ideal, dualm = self.reg, self.ideal, self.dual
        theta, ths = self.theta, self.theta_sigma

        self.pairings: dict[str, Pairing] = {}

        def put(pr: Pairing) -> None:
            self.pairings[pr.name] = pr

        put(Pairing(reg, reg, reg, {k: dict(v) for k, v in om.products.items()}, name="mult"))
        for kind, mod in self.modules.items():
            if kind == KIND_OMEGA:
                continue
            put(self._action_pairing(mod, "left", reg, f"act_l:{kind}"))
            put(self._action_pairing(mod, "right", reg, f"act_r:{kind}"))

        # Omega x I and I x Omega multiplication landing in the ambient algebra
        # (into the ideal itself they are the action pairings above)
        table: dict[tuple[int, int], Combo] = {}
        for a in range(reg.dim):
            for m in range(ideal.dim):
                prod = om.mul_basis(a, ideal.parent_index[m])
                if prod:
                    table[(a, m)] = dict(prod)
        put(Pairing(reg, ideal, reg, table, name="mult_incl_l"))
        table = {}
        for m in range(ideal.dim):
            for a in range(reg.dim):
                prod = om.mul_basis(ideal.parent_index[m], a)
                if prod:
                    table[(m, a)] = dict(prod)
        put(Pairing(ideal, reg, reg, table, name="mult_incl_r"))

        # eta: I x I -> Omega*,  (u, v) -> gamma^{-1}(u) . v
        table = {}
        for u in range(ideal.dim):
            f = ideal_partner(om, ideal.parent_index[u])  # gamma(f*) = u
            for v in range(ideal.dim):
                prod = dualm.right.get((f, ideal.parent_index[v]), {})
                if prod:
                    table[(u, v)] = dict(prod)
        put(Pairing(ideal, ideal, dualm, table, name="eta"))

        # zeta_l / zeta_r: ideal acting on Omega*
        table = {}
        for u in range(ideal.dim):
            for f in range(dualm.dim):
                prod = dualm.left.get((ideal.parent_index[u], f), {})
                if prod:
                    table[(u, f)] = dict(prod)
        put(Pairing(ideal, dualm, dualm, table, name="zeta_l"))
        table = {}
        for f in range(dualm.dim):
            for u in range(ideal.dim):
                prod = dualm.right.get((f, ideal.parent_index[u]), {})
                if prod:
                    table[(f, u)] = dict(prod)
        put(Pairing(dualm, ideal, dualm, table, name="zeta_r"))

        # eps: Omega* x Omega* -> Omega*,  (f, g) -> f . gamma(g)
        table = {}
        for f in range(dualm.dim):
            for g in range(dualm.dim):
                gg = self.gamma.columns[g]
                out: Combo = {}
                for tgt, c in gg.items():
                    combo_add(out, dualm.right.get((f, ideal.parent_index[tgt]), {}), c, p)
                if out:
                    table[(f, g)] = out
        put(Pairing(dualm, dualm, dualm, table, name="eps"))

        # theta_l / theta_r: Omega x Omega* -> ideal via gamma, iota via alpha
        table = {}
        t_iota: dict[tuple[int, int], Combo] = {}
        for a in range(reg.dim):
            for f in range(dualm.dim):
                af = dualm.left.get((a, f), {})
                out = {}
                for tgt, c in af.items():
                    combo_add(out, self.gamma.columns[tgt], c, p)
                if out:
                    table[(a, f)] = out
                    t_iota[(a, f)] = self.alpha.apply(out)
        put(Pairing(reg, dualm, ideal, table, name="theta_l"))
        put(Pairing(reg, dualm, reg, t_iota, name="iota_l"))
        table = {}
        t_iota = {}
        for f in range(dualm.dim):
            for a in range(reg.dim):
                fa = dualm.right.get((f, a), {})
                out = {}
                for tgt, c in fa.items():
                    combo_add(out, self.gamma.columns[tgt], c, p)
                if out:
                    table[(f, a)] = out
                    t_iota[(f, a)] = self.alpha.apply(out)
        put(Pairing(dualm, reg, ideal, table, name="theta_r"))
        put(Pairing(dualm, reg, reg, t_iota, name="iota_r"))

        # collapse pairings between the preprojective-type components
        def sigma_idx(m_omega: int) -> int:
            return quiver.theta_sigma_index(om, m_omega)

        theta_alg_mul = {}
        pos_in_theta = {old: new for new, old in enumerate(theta.parent_index)}
        for i_new, i_old in enumerate(theta.parent_index):
            for j_new, j_old in enumerate(theta.parent_index):
                prod = om.mul_basis(i_old, j_old)
                mapped = {pos_in_theta[i]: c for i, c in prod.items() if i in pos_in_theta}
                if mapped:
                    theta_alg_mul[(i_new, j_new)] = mapped

        def collapse(x_sigma: bool, y_sigma: bool) -> Pairing:
            x_mod = ths if x_sigma else theta
            y_mod = ths if y_sigma else theta
            z_mod = ths if (x_sigma != y_sigma) else theta
            table: dict[tuple[int, int], Combo] = {}
            for m in range(theta.dim):
                m_omega = theta.parent_index[m]
                for n in range(theta.dim):
                    n_omega = theta.parent_index[n]
                    nn = sigma_idx(n_omega) if x_sigma else n_omega
                    nn_new = pos_in_theta.get(nn)
                    if nn_new is None:
                        continue
                    prod = theta_alg_mul.get((m, nn_new))
                    if prod:
                        table[(m, n)] = dict(prod)
            tag = f"collapse:{'s' if x_sigma else 'p'}{'s' if y_sigma else 'p'}"
            return Pairing(x_mod, y_mod, z_mod, table, name=tag)

        put(collapse(True, True))
        put(collapse(True, False))
        put(collapse(False, True))
        put(collapse(False, False))

        # nu_l: Theta x Theta^sigma -> Omega*; nu_r: Theta^sigma x Theta -> Omega*
        # (odd k-shift through mu, so they carry their factorization for cup)
        for tag, inner in (("nu_l", "collapse:ps"), ("nu_r", "collapse:sp")):
            base = self.pairings[inner]
            table = {}
            for key, prod in base.table.items():
                out: Combo = {}
                for tgt, c in prod.items():
                    combo_add(out, self.mu.columns[tgt], c, p)
                if out:
                    table[key] = out
            put(Pairing(base.x_mod, base.y_mod, dualm, table, name=tag,
                        factor=(base, self.mu)))

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
            if sparse_rank(mp.columns, self.p) != want:
                raise ConstructionFailure(failure)

    def check_bimodules(self) -> None:
        for mod in self.modules.values():
            mod.check_bimodule()

    def check_pairings(self) -> None:
        for pr in self.pairings.values():
            pr.check()

    def pairing_rank_on_tensor(self, name: str) -> tuple[int, int]:
        """Rank of the induced map (X (x)_Omega Y) -> Z for a pairing."""
        pr = self.pairings[name]
        tp = tensor_over(pr.x_mod, pr.y_mod)
        mat = zeros(pr.z_mod.dim, tp.dim)
        for col, c in enumerate(tp.free):
            i, j = tp.pairs[c]
            for row, coeff in pr.apply(i, j).items():
                mat[row, col] = coeff
        return rank(mat, self.p), tp.dim


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
# twist, where their codomain is not the target's module; the club window
# meets those products only outside its rows and reports them as truncated.
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


class ClubWindow:
    """Realized grid components over a finite (a, b) range with their product."""

    def __init__(self, p: int, i_min: int, i_max: int, maps: NaturalMaps | None = None):
        if not (i_min <= 0 and 1 <= i_max):
            raise WindowTooSmall("window must contain rows 0 and 1")
        self.p = p
        self.maps = maps or NaturalMaps(p)
        self.components: dict[tuple[int, int], GridComponent] = {}
        self.i_min, self.i_max = i_min, i_max
        for i in range(i_min, i_max + 1):
            self.extend_to_row(i)

    def module_of(self, comp: GridComponent) -> BasedBimodule:
        return self.maps.modules[comp.kind]

    def basis(self) -> list[tuple[GridComponent, int]]:
        out = []
        for key in sorted(self.components):
            comp = self.components[key]
            mod = self.module_of(comp)
            out.extend((comp, m) for m in range(mod.dim))
        return out

    def total_degree(self, comp: GridComponent, idx: int) -> tuple[int, int, int]:
        b = self.module_of(comp).basis[idx]
        return comp.i, b.j + comp.jshift, b.k + comp.kshift

    def product(self, comp1: GridComponent, m1: int, comp2: GridComponent, m2: int):
        """Product of two window elements.

        Returns (target, combo); (None, {}) is a genuine zero, while a target
        slot outside the window gives (CLUB_OUT, None).
        """
        a, b = comp1.a + comp2.a, comp1.b + comp2.b
        target = component_at(self.p, a, b)
        if target is None:
            return None, {}
        name = PRODUCT_TABLE.get((comp1.kind, comp2.kind, target.kind))
        if name is None:
            return None, {}
        if (a, b) not in self.components:
            return CLUB_OUT, None
        return target, self.maps.pairings[name].apply(m1, m2)

    def socle_evaluation(self, combo) -> int:
        """Sum of the coefficients on idempotent duals of a dual-algebra element."""
        total = 0
        dualm = self.maps.dual
        for idx, c in combo.items():
            if dualm.basis[idx].name.startswith("e") and dualm.basis[idx].j == 0:
                total = (total + c) % self.p
        return total

    def extend_to_row(self, row: int) -> None:
        """Add all grid slots of a row to the window."""
        # component_at is vacant outside min(row, 0) <= a <= max(row, 1)
        for a in range(min(row, 0), max(row, 1) + 1):
            comp = component_at(self.p, a, row - a)
            if comp is not None and (a, row - a) not in self.components:
                self.components[(a, row - a)] = comp
        self.i_min = min(self.i_min, row)
        self.i_max = max(self.i_max, row)

    def symmetry_form(self, i: int):
        """Bilinear forms row -i x row i+2 -> F through the top-left dual slot.

        Returns {(slotA, slotB): matrix-as-dict} for the component pairs whose
        product lands at (2, 0); each form is evaluated by projecting onto the
        socle coordinates of the dual component there.  The window is extended
        automatically when a requested row is missing.
        """
        self.extend_to_row(-i)
        self.extend_to_row(i + 2)
        self.extend_to_row(2)
        out = {}
        row_lo = [(a, b) for (a, b) in self.components if a + b == -i]
        row_hi = [(a, b) for (a, b) in self.components if a + b == i + 2]
        for (a1, b1) in sorted(row_lo):
            for (a2, b2) in sorted(row_hi):
                if (a1 + a2, b1 + b2) != (2, 0):
                    continue
                c1 = self.components[(a1, b1)]
                c2 = self.components[(a2, b2)]
                m1d = self.module_of(c1).dim
                m2d = self.module_of(c2).dim
                mat = {}
                for u in range(m1d):
                    for v in range(m2d):
                        tgt, prod = self.product(c1, u, c2, v)
                        val = self.socle_evaluation(prod) if tgt is not None else 0
                        if val:
                            mat[(u, v)] = val
                out[((a1, b1), (a2, b2))] = (mat, m1d, m2d)
        return out


def build_club_window(p: int, i_min: int, i_max: int,
                      maps: NaturalMaps | None = None) -> ClubWindow:
    return ClubWindow(p, i_min, i_max, maps=maps)
