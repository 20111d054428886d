"""The builders of NaturalMaps and of the quiver modules against dict loops.

``NaturalMaps`` builds each pairing when it is first read, and every table
here is a ``quiver.Table`` made by array operations: Omega from its closed
form, the modules by masks, renumberings and swaps, the pairings by masks
and joins.  Two generations of references are kept in this file with their
bodies verbatim: the loops over every pair of basis elements, and the dict
builders that walked nonempty products only.  Each table is compared with
them as a dict of combos (``as_dict``): with the first at p = 3, 5 and 7,
with the second at p = 3, 5, 7 and 11, where every table is also checked to
meet the ``Table`` contract.  The laziness of ``NaturalMaps``' modules, maps
and pairings is tested at the end.
"""

import copy
import functools
import types

import numpy as np
import pytest

from hh2 import quiver
from hh2.cli import COEFFS
from hh2.clubsuit import NaturalMaps
from hh2.koszulhh import KIND_OMEGA, Pairing
from hh2.quiver import (BasedBimodule, BasisElement, BimoduleMap, Combo, IncompatibleAlgebras,
                        OmegaAlgebra, combo_add, table_of)
from tables import (as_dict, columned, data_of, ideal_partner, in_ideal, theta_sigma_index,
                    word)

PRIMES = (3, 5, 7)

# the 25 pairings in the order NaturalMaps lists them
NAMES = ["mult",
         "act_l:theta", "act_r:theta", "act_l:theta-sigma", "act_r:theta-sigma",
         "act_l:omega-dual", "act_r:omega-dual",
         "act_l:omega-ep-omega", "act_r:omega-ep-omega",
         "mult_incl_l", "mult_incl_r", "eta", "zeta_l", "zeta_r", "eps",
         "theta_l", "iota_l", "theta_r", "iota_r",
         "collapse:ss", "collapse:sp", "collapse:ps", "collapse:pp", "nu_l", "nu_r"]

# -- the dense builders, as they stood before the sparse walks ---------------
# (verbatim bodies: the methods take their object as ``self``, and the loops
# that sat inside a constructor are wrapped in a function of the names they
# read; a walk over all entries of a table reads it through ``as_dict``; the
# maps come as ``columned`` reads them, and Omega's per-index helpers, which
# left the package, from ``tables``)


def dense_action_pairing(self, x_mod: BasedBimodule, side: str,
                         other: BasedBimodule, name: str) -> Pairing:
    table: dict[tuple[int, int], Combo] = {}
    if side == "left":  # Omega x X -> X through the regular bimodule index
        for (a, m), prod in as_dict(x_mod.left).items():
            table[(a, m)] = dict(prod)
        return Pairing(other, x_mod, x_mod, table, name=name)
    for (m, a), prod in as_dict(x_mod.right).items():
        table[(m, a)] = dict(prod)
    return Pairing(x_mod, other, x_mod, table, name=name)


def dense_build_pairings(self) -> None:
    om, p = self.omega, self.p
    reg, ideal, dualm = self.reg, self.ideal, self.dual
    theta, ths = self.theta, self.theta_sigma

    self.pairings: dict[str, Pairing] = {}

    def put(pr: Pairing) -> None:
        self.pairings[pr.name] = pr

    put(Pairing(reg, reg, reg, {k: dict(v) for k, v in as_dict(om.products).items()}, name="mult"))
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
        return theta_sigma_index(om, m_omega)

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


def dense_omega_products(self, basis, key):
    products: dict[tuple[int, int], Combo] = {}
    for i, bi in enumerate(basis):
        si, ai, bbi = data_of(bi)
        for jdx, bj in enumerate(basis):
            sj, aj, bbj = data_of(bj)
            if bi.right != bj.left:
                continue
            a, b = ai + aj, bbi + bbj
            if sj - a >= 1:
                products[(i, jdx)] = {key[(sj, a, b)]: 1}
    return products


def dense_sub_bimodule(omega: OmegaAlgebra, keep: list[int], name: str) -> BasedBimodule:
    reindex = {old: new for new, old in enumerate(keep)}
    basis = [omega.basis[i] for i in keep]
    left: dict[tuple[int, int], Combo] = {}
    right: dict[tuple[int, int], Combo] = {}
    for new, old in enumerate(keep):
        for a in range(omega.dim):
            prod = omega.mul_basis(a, old)
            if prod:
                mapped = {reindex[i]: c for i, c in prod.items() if i in reindex}
                if mapped:
                    left[(a, new)] = mapped
            prod = omega.mul_basis(old, a)
            if prod:
                mapped = {reindex[i]: c for i, c in prod.items() if i in reindex}
                if mapped:
                    right[(new, a)] = mapped
    return BasedBimodule(omega, basis, left, right, name=name)


def dense_theta_products(omega, keep, reindex):
    products: dict[tuple[int, int], Combo] = {}
    for i_new, i_old in enumerate(keep):
        for j_new, j_old in enumerate(keep):
            prod = omega.mul_basis(i_old, j_old)
            mapped = {reindex[i]: c for i, c in prod.items() if i in reindex}
            if mapped:
                products[(i_new, j_new)] = mapped
    return products


def dense_twist_sigma(mod: BasedBimodule) -> BasedBimodule:
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
        if not in_ideal(omega, i):
            src, a, b = word(omega, i)
            tgt = src - a + b
            if tgt != p and src != p:
                sigma_of[i] = omega.key[(p - src, b, a)]
    right: dict[tuple[int, int], Combo] = {}
    for m in range(mod.dim):
        for a in range(omega.dim):
            if a in sigma_of:
                prod = mod.right.get((m, sigma_of[a]))
                if prod:
                    right[(m, a)] = dict(prod)
    new_name = mod.name[:-5] if mod.name.endswith("Sigma") else mod.name + "Sigma"
    new = BasedBimodule(omega, basis, {k: dict(v) for k, v in as_dict(mod.left).items()}, right,
                        name=new_name)
    if hasattr(mod, "parent_index"):
        new.parent_index = mod.parent_index
    return new


def dense_pairings(nm: NaturalMaps) -> dict[str, Pairing]:
    """Every pairing of nm, built eagerly by the dense builders."""
    self = types.SimpleNamespace(
        **{name: getattr(nm, name) for name in
           ("p", "omega", "reg", "ideal", "dual", "theta", "theta_sigma", "modules")},
        **{name: columned(getattr(nm, name)) for name in ("alpha", "gamma", "mu")})
    self._action_pairing = functools.partial(dense_action_pairing, self)
    dense_build_pairings(self)
    return self.pairings


@pytest.fixture(scope="module", params=PRIMES)
def maps(request):
    return NaturalMaps(request.param)


def test_pairings_match_dense_builders(maps):
    ref = dense_pairings(maps)
    assert list(ref) == NAMES
    for name in NAMES:
        got, want = maps.pairings[name], ref[name]
        assert got.name == name
        assert as_dict(got.table) == want.table, name
        assert (got.x_mod, got.y_mod, got.z_mod) == (want.x_mod, want.y_mod, want.z_mod), name
    for name, inner in (("nu_l", "collapse:ps"), ("nu_r", "collapse:sp")):
        base, mu = maps.pairings[name].factor
        assert base is maps.pairings[inner] and mu is maps.mu
        assert ref[name].factor[0].table == as_dict(base.table)


def test_omega_products_match_dense_loop(maps):
    om = maps.omega
    assert as_dict(om.products) == dense_omega_products(om, om.basis, om.key)


def test_sub_bimodules_match_dense_loop(maps):
    om = maps.omega
    for mod in (maps.ideal, maps.theta):
        ref = dense_sub_bimodule(om, mod.parent_index, mod.name)
        assert as_dict(mod.left) == ref.left, mod.name
        assert as_dict(mod.right) == ref.right, mod.name


def test_twist_sigma_matches_dense_loop(maps):
    ref = dense_twist_sigma(maps.theta)
    assert as_dict(maps.theta_sigma.right) == ref.right
    assert as_dict(maps.theta_sigma.left) == ref.left


def test_theta_products_match_dense_loop(maps):
    om = maps.omega
    keep = maps.theta.parent_index
    reindex = {old: new for new, old in enumerate(keep)}
    ref = dense_theta_products(om, keep, reindex)
    assert as_dict(maps._theta_mul) == ref


# -- the dict builders, as they stood before the array tables ------------------
# (verbatim bodies; each reads and writes dicts of combos, the Omega product
# loop sat inside ``OmegaAlgebra.__init__`` and is wrapped in a function of
# the names it read; maps and Omega's per-index helpers as above)


def walked_omega_products(self, basis, key):
    # the partners of i are the monomials that end where i starts
    data = [data_of(b) for b in basis]
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
    return products


def dict_sub_bimodule(omega: OmegaAlgebra, keep: list[int], name: str) -> BasedBimodule:
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


def dict_twist_sigma(mod: BasedBimodule) -> BasedBimodule:
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
        if not in_ideal(omega, i):
            src, a, b = word(omega, i)
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


def dict_dual(mod: BasedBimodule) -> BasedBimodule:
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


def dict_restrict(table, rows: dict[int, int] | None = None,
                  cols: dict[int, int] | None = None):
    out = {}
    for (x, y), prod in table.items():
        if prod and (rows is None or x in rows) and (cols is None or y in cols):
            out[(x if rows is None else rows[x], y if cols is None else cols[y])] = prod
    return out


def dict_compose(table, mp: BimoduleMap, p: int, inner: bool = False):
    out = {}
    if inner:
        preimages: dict[int, list[tuple[int, int]]] = {}
        for g, col in enumerate(mp.columns):
            for u, c in col.items():
                preimages.setdefault(u, []).append((g, c))
        for (x, u), prod in table.items():
            for g, c in preimages.get(u, ()):
                combo_add(out.setdefault((x, g), {}), prod, c, p)
    else:
        for key, prod in table.items():
            acc = out[key] = {}
            for t, c in prod.items():
                combo_add(acc, mp.columns[t], c, p)
    return {key: combo for key, combo in out.items() if combo}


def dict_modules(nm: NaturalMaps) -> dict[str, BasedBimodule]:
    """The seven bimodules of nm, built by the dict builders from the walked
    Omega products: a copy of nm.omega whose products are that dict."""
    om = copy.copy(nm.omega)
    om.products = om._slot_products = walked_omega_products(om, om.basis, om.key)
    reg = BasedBimodule(om, list(om.basis), om.products, om.products, name="Omega")
    ideal = dict_sub_bimodule(om, nm.ideal.parent_index, "OmegaEpOmega")
    theta = dict_sub_bimodule(om, nm.theta.parent_index, "Theta")
    theta.parent_index = nm.theta.parent_index
    return {"reg": reg, "theta": theta, "theta_sigma": dict_twist_sigma(theta),
            "dual": dict_dual(reg), "ideal": ideal, "ideal_dual": dict_dual(ideal),
            "theta_dual": dict_dual(theta)}


def dict_pairings(nm: NaturalMaps, mods: dict[str, BasedBimodule]) -> dict[str, dict]:
    """The table of every pairing of nm, as ``NaturalMaps`` built it from the
    dict modules with the dict ``_restrict`` and ``_compose``."""
    p, reg, dualm, theta = nm.p, mods["reg"], mods["dual"], mods["theta"]
    pos_i, pos_t = ({m: n for n, m in enumerate(mod.parent_index)} for mod in (nm.ideal, nm.theta))
    tables = {"mult": reg.left}
    for kind, key in (("theta", "theta"), ("theta-sigma", "theta_sigma"),
                      ("omega-dual", "dual"), ("omega-ep-omega", "ideal")):
        tables |= {f"act_l:{kind}": mods[key].left, f"act_r:{kind}": mods[key].right}
    gamma_inv = {ideal_partner(nm.omega, m): u for u, m in enumerate(nm.ideal.parent_index)}
    tables |= {"mult_incl_l": dict_restrict(reg.left, cols=pos_i),
               "mult_incl_r": dict_restrict(reg.right, rows=pos_i),
               "eta": dict_restrict(dualm.right, gamma_inv, pos_i),
               "zeta_l": dict_restrict(dualm.left, rows=pos_i),
               "zeta_r": dict_restrict(dualm.right, cols=pos_i)}
    gamma, alpha, mu = (columned(mp) for mp in (nm.gamma, nm.alpha, nm.mu))
    tables["eps"] = dict_compose(tables["zeta_r"], gamma, p, inner=True)
    for side in "lr":
        tables[f"theta_{side}"] = dict_compose(getattr(dualm, "left" if side == "l" else "right"),
                                               gamma, p)
        tables[f"iota_{side}"] = dict_compose(tables[f"theta_{side}"], alpha, p)
    theta_mul = dict_restrict(theta.right, cols=pos_t)
    sigma = {n: pos_t[theta_sigma_index(nm.omega, m)]
             for n, m in enumerate(theta.parent_index)}
    for tag in ("ss", "sp", "ps", "pp"):
        tables[f"collapse:{tag}"] = dict_restrict(theta_mul, cols=sigma if tag[0] == "s" else None)
    tables["nu_l"] = dict_compose(tables["collapse:ps"], mu, p)
    tables["nu_r"] = dict_compose(tables["collapse:sp"], mu, p)
    return tables


@pytest.fixture(scope="module", params=PRIMES + (11,))
def maps_to_11(request):
    return NaturalMaps(request.param)


def test_tables_match_dict_builders(maps_to_11):
    nm = maps_to_11
    mods = dict_modules(nm)
    assert as_dict(nm.omega.products) == mods["reg"].left
    for name, ref in mods.items():
        got = getattr(nm, name)
        assert as_dict(got.left) == ref.left, name
        assert as_dict(got.right) == ref.right, name
    ref = dict_pairings(nm, mods)
    assert list(ref) == NAMES == list(nm.pairings)
    for name in NAMES:
        assert as_dict(nm.pairings[name].table) == ref[name], name


def meets_contract(table, p: int, rows: int, cols: int, dim: int) -> bool:
    """Whether table is a ``Table`` of int64 arrays, sorted by (x, y, t),
    with one term per (x, y, t), indices below rows, cols and dim and every
    coefficient in [1, p)."""
    x, y, t, c = table
    if not all(a.dtype == np.int64 and a.shape == x.shape for a in (x, y, t, c)):
        return False
    key = (x * cols + y) * dim + t
    return (bool(np.all(np.diff(key) > 0)) and bool(np.all((c >= 1) & (c < p)))
            and all(bool(np.all((a >= 0) & (a < n))) for a, n in ((x, rows), (y, cols), (t, dim))))


def test_every_table_meets_the_contract(maps_to_11):
    nm = maps_to_11
    p, om = nm.p, nm.omega
    assert meets_contract(nm.c.products, p, nm.c.dim, nm.c.dim, nm.c.dim)
    assert meets_contract(om.products, p, om.dim, om.dim, om.dim)
    for name in ("reg", "theta", "theta_sigma", "dual", "ideal", "ideal_dual", "theta_dual"):
        mod = getattr(nm, name)
        assert meets_contract(mod.left, p, om.dim, mod.dim, mod.dim), name
        assert meets_contract(mod.right, p, mod.dim, om.dim, mod.dim), name
    for name in NAMES:
        pr = nm.pairings[name]
        assert meets_contract(pr.table, p, pr.x_mod.dim, pr.y_mod.dim, pr.z_mod.dim), name
    for mp in (nm.alpha, nm.beta, nm.gamma, nm.kappa, nm.lam, nm.mu):
        assert meets_contract(mp.table, p, mp.source.dim, 1, mp.target.dim), mp.name


# -- laziness ----------------------------------------------------------------

def test_reading_one_pairing_builds_only_that_one():
    nm = NaturalMaps(5)
    assert nm.pairings.built() == []
    mult = nm.pairings["mult"]
    assert nm.pairings.built() == ["mult"]
    assert nm.pairings["mult"] is mult
    # the names are all known without building any of them
    assert len(nm.pairings) == 25
    assert list(nm.pairings) == NAMES
    assert list(nm.pairings.keys()) == NAMES
    assert all(name in nm.pairings for name in NAMES)
    assert "no such pairing" not in nm.pairings
    assert nm.pairings.built() == ["mult"]
    with pytest.raises(KeyError):
        nm.pairings["no such pairing"]


def test_nu_pairings_factor_through_the_cached_collapse():
    nm = NaturalMaps(3)
    assert nm.pairings["nu_l"].factor[0] is nm.pairings["collapse:ps"]
    assert nm.pairings["nu_r"].factor[0] is nm.pairings["collapse:sp"]
    assert nm.pairings["nu_l"].factor[1] is nm.mu


def test_check_pairings_checks_all_25_in_order():
    nm = NaturalMaps(3)
    nm.pairings["mult"]
    nm.check_pairings()
    assert nm.pairings.built() == NAMES


def test_corrupted_last_pairing_fails_check_pairings():
    # the check reaches the last pairing and fails there with its own message
    # (the table is read-only: the corrupted copy replaces it)
    nm = NaturalMaps(3)
    pairing = nm.pairings["nu_r"]
    table = as_dict(pairing.table)
    key = min(table)
    table[key] = {i: (c + 1) % nm.p for i, c in table[key].items()}
    pairing.table = table_of(table, nm.p)
    with pytest.raises(AssertionError, match=r"^nu_r: not balanced$"):
        nm.check_pairings()
    assert sorted(nm.pairings.built()) == sorted(NAMES)


LAZY = ("reg", "theta", "theta_sigma", "dual", "ideal", "alpha", "gamma", "kappa", "mu")


def test_modules_and_maps_are_built_when_first_read():
    nm = NaturalMaps(3)
    assert not any(name in vars(nm) for name in LAZY)
    assert list(nm.modules) == list(COEFFS) and nm.modules.built() == []
    # hh --coefficient theta reads just these two
    nm.modules["theta"]
    nm.pairings["act_l:theta"]
    assert [name for name in LAZY if name in vars(nm)] == ["reg", "theta"]
    assert nm.modules.built() == ["theta"]
    assert nm.pairings["act_l:theta"].table is nm.theta.left


def test_regular_bimodule_shares_the_product_table():
    nm = NaturalMaps(3)
    assert nm.reg.left is nm.reg.right is nm.omega.products
    assert nm.pairings["mult"].table is nm.omega.products


def test_beta_and_lambda_are_built_when_first_read():
    nm = NaturalMaps(3)
    lazy = ("ideal_dual", "beta", "theta_dual", "lam")
    assert not any(name in vars(nm) for name in lazy)
    nm.check_maps()
    assert all(name in vars(nm) for name in lazy)
    assert nm.beta.target is nm.ideal_dual and nm.lam.target is nm.theta_dual
    assert (nm.beta.source, nm.lam.source) == (nm.ideal, nm.theta_sigma)
