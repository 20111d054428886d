"""The small cochain model for Hochschild cohomology with bimodule coefficients.

For an Omega-bimodule X the model is D = sum over (s,t) of
e_s c e_t (x) e_t X e_s, where c is the degree-(1,0) double-quiver algebra.
The differential is the super-commutator with the canonical degree-1 element
iota = sum_rho rho (x) rho* (rho runs over the arrows of c, with duals
xi_m* = y_m, eta_m* = x_m):

    d(alpha (x) x) = sum_rho alpha.rho (x) rho*.x
                     - (-1)^{k(x)} sum_rho rho.alpha (x) x.rho*

This squares to zero and is a superderivation for the product

    (alpha (x) x) . (beta (x) y) = (-1)^{k(x) k(y)} (beta o alpha) (x) pair(x, y)

where pair is an Omega-balanced coefficient pairing X x Y -> Z.  The c-parts
compose in the opposite order, as in the diagonal of c^op (x) coefficients.

Hochschild degree h of a class is the c-length of its representative (0, 1
or 2); the model is graded by total (j, k) and d has degree (0, 1).
"""

from __future__ import annotations

import os
import weakref
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from . import Hh2Error
from .exactlin import (NotACocycle, TooLarge, _among, _chunks, _distinct, _expand, _summed,
                       _within, combo_add, coo_pivot_rows, coo_reduce, coo_terms)
from .quiver import BasedAlgebra, BasedBimodule, OmegaAlgebra, Table, failing_triple

Name = tuple  # ("z", l) | ("kz", l) | ("c2", s) | ("soc", s) | ("mu", l) | ("nu", l) | ("e", s)
NameCombo = dict[Name, int]


class MismatchedP(Hh2Error):
    pass


class NonMatchingIdempotents(Hh2Error):
    pass


class NotHomogeneous(Hh2Error):
    pass


class PairingDegreeMismatch(Hh2Error):
    pass


class UnrecognizedSignature(Hh2Error):
    pass


DEFAULT_MAX_CELLS = 1_000_000


def max_cells() -> int:
    """The bar oracle's cap on cochains: HH2_MAX_CELLS, a positive integer, if set."""
    raw = os.environ.get("HH2_MAX_CELLS", str(DEFAULT_MAX_CELLS))
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap <= 0:
        raise ValueError(f"HH2_MAX_CELLS must be a positive integer, got {raw!r}")
    return cap


class Pairing:
    """Omega-balanced bilinear map X x Y -> Z given on basis pairs: its
    ``table`` holds the value of (x, y) at (x, y).

    A pairing whose k-degree shift is odd does not induce a chain map of
    models directly; such pairings carry a ``factor`` (inner even pairing,
    odd bimodule map) and cup routes through the factorization.
    """

    def __init__(self, x_mod: BasedBimodule, y_mod: BasedBimodule, z_mod: BasedBimodule,
                 table: Table, name: str = "", factor=None):
        self.x_mod = x_mod
        self.y_mod = y_mod
        self.z_mod = z_mod
        self.table = table
        self.name = name
        self.p = x_mod.p
        self.factor = factor

    def check(self) -> None:
        """Balancedness and one-sided equivariance over the full algebra basis:
        (x a, y) = (x, a y), a (x, y) = (a x, y) and (x, y) a = (x, y a)."""
        x, y, z, t = self.x_mod, self.y_mod, self.z_mod, self.table
        for tables, what in (((x.right, t, y.left, t), "not balanced"),
                             ((x.left, t, t, z.left), "not left equivariant"),
                             ((t, z.right, y.right, t), "not right equivariant")):
            if failing_triple(*tables, self.p) is not None:
                raise AssertionError(f"{self.name}: {what}")


# model cochains are dicts {n: coeff} over the pairs n = (ci[n], xi[n])
Cochain = dict[int, int]


class Cochains(NamedTuple):
    """A batch of cochains as COO arrays: cochain i is the sum of val * [n]
    over its terms with owner i.  owner ascends; count counts empty ones too."""
    count: int
    owner: np.ndarray
    n: np.ndarray
    val: np.ndarray


class CochainModel:
    def __init__(self, c: BasedAlgebra, x_mod: BasedBimodule):
        if c.p != x_mod.p:
            raise MismatchedP("algebra and coefficients have different p")
        omega = x_mod.over
        if not isinstance(omega, OmegaAlgebra):
            raise NonMatchingIdempotents("coefficients must be a module over the quadratic dual")
        if set(c.idem) != set(omega.idem):
            raise NonMatchingIdempotents("vertex sets disagree")
        self.c = c
        self.x_mod = x_mod
        self.omega = omega
        self.p = c.p

        # the slot-matched pairs (ci, xi), c_i from u to w and x_i from w to u,
        # in (ci, xi) order
        c_left, c_right, c_j, c_k = _slots(c.basis)
        x_left, x_right, x_j, x_k = _slots(x_mod.basis)
        vmax = 1 + max(int(v.max(initial=0)) for v in (c_left, c_right, x_left, x_right))
        x_code = x_left * vmax + x_right
        by_code = np.argsort(x_code, kind="stable")
        ci, e = _within(x_code[by_code], c_right * vmax + c_left)
        xi = by_code[e]
        # the pairs: their indices, codes (ascending) and odd k(x)
        self.ci, self.xi, self.code, self.odd = ci, xi, ci * x_mod.dim + xi, x_k[xi] % 2 == 1

        # bucket by total (j, k); keys lists the buckets, bucket[n] the place of n's
        j, k = c_j[ci] + x_j[xi], c_k[ci] + x_k[xi]
        self.bucket_of: dict[tuple[int, int], list[int]] = {}
        for n, jk in enumerate(zip(j.tolist(), k.tolist())):
            self.bucket_of.setdefault(jk, []).append(n)
        self.keys, self.bucket = list(self.bucket_of), np.zeros(len(ci), dtype=np.int64)
        for b, members in enumerate(self.bucket_of.values()):
            self.bucket[members] = b

        n, m, v = self._d = self._differential()
        if np.any((j[m] != j[n]) | (k[m] != k[n] + 1)):
            raise AssertionError("differential not of degree (0,1)")
        # d . d = 0: each term n -> m joined with the terms of d(m)
        s, e = _within(n, m)
        if len(_summed(n[s] * len(ci) + m[e], v[s] * v[e], self.p)[0]):
            raise AssertionError("d^2 != 0")

    def _arrows(self):
        c = self.c
        for m in range(1, self.p):
            yield c.xi[m], self.omega.key[(m, 0, 1)]      # xi_m paired with y_m
            yield c.eta[m], self.omega.key[(m + 1, 1, 0)]  # eta_m paired with x_m

    def _differential(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """d of every pair n = (ci, xi) as arrays (n, m, coeff), sorted by n
        and then m, nonzero mod p:

            d(ci (x) xi) = sum_rho ci.rho (x) rho*.xi - (-1)^{k(xi)} rho.ci (x) xi.rho*

        Each side joins the pairs with c's products by an arrow rho on that
        side, then with X's action by rho*: the arrow rows, read in bulk."""
        c, x_mod, p, ci, xi = self.c, self.x_mod, self.p, self.ci, self.xi
        rho, rho_star = _ints(*zip(*self._arrows()))
        width, n_omega = x_mod.dim, self.omega.dim
        star = np.full(c.dim, -1, dtype=np.int64)  # the dual of each arrow of c
        star[rho] = rho_star
        ca, cb, ct, cc = c.slot_products()
        parts = []
        # ci.rho (x) rho*.xi: c's terms (ci, rho) meet X's left terms (rho*, xi)
        at = np.flatnonzero(star[cb] >= 0)
        n, e = _within(ca[at], ci)
        xa, xm, xt, xc = x_mod.left
        q, f = _within(xa * width + xm, star[cb[at[e]]] * width + xi[n])
        e = at[e[q]]
        parts.append((n[q], ct[e], xt[f], cc[e] * xc[f]))
        # rho.ci (x) xi.rho*: c's terms (rho, ci), by ci, meet X's right terms (xi, rho*)
        at = np.flatnonzero(star[ca] >= 0)
        at = at[np.argsort(cb[at], kind="stable")]
        n, e = _within(cb[at], ci)
        xm, xa, xt, xc = x_mod.right
        q, f = _within(xm * n_omega + xa, xi[n] * n_omega + star[ca[at[e]]])
        n, e = n[q], at[e[q]]
        parts.append((n, ct[e], xt[f], np.where(self.odd[n], 1, -1) * cc[e] * xc[f]))
        n, tc, tx, val = (np.concatenate(part) for part in zip(*parts))
        m, inside = self.place(tc, tx)
        if np.any(~inside & (val % p != 0)):
            raise AssertionError("differential left the diagonal")
        dim = max(1, len(ci))
        key, val = _summed(n[inside] * dim + m[inside], val[inside], p)
        return key // dim, key % dim, val

    def place(self, ci: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The place of each (ci, xi) among the pairs, whose codes ascend, and
        whether it is a pair: a code past the last one reads the -1 appended,
        which no code equals."""
        want = ci * self.x_mod.dim + xi
        m = np.searchsorted(self.code, want)
        return m, np.append(self.code, -1)[m] == want

    @property
    def dim(self) -> int:
        return len(self.ci)

    @cached_property
    def boundaries(self) -> tuple:
        """The fully reduced basis of im d, from one elimination of all of d:
        d is block-diagonal, bucket (j, k) into (j, k + 1)."""
        return coo_pivot_rows(*self._d, self.p, reduced=True)

    @cached_property
    def _ranks(self) -> dict[tuple[int, int], int]:
        """The rank of d into each bucket: the pivot rows of d that lie in it."""
        count = np.bincount(self.bucket[self.boundaries[0]], minlength=len(self.keys))
        return dict(zip(self.keys, count.tolist()))

    def rank_at(self, key: tuple[int, int]) -> int:
        """Rank of d on bucket key."""
        j, k = key
        return self._ranks.get((j, k + 1), 0)

    def homology_dim(self, key: tuple[int, int]) -> int:
        """dim ker(d on bucket key) - dim im(d into it)."""
        j, k = key
        return len(self.bucket_of.get(key, [])) - self.rank_at(key) - self.rank_at((j, k - 1))

    def are_cocycles(self, batch: Cochains) -> np.ndarray:
        """Whether each cochain is a cocycle, from one join of all their terms
        with d's arrays; raises ``NotHomogeneous`` on the first inhomogeneous one."""
        count, owner, n, val = batch
        bucket = self.bucket[n]
        if len(mixed := owner[bucket != bucket[owner.searchsorted(owner)]]):
            keys = {self.keys[b] for b in bucket[owner == mixed[0]].tolist()}
            raise NotHomogeneous(f"cochain not homogeneous: {keys}")
        dn, dm, dv = self._d
        s, e = _within(dn, n)
        width, out = max(1, self.dim), np.ones(count, dtype=bool)
        out[_summed(owner[s] * width + dm[e], val[s] * dv[e], self.p)[0] // width] = False
        return out


def build_model(c: BasedAlgebra, x_mod: BasedBimodule) -> CochainModel:
    return CochainModel(c, x_mod)


class HHClass:
    def __init__(self, name: Name, j: int, k: int, h: int, rep: Cochain):
        self.name = name
        self.j = j
        self.k = k
        self.h = h
        self.rep = rep

    def __repr__(self):
        return f"HHClass({format_name(self.name)}, j={self.j}, k={self.k}, h={self.h})"


def format_name(name: Name) -> str:
    """z^l and kz^l as 1, z, z^l and k, kz, kz^l; any other name as kind_arg."""
    if name[0] in ("z", "kz"):
        kind, power = name
        return {0: "1" if kind == "z" else "k", 1: kind}.get(power, f"{kind}^{power}")
    return "_".join(str(t) for t in name)


def concrete_degree(p: int, name: Name) -> tuple[int, int, int]:
    """(j, k, h) of a canonical class in its unshifted cochain model."""
    kind, arg = name
    if kind == "z":
        return -2 * arg, 2 * arg, 0
    if kind == "kz":
        return -2 * arg, 2 * arg + 1, 1
    if kind == "c2":
        return 2, 0, 2
    if kind == "soc":
        return 2 - p, p - 2, 0
    if kind == "mu":
        return 2 * arg + 2 - p, p - 2 * arg - 1, 1
    if kind == "nu":
        return 2 * arg + 2 - p, p - 2 * arg, 2
    if kind == "e":
        return 0, 0, 0
    raise ValueError(f"unknown name {name}")


def idempotent_label(name: Name) -> str:
    """The idempotent a named class sits at: "1" for the z, kz, mu and nu
    families, else e_s."""
    return "1" if name[0] in ("z", "kz", "mu", "nu") else f"e_{name[1]}"


class HHModule:
    """Named homology classes of a cochain model, with projection onto them.

    The candidate classes whose representative (in ``batch``) is empty or no
    cocycle are dropped, as over the ideal the low z-powers are; at each
    degree a candidate names, those kept must be a basis of the homology.
    ``reps`` batches the kept classes' representatives; each carries a tag
    row model.dim + (its index in classes).  The tagged representatives,
    reduced by the model's boundary basis, are eliminated into a second
    fully reduced basis.  ``project`` reduces a batch of cocycles by the two
    bases in turn, two joins: what is left of each is its tag rows, tag t
    minus the coefficient of class t, a batch over the class indices.
    """

    def __init__(self, model: CochainModel, candidates: list[HHClass], batch: Cochains):
        keep = (np.bincount(batch.owner, minlength=batch.count) > 0) & model.are_cocycles(batch)
        at = keep[batch.owner]
        reps = Cochains(int(keep.sum()), np.cumsum(keep)[batch.owner[at]] - 1, batch.n[at],
                        batch.val[at])
        self.model = model
        self.classes = classes = [cl for cl, ok in zip(candidates, keep.tolist()) if ok]
        self.reps = reps
        self.p = model.p
        self.by_name = {cl.name: cl for cl in classes}
        # every degree that a candidate names, with the classes kept there
        by_key: dict[tuple[int, int], list[int]] = {(cl.j, cl.k): [] for cl in candidates}
        for idx, cl in enumerate(classes):
            by_key[cl.j, cl.k].append(idx)
        self._named = frozenset(by_key)
        tag = np.arange(reps.count)
        self._basis = coo_pivot_rows(*coo_reduce(
            np.append(reps.owner, tag), np.append(reps.n, model.dim + tag),
            np.append(reps.val, np.ones_like(tag)), model.boundaries, self.p),
            self.p, reduced=True)
        # a tag row among the pivots: the classes of its bucket are dependent
        tags = (self._basis[0] - model.dim).tolist()
        dependent = {(classes[t].j, classes[t].k) for t in tags if t >= 0}
        lead = model.bucket[reps.n[reps.owner.searchsorted(tag)]]  # each rep's bucket
        for key, idxs in by_key.items():
            dim = model.homology_dim(key)
            if dim != len(idxs):
                raise UnrecognizedSignature(
                    f"{len(idxs)} named classes vs homology dimension {dim} at {key}")
            for idx in idxs:
                if model.keys[lead[idx]] != key:
                    raise NotHomogeneous("cochain not homogeneous")
            if key in dependent:
                raise UnrecognizedSignature(f"named classes not independent at {key}")

    def dims_by_h(self, h_max: int) -> list[int]:
        hs = [cl.h for cl in self.classes if cl.h <= h_max]
        return np.bincount(np.array(hs, dtype=np.int64), minlength=h_max + 1).tolist()

    def project(self, batch: Cochains) -> Cochains:
        """Each cocycle of a batch on the named classes, as a batch over their
        indices by owner and then class; no cocycle, or one outside their span, raises."""
        model, p = self.model, self.p
        cocycle = model.are_cocycles(batch)
        _, owner, row, val = batch
        for basis in (model.boundaries, self._basis):
            owner, row, val = coo_reduce(owner, row, val, basis, p)
        if len(bad := np.concatenate((np.flatnonzero(~cocycle), owner[row < model.dim]))):
            i = int(bad.min())
            key = model.keys[model.bucket[batch.n[batch.owner.searchsorted(i)]]]
            if not cocycle[i]:
                raise NotACocycle("vector is not a cocycle")
            raise UnrecognizedSignature("cocycle not in span of named classes"
                                        if key in self._named
                                        else f"nonzero class at unnamed degree {key}")
        return Cochains(batch.count, owner, row - model.dim, p - val)


# ---------------------------------------------------------------------------
# canonical representatives for the five standard coefficient cases

def _classes(model: CochainModel, found: list[tuple[Name, list]]) -> list[HHClass]:
    """The classes of (name, terms), each represented by the sum of its terms
    coeff * (ci (x) xi) that are pairs of the model (placed all at once)."""
    flat = [(k, ci, xi, c) for k, (_, terms) in enumerate(found) for ci, xi, c in terms
            if xi is not None]
    k, ci, xi, coeff = np.array(flat, dtype=np.int64).reshape(-1, 4).T
    n, inside = model.place(ci, xi)
    reps: list[Cochain] = [{} for _ in found]
    for o, m, c in zip(*(a[inside].tolist() for a in (k, n, coeff))):
        combo_add(reps[o], {m: c}, 1, model.p)
    return [HHClass(name, *concrete_degree(model.p, name), rep)
            for (name, _), rep in zip(found, reps)]


def _x_index(x_mod: BasedBimodule, omega: OmegaAlgebra, src: int, a: int, b: int) -> int | None:
    """Index in x_mod of the Omega-monomial (src, a, b), if it survives there."""
    at = omega.key.get((src, a, b))
    return None if at is None else x_mod.index.get(omega.basis[at].name)


def canonical_chi_classes(model: CochainModel) -> list[HHClass]:
    """z^l, kappa z^l, c2_s style classes for X in {Omega, Theta, OmegaEpOmega}."""
    c, p, at = model.c, model.p, partial(_x_index, model.x_mod, model.omega)
    found = [(("z", ell), [(c.idem[s], at(s, ell, ell), 1) for s in range(ell + 1, p + 1)])
             for ell in range(p)]
    found += [(("kz", ell), [(c.xi[s], at(s, ell, ell + 1), 1) for s in range(ell + 1, p)])
              for ell in range(p - 1)]
    found += [(("c2", s), [(c.loop[s], at(s, 0, 0), 1)]) for s in range(1, p)]
    return _classes(model, found)


def canonical_dual_classes(model: CochainModel) -> list[HHClass]:
    """e_s (x) e_s* classes for X = Omega*."""
    c, x_mod = model.c, model.x_mod
    return _classes(model, [(("e", s), [(c.idem[s], x_mod.index[f"e{s}*"], 1)])
                            for s in range(1, model.p + 1)])


def canonical_sigma_classes(model: CochainModel) -> list[HHClass]:
    """Socle classes, mu_l and nu_l for X = Theta^sigma.

    At the middle vertex h = (p-1)/2, mu_l is represented by f_{h,l} + g_{h,l}
    and nu_l by v_{h,l} - v_{h+1,l}; the differential sends f and -g to
    v_s + v_{s+1}, so adjacent v's are homologous up to sign and these span.
    """
    c, p, at = model.c, model.p, partial(_x_index, model.x_mod, model.omega)
    h = (p - 1) // 2
    found = [(("soc", s), [(c.idem[s], at(p - s, p - s - 1, s - 1), 1)]) for s in range(1, p)]
    for ell in range(1, h + 1):
        # f at slot (h+1, h) and g at slot (h, h+1), after the twist
        found.append((("mu", ell), [(c.xi[h], at(h + 1, h - ell, h - ell), 1),
                                    (c.eta[h], at(h, h - ell, h - ell), 1)]))
        found.append((("nu", ell), [(c.loop[h], at(h + 1, h - ell + 1, h - ell), 1),
                                    (c.loop[h + 1], at(h, h - ell, h - ell + 1), -1)]))
    return _classes(model, found)


KIND_OMEGA = "omega"
KIND_THETA = "theta"
KIND_THETA_SIGMA = "theta-sigma"
KIND_DUAL = "omega-dual"
KIND_IDEAL = "omega-ep-omega"


def homology_named(model: CochainModel, kind: str) -> HHModule:
    """The homology of a model over one of the five standard coefficient
    kinds, with its canonical named classes."""
    if kind in (KIND_OMEGA, KIND_THETA, KIND_IDEAL):
        classes = canonical_chi_classes(model)
    elif kind == KIND_DUAL:
        classes = canonical_dual_classes(model)
    elif kind == KIND_THETA_SIGMA:
        classes = canonical_sigma_classes(model)
    else:
        raise ValueError(f"unknown coefficient kind {kind!r}")
    hh = HHModule(model, classes, Cochains(len(classes), *coo_terms([cl.rep for cl in classes])))
    total = sum(model.homology_dim(key) for key in model.bucket_of)
    if len(hh.classes) != total:
        raise UnrecognizedSignature(
            f"{len(hh.classes)} canonical classes but homology dimension {total}")
    return hh


# rows per chunk of the cup join: bounds its temporaries
_CUP_CHUNK = 1 << 16


def cup(model_x: CochainModel, us: Cochains, model_y: CochainModel, vs: Cochains,
        pairing: Pairing, model_z: CochainModel) -> Cochains:
    """The cup products us[i] . vs[j] of two batches of cocycles at
    representative level, as one batch over pairing's target in which (i, j)
    has owner i * vs.count + j.  c-parts compose in the opposite order and
    the Koszul sign is (-1)^{k(x) k(y)} over the coefficient k-degrees.  Only
    pairings of even k-shift induce chain maps; odd ones (the socle
    embeddings) are handled at class level by composing a cup through their
    even factor with the named map they induce.

    One array join, in chunks of whole u-chains that bound its temporaries:
    each u-term meets c's products at (ci_v, ci_u) by ci_u, each of those the
    v-terms by ci_v, and each (u-term, v-term) the pairing's terms at
    (xi_u, xi_v).  Each (c, z) is placed among model_z's pairs and summed by
    (i, j, pair) mod p; as the chunks follow u, their sums come sorted by
    (owner, pair).  The inputs of each model, and then all products, are
    checked to be cocycles in one join with their model's differential.
    """
    if pairing.factor is not None:
        raise PairingDegreeMismatch(
            f"pairing {pairing.name} has odd degree; cup through its factor instead")
    if not model_x.are_cocycles(us).all() or not model_y.are_cocycles(vs).all():
        raise NotACocycle("cup inputs must be cocycles")
    if pairing.x_mod is not model_x.x_mod or pairing.y_mod is not model_y.x_mod:
        raise PairingDegreeMismatch("pairing does not match the given models")
    p, n_v, width = model_z.p, vs.count, pairing.y_mod.dim
    ca, cb, ct, cc = model_x.c.slot_products()  # ct in ca o cb, read at (ci_v, ci_u)
    order = np.argsort(cb, kind="stable")
    ca, cb, ct, cc = ca[order], cb[order], ct[order], cc[order]
    _, iu, nu, cu = us
    _, iv, nv, cv = vs
    order = np.argsort(model_y.ci[nv], kind="stable")
    iv, nv, cv, ci_v = iv[order], nv[order], cv[order], model_y.ci[nv[order]]
    # the rows of a u-term: the v-terms that each of its c-terms meets
    meets = np.concatenate(([0], np.cumsum(np.bincount(ci_v, minlength=model_x.c.dim)[ca])))
    lo, hi = (np.searchsorted(cb, model_x.ci[nu], side) for side in ("left", "right"))
    px, py, pt, pc = pairing.table
    pkey, n_z = px * width + py, max(1, model_z.dim)
    parts = [(np.zeros(0, dtype=np.int64),) * 2]  # (key, val) per chunk
    for a0, a1 in _chunks(iu, meets[hi] - meets[lo], _CUP_CHUNK):
        s, e = _within(cb, model_x.ci[nu[a0:a1]])  # u-term s, c-term e at (x, ci_u)
        q, f = _within(ci_v, ca[e])  # and each v-term f with ci_v = x
        s, e = s[q] + a0, e[q]
        q, g = _within(pkey, model_x.xi[nu[s]] * width + model_y.xi[nv[f]])  # pairing term g
        s, e, f = s[q], e[q], f[q]
        m, inside = model_z.place(ct[e], pt[g])
        if not inside.all():
            raise AssertionError("cup left the diagonal")
        sign = np.where(model_x.odd[nu[s]] & model_y.odd[nv[f]], -1, 1)
        parts.append(_summed((iu[s] * n_v + iv[f]) * n_z + m,
                             sign * cu[s] * cv[f] * cc[e] * pc[g], p))
    key, val = (np.concatenate(part) for part in zip(*parts))
    out = Cochains(us.count * n_v, *np.divmod(key, n_z), val)
    if not model_z.are_cocycles(out).all():
        raise NotACocycle("cup product failed to be a cocycle")
    return out


# ---------------------------------------------------------------------------
# independent oracle: reduced relative bar complex over the vertex subalgebra

def _ints(*arrays) -> list[np.ndarray]:
    return [np.asarray(a, dtype=np.int64) for a in arrays]


def _slots(basis) -> list[np.ndarray]:
    """(left, right, j, k) of each basis element, as int64 arrays."""
    return _ints(*zip(*((b.left, b.right, b.j, b.k) for b in basis))) if basis \
        else _ints([], [], [], [])


class ChainLevel(NamedTuple):
    """The chains of one degree n as parallel int64 arrays, indexed by place.

    ``chain`` has shape (count, n): row q holds the radical basis indices of
    the chain at place q.  ``lft`` and ``rgt`` are its slot (the left vertex
    of its first and the right vertex of its last term) and ``j``, ``k`` its
    total degree.  ``parent`` and ``face`` are the places in level n - 1 of
    ch[:-1] and ch[1:].  In degree 1 they are the places of the left and the
    right vertex; degree 0 has no level below it and holds -1.
    """
    chain: np.ndarray
    lft: np.ndarray
    rgt: np.ndarray
    j: np.ndarray
    k: np.ndarray
    parent: np.ndarray
    face: np.ndarray


class Cofaces(NamedTuple):
    """The coefficient-free part of the bar differential from degree n, as
    COO arrays from places of level n (``src``) to places of level n + 1
    (``tgt``), each table sorted by ``src``:

    * heads (src, r, tgt): tgt is (r,) + src;
    * collapses (src, tgt, coeff): tgt is ch[:i] + (a, b) + ch[i + 1:] for
      each (a, b) whose product a b has the coefficient c on ch[i], and
      coeff = (-1)^(i+1) c;
    * tails (src, r, tgt): tgt is src + (r,).
    """
    heads: tuple[np.ndarray, np.ndarray, np.ndarray]
    collapses: tuple[np.ndarray, np.ndarray, np.ndarray]
    tails: tuple[np.ndarray, np.ndarray, np.ndarray]


class RadicalChains:
    """Composable chains of radical basis elements of an algebra: the basis
    of the reduced bar complex over the vertex subalgebra, as arrays.

    ``level(n)`` is a ``ChainLevel``.  Degree 0 holds the empty chain once
    per vertex, in vertex order.  Degree 1 is the radical in index order.
    Degree n + 1 lists, for each chain of degree n in order, its children
    ch + (r,), one for each radical r leaving its right vertex, in index
    order.  So every level of degree >= 1 is sorted lexicographically by
    radical index, a place is the index of a chain in that order, and the
    places are those of the tuples the chains stand for.  Levels are built
    on first request and kept.

    The children of a chain are contiguous in the next level, so the child
    of place q by r is ``first[q]`` (its first child) plus the rank of r
    among the radical elements with the same left vertex (degree 0 is the
    exception: the child of a vertex by r is the place of (r,) in degree 1).
    Then ``parent`` repeats each place once per child, and ``face`` follows
    from one recursion: the face of parent + (r,) is the child of
    face(parent) by r.

    ``cofaces(n)`` is a ``Cofaces``, built on first request, with level
    n + 1, and kept.  Heads and tails are the ``face`` and ``parent`` of level
    n + 1 read backwards.  A collapse target ch[:i] + (a, b) + ch[i + 1:] is
    reached by walking children from the place of ch[:i], an ancestor along
    ``parent``, through a, b and the rest of the chain.
    """

    def __init__(self, alg: BasedAlgebra):
        basis = alg.basis
        left, right, bj, bk = _slots(basis)
        self._left, self._right, self._j, self._k = left, right, bj, bk
        rad = [i for i, b in enumerate(basis) if b.j != 0 or b.k != 0]
        self._rad = np.array(rad, dtype=np.int64)
        vertices = np.array(alg.vertices, dtype=np.int64)
        n_vertex_ids = int(max(left.max(), right.max(), vertices.max())) + 1
        self._vplace = np.full(n_vertex_ids, -1, dtype=np.int64)
        self._vplace[vertices] = np.arange(len(vertices))
        self._radpos = np.full(len(basis), -1, dtype=np.int64)
        self._radpos[self._rad] = np.arange(len(rad))
        # the radical grouped by left vertex, in index order within a group
        self._by_left = self._rad[np.argsort(left[self._rad], kind="stable")]
        self._n_by_left = np.bincount(left[self._rad], minlength=n_vertex_ids)
        self._by_left_start = np.cumsum(self._n_by_left) - self._n_by_left
        # the place of each radical element within its group
        self._sibling = np.zeros(len(basis), dtype=np.int64)
        self._sibling[self._by_left] = (np.arange(len(rad))
                                        - self._by_left_start[left[self._by_left]])

        # (m, a, b, coeff of m in a b) over composable radical a, b, stored
        # by m as CSR arrays over the basis index
        is_rad = self._radpos >= 0
        a, b, mid, cm = alg.slot_products()
        at = is_rad[a] & is_rad[b] & is_rad[mid]
        a, b, mid, cm = a[at], b[at], mid[at], cm[at]
        leaves = np.flatnonzero((left[a] != left[mid]) | (right[b] != right[mid]))
        if len(leaves):
            raise AssertionError(f"{basis[a[leaves[0]]].name}*{basis[b[leaves[0]]].name}"
                                 " leaves its slot")
        by_mid = np.argsort(mid, kind="stable")
        self._split_a, self._split_b, self._split_c = a[by_mid], b[by_mid], cm[by_mid]
        self._split_count = np.bincount(mid, minlength=len(basis))
        self._split_start = np.cumsum(self._split_count) - self._split_count

        none = np.full(len(vertices), -1, dtype=np.int64)
        zero = np.zeros(len(vertices), dtype=np.int64)
        self._levels = [ChainLevel(np.zeros((len(vertices), 0), dtype=np.int64),
                                   vertices, vertices, zero, zero, none, none)]
        self._first: list[np.ndarray | None] = []  # per level below the last
        self._cofaces: list[Cofaces] = []

    def _child(self, m: int, q: np.ndarray | None, r: np.ndarray) -> np.ndarray:
        """The places in level m + 1 of the children by r of the places q of level m."""
        if m == 0:
            return self._radpos[r]
        return self._first[m][q] + self._sibling[r]

    def level(self, n: int) -> ChainLevel:
        """The chains of degree n, built on first request from level n - 1."""
        while len(self._levels) <= n:
            m = len(self._levels) - 1
            cur = self._levels[m]
            if m == 0:
                r = self._rad
                chain, lft, j, k = r.reshape(-1, 1), self._left[r], self._j[r], self._k[r]
                parent, face = self._vplace[lft], self._vplace[self._right[r]]
                self._first.append(None)
            else:
                count = self._n_by_left[cur.rgt]
                self._first.append(np.cumsum(count) - count)
                parent, idx = _expand(self._by_left_start[cur.rgt], count)
                r = self._by_left[idx]
                face = self._child(m - 1, cur.face[parent], r)
                chain = np.column_stack((cur.chain[parent], r))
                lft, j, k = cur.lft[parent], cur.j[parent] + self._j[r], cur.k[parent] + self._k[r]
            self._levels.append(ChainLevel(chain, lft, self._right[r], j, k, parent, face))
        return self._levels[n]

    def cofaces(self, n: int) -> Cofaces:
        """The heads, collapses and tails from the chains of degree n."""
        while len(self._cofaces) <= n:
            m = len(self._cofaces)
            up = self.level(m + 1)
            by_face = np.argsort(up.face, kind="stable")
            by_parent = np.argsort(up.parent, kind="stable")  # sorted already if m > 0
            self._cofaces.append(Cofaces(
                (up.face[by_face], up.chain[by_face, 0], by_face),
                self._collapses(m),
                (up.parent[by_parent], up.chain[by_parent, -1], by_parent)))
        return self._cofaces[n]

    def _collapses(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        lv = self.level(n)
        # anc[i]: the place of ch[:i] in level i, for 1 <= i <= n
        anc: list = [None] * n + [np.arange(len(lv.lft))]
        for i in range(n - 1, 0, -1):
            anc[i] = self.level(i + 1).parent[anc[i + 1]]
        parts = []
        for i in range(n):
            mid = lv.chain[:, i]
            src, e = _expand(self._split_start[mid], self._split_count[mid])
            tgt = self._child(i, anc[i][src] if i else None, self._split_a[e])
            for t in range(i, n):
                tgt = self._child(t + 1, tgt, self._split_b[e] if t == i else lv.chain[src, t])
            parts.append((src, tgt, (-1) ** (i + 1) * self._split_c[e]))
        if not parts:
            return tuple(_ints([], [], []))
        src, tgt, coeff = (np.concatenate(part) for part in zip(*parts))
        order = np.argsort(src, kind="stable")
        return src[order], tgt[order], coeff[order]


_CHAINS = weakref.WeakKeyDictionary()  # algebra -> its RadicalChains


def radical_chains(alg: BasedAlgebra) -> RadicalChains:
    """The ``RadicalChains`` of alg, made on the first call and kept while alg
    lives, so its basis and products must not change after that."""
    bar = _CHAINS.get(alg)
    if bar is None:
        bar = _CHAINS[alg] = RadicalChains(alg)
    return bar


def bar_sizes(alg: BasedAlgebra, x_mod: BasedBimodule, n_max: int) -> tuple[list[int], list[int]]:
    """The numbers of chains and of cochains of the reduced bar complex in
    each degree 0..n_max, counted by slot without building any chain.  If S
    and N count the radical basis of alg and the basis of x_mod by slot
    (left, right), degree n has S^n[u, w] chains from u to w and sum(S^n * N)
    slot-matched (chain, x) cochains; Python ints keep both exact."""
    place = {v: i for i, v in enumerate(alg.vertices)}
    s = np.zeros((len(place), len(place)), dtype=object)
    n_x = np.zeros_like(s)
    for b in alg.basis:
        if b.j != 0 or b.k != 0:
            s[place[b.left], place[b.right]] += 1
    for b in x_mod.basis:
        n_x[place[b.left], place[b.right]] += 1
    power = np.identity(len(place), dtype=object)
    chains, cochains = [], []
    for _ in range(n_max + 1):
        chains.append(int(power.sum()))
        cochains.append(int((power * n_x).sum()))
        power = power @ s
    return chains, cochains


# cochains of degree n_max per block of whole buckets in ``bar_oracle``
_BLOCK_CELLS = 1 << 11


def _bar_differential(n: int, pos: np.ndarray, xi: np.ndarray, faces: list, left: tuple,
                      right: tuple, width: int, nrows: int, p: int) -> tuple[np.ndarray, ...]:
    """d_n on the cochains (pos[i], xi[i]) of degree n as (i, row, coeff),
    nonzero mod p, by i and then row (a cochain id of degree n + 1, < nrows):
    d(phi)(r0..rn) = r0 . phi(r1..rn) + sum_i (-1)^{i+1} phi(.. r_i r_{i+1} ..)
                     + (-1)^{n+1} phi(r0..r_{n-1}) . rn.
    faces and left, right: ``Cofaces`` and the actions, with the bounds of
    each source chain's run and of each a * width + x in place of the keys."""
    (hb, hr, ht), (cb, ct, cc), (tb, tr, tt) = faces
    keys, vals = [], []
    for bound, r, tgt, (ab, atgt, acoeff), sign in (
            (hb, hr, ht, left, 1), (tb, tr, tt, right, -1 if (n + 1) % 2 else 1)):
        c, f = _expand(bound[pos], bound[pos + 1] - bound[pos])  # each cochain's chain's cofaces
        a = r[f] * width + xi[c]
        at, e = _expand(ab[a], ab[a + 1] - ab[a])  # and the action on its value
        c, f = c[at], f[at]
        keys.append(c * nrows + tgt[f] * width + atgt[e])
        vals.append(sign * acoeff[e])
    c, f = _expand(cb[pos], cb[pos + 1] - cb[pos])
    keys.append(c * nrows + ct[f] * width + xi[c])
    vals.append(cc[f])
    key, val = _summed(np.concatenate(keys), np.concatenate(vals), p)
    return *np.divmod(key, nrows), val


def bar_oracle(alg: BasedAlgebra, x_mod: BasedBimodule, n_max: int) -> list[int]:
    """dim HH^n(alg, x_mod) for n = 0..n_max via the reduced bar complex.

    Cochains in degree n are A0-bimodule maps (rad A)^{(x)_{A0} n} -> X; no
    Koszulity is used.  Raises TooLarge before anything is built, from the
    exact sizes of ``bar_sizes``: when the cochains of degrees 1..n_max+1
    pass ``max_cells()``, or when the keys of a d_n or of its d.d = 0 check
    would not index in int64.

    A cochain's id is (place of its chain in level n) * dim X + (index of its
    value in X).  d keeps its bucket deg(x) - deg(chain) in (j, k), so the
    complex is the direct sum of its buckets, and the oracle works on blocks
    of whole buckets, in code order, of at most ``_BLOCK_CELLS`` cochains of
    degree n_max (or one bucket): ``verify --p 5`` peaks at about 65 MB of
    RSS, not 105 MB as with each d_n whole (x86-64 Linux).

    Phase 1, per block: ``_bar_differential`` assembles d_0..d_{n_max}; each
    entry's row must have its column's code, x's (slot, j, k) less the
    chain's (else "leaves its bucket"), and d_n . d_{n-1} must vanish.
    Phase 2, per block: ``coo_pivot_rows`` ranks d_n only on its columns off
    R, the pivot rows of d_{n-1}, the leading rows of V = im d_{n-1}.  A
    basis of V leading at R is triangular with a nonzero diagonal on R, so
    the coordinate vectors off R span a complement of V, on which d_n,
    killing V, has its full rank.  That needs d.d = 0, so no rank is taken
    before phase 1 has checked every block; the result is exact in any
    elimination order.  DEBUG lines give each bucket's shape and rank (the
    pivots leading in its rows), by n and then by its first cochain.
    """
    cap = max_cells()
    chains, cells = bar_sizes(alg, x_mod, n_max + 2)
    if sum(cells[1:n_max + 2]) > cap:
        raise TooLarge(f"bar complex would exceed {cap} cells")
    width = x_mod.dim
    for n in range(n_max + 1):
        # d_n is keyed by col * rows + row, its d.d = 0 join by col * (rows of d_{n+1}) + row
        if chains[n] * width * max(chains[n + 1], chains[n + 2]) * width > 2 ** 63 - 1:
            raise TooLarge(f"the entries of d_{n} would not index in int64")
    p, bar = alg.p, radical_chains(alg)
    faces = [[(t[0].searchsorted(np.arange(chains[n] + 1)), *t[1:]) for t in bar.cofaces(n)]
             for n in range(n_max + 1)]  # by the bounds of each chain's run, a dense index

    # codes of (slot, j, k) in digits of a base past twice any j or k difference
    x_left, x_right, x_j, x_k = _slots(x_mod.basis)
    vmax = 1 + max([0, *alg.vertices, *x_left.tolist(), *x_right.tolist()])
    base = 1 + 2 * (n_max + 2) * max(abs(v) for b in (*alg.basis, *x_mod.basis) for v in (b.j, b.k))
    x_slot = x_left * vmax + x_right
    x_code = (x_slot * base + x_j) * base + x_k
    ch_code = [((lv.lft * vmax + lv.rgt) * base + lv.j) * base + lv.k
               for lv in map(bar.level, range(n_max + 2))]
    x_by_slot = np.argsort(x_slot, kind="stable")

    def cochains(n: int) -> np.ndarray:
        """The ids of the cochains of degree n, ascending."""
        pos, idx = _within(x_slot[x_by_slot], bar.level(n).lft * vmax + bar.level(n).rgt)
        return pos * width + x_by_slot[idx]

    def code(n: int, ids: np.ndarray) -> np.ndarray:
        """x's code less its chain's, for ids of degree n: the bucket's iff slot-matched."""
        q, x = np.divmod(ids, width)
        return x_code[x] - ch_code[n][q]

    ids = [cochains(n) for n in range(n_max + 1)]
    codes = [code(n, i) for n, i in enumerate(ids)]
    buckets = _distinct(np.concatenate(codes))
    of, fill = [-1], _BLOCK_CELLS + 1  # each bucket's block, after a -1
    for t in np.bincount(buckets.searchsorted(codes[-1]), minlength=len(buckets)).tolist():
        new, fill = (1, t) if fill + t > _BLOCK_CELLS else (0, fill + t)
        of.append(of[-1] + new)
    blk = [np.array(of[1:], dtype=np.int64)[buckets.searchsorted(c)] for c in codes]

    lt, rt = x_mod.left, x_mod.right  # (a, x, a x, coeff) and (x, a, x a, coeff), sorted
    by_a, keys = np.lexsort((rt.x, rt.y)), np.arange(alg.dim * width + 1)
    left = (np.searchsorted(lt.x * width + lt.y, keys), lt.t, lt.c)
    right = (np.searchsorted(rt.y[by_a] * width + rt.x[by_a], keys), rt.t[by_a], rt.c[by_a])

    def phase1(b: int) -> list[tuple[np.ndarray, ...]]:  # block b's d_n as (col, row, coeff)
        d = []
        for n in range(n_max + 1):
            cols, c = (a[blk[n] == b] for a in (ids[n], codes[n]))
            nrows = max(1, chains[n + 1] * width)
            i, row, val = _bar_differential(n, *np.divmod(cols, max(1, width)), faces[n],
                                            left, right, width, nrows, p)
            if (code(n + 1, row) != c[i]).any():
                raise AssertionError(f"bar differential d_{n} leaves its bucket")
            col = cols[i]
            if d:  # d_n . d_{n-1} = 0: the rows of d_{n-1} are columns of d_n in the block
                lcol, lrow, lval = d[-1]
                o, u = _within(col, lrow)
                if len(_summed(lcol[o] * nrows + row[u], lval[o] * val[u], p, "quicksort")[0]):
                    raise AssertionError("bar differential does not square to zero")
            d.append((col, row, val))
        return d

    blocks = [phase1(b) for b in range(of[-1] + 1)]

    # imported here, not at module level, so that only the oracle's callers
    # pay for loading logging at start-up
    import logging
    log = logging.getLogger(__name__)
    debug = log.isEnabledFor(logging.DEBUG)
    if debug:  # by bucket code: each degree's first cochain, and the rows of each d_n
        from collections import Counter
        first = [dict(zip(c[::-1].tolist(), i[::-1].tolist())) for i, c in zip(ids, codes)]
        rows = [Counter(c.tolist()) for c in codes[1:] + [code(n_max + 1, cochains(n_max + 1))]]

    dims, lines = cells[:n_max + 1], []  # less each block's ranks
    for b in sorted(range(len(blocks)), key=lambda b: len(blocks[b][-1][0])):
        d, blocks[b] = blocks[b], None  # phase 2, smallest first, each freed once ranked
        skip = np.zeros(0, dtype=np.int64)  # the pivot rows of d_{n-1} in the block
        for n, (dcol, drow, dval) in enumerate(d):
            off = ~_among(skip, dcol)
            found = coo_pivot_rows(dcol[off], drow[off], dval[off], p)
            dims[n] -= len(found) + len(skip)
            if debug:  # a pivot counts in the bucket of its leading row
                nnz, pivots = (Counter(code(m, a).tolist()) for m, a in ((n, dcol), (n + 1, found)))
                lines += [(n, first[n][k], k, rows[n][k], c, nnz[k], pivots[k])
                          for k, c in Counter(codes[n][blk[n] == b].tolist()).items()]
            skip = found
    for n, _, k, *counts in sorted(lines):
        dj, dk = divmod(k + base // 2, base)
        log.debug("bar piece n=%d bucket=%s rows=%d cols=%d nnz=%d rank=%d", n,
                  (dj, dk - base // 2), *counts)
    return dims
