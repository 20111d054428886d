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
import sys
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from . import Hh2Error
from .exactlin import (NotACocycle, TooLarge, _among, _chunks, _starts, _summed, _within,
                       combo_add, coo_pivot_rows, coo_reduce, coo_terms, half_join, join_index)
from .quiver import BasedAlgebra, BasedBimodule, Basis, OmegaAlgebra, Table, failing_triple

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
    """HH2_MAX_CELLS, a positive integer, if set: the cell cap that sets the bar
    oracle's depth in ``verify``, and with it that command's check names and
    SKIPs, against ``bar_sizes`` of the plain bar complex.  The Morse oracle
    itself reads no cap."""
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


def _ints(*arrays) -> list[np.ndarray]:
    return [np.asarray(a, dtype=np.int64) for a in arrays]


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
        c_left, c_right, c_j, c_k = c.basis_slots
        x_left, x_right, x_j, x_k = x_mod.basis_slots
        vmax = 1 + max(int(v.max(initial=0)) for v in (c_left, c_right, x_left, x_right))
        ci, xi = half_join(c_right * vmax + c_left, join_index(x_left * vmax + x_right))
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
            yield c.xi[m], self.omega.places[m, 0, 1]      # xi_m paired with y_m
            yield c.eta[m], self.omega.places[m + 1, 1, 0]  # eta_m paired with x_m

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
        n, e = half_join(ci, join_index(cb[at]))
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
    at = int(np.append(x_mod.position, -1)[omega.places[src, a, b]])  # -1 reads the -1
    return None if at < 0 else at


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
    """e_s (x) e_s* classes for X = Omega*, which is indexed like Omega."""
    c, place = model.c, model.x_mod.position
    return _classes(model, [(("e", s), [(c.idem[s], int(place[model.omega.idem[s]]), 1)])
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
# independent oracle: the bar complex reduced by algebraic Morse theory

def bar_sizes(alg: BasedAlgebra, x_mod: BasedBimodule, n_max: int) -> tuple[list[int], list[int]]:
    """The numbers of chains and of cochains of the plain reduced bar complex
    (the tests' reference; ``verify`` sets the oracle's depth by them) in
    each degree 0..n_max, counted by slot without building any chain.  If S
    and N count the radical basis of alg and the basis of x_mod by slot
    (left, right), degree n has S^n[u, w] chains from u to w and sum(S^n * N)
    slot-matched (chain, x) cochains; Python ints keep both exact."""
    n_v = len(alg.vertices)
    place = np.zeros(1 + max(alg.vertices), dtype=np.int64)
    place[alg.vertices] = np.arange(n_v)
    left, right, bj, bk = alg.basis_slots
    rad = (bj != 0) | (bk != 0)
    x_left, x_right, _, _ = x_mod.basis_slots
    s, n_x = (np.bincount(place[u] * n_v + place[w], minlength=n_v * n_v)
              .reshape(n_v, n_v).astype(object)
              for u, w in ((left[rad], right[rad]), (x_left, x_right)))
    power = np.identity(n_v, dtype=object)
    chains, cochains = [], []
    for _ in range(n_max + 1):
        chains.append(int(power.sum()))
        cochains.append(int((power * n_x).sum()))
        power = power @ s
    return chains, cochains


class Presentation(NamedTuple):
    """A quiver presentation of an algebra read off its basis and products.

    ``arrows`` are the radical basis elements (those of degree (j, k) other
    than (0, 0)) that are no term of a product of two radical ones,
    ascending.  The composable arrow pairs (g, h), ordered deg-lex by basis
    index, split into the normal pairs, each the smallest pair whose product
    is exactly 1 * w for its w (the weight-2 basis elements), and the
    ``tips``, every other pair, as rows (g, h).  ``collapses`` (tip, u, v,
    coeff) holds, for each term c w of a tip's product, the normal pair
    (u, v) of w with coeff = -c mod p.  ``words`` counts the normal words,
    those in which no two neighbours form a tip, by length from 1.
    """
    arrows: np.ndarray
    tips: np.ndarray
    collapses: tuple[np.ndarray, ...]
    words: list[int]


def _collapses(tip: np.ndarray, c: np.ndarray, u: np.ndarray, v: np.ndarray,
               p: int) -> tuple[np.ndarray, ...]:
    """The collapse terms of the tips' boundaries, (tip, u, v, -c mod p): a
    term c w of a tip's product enters its relation as -c u v."""
    return tip, u, v, -c % p


def _presentation(alg: BasedAlgebra) -> Presentation:
    """The ``Presentation`` of alg, with its tips checked to be a Groebner
    basis whose tips do not overlap; raises AssertionError where that fails."""
    p, dim = alg.p, alg.dim
    left, right, bj, bk = alg.basis_slots
    rad = (bj != 0) | (bk != 0)
    x, y, t, c = alg.slot_products()
    at = rad[x] & rad[y]
    x, y, t, c = x[at], y[at], t[at], c[at]
    leaves = np.flatnonzero(~rad[t] | (left[t] != left[x]) | (right[t] != right[y]))
    if len(leaves):
        raise AssertionError(f"{alg.basis[x[leaves[0]]].name}*{alg.basis[y[leaves[0]]].name}"
                             " leaves the radical of its slot")
    key = x * dim + y  # the radical products' terms, by (x, y) as stored

    def product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(w, exact) for the pairs a b: w the first term, exact if a b is 1 * w."""
        lo, hi = (np.searchsorted(key, a * dim + b, side) for side in ("left", "right"))
        w, one = np.append(t, -1)[lo], np.append(c, 0)[lo] == 1
        return w, (hi - lo == 1) & one

    is_arrow = rad.copy()
    is_arrow[t] = False
    arrows = np.flatnonzero(is_arrow)
    s, e = half_join(right[arrows], join_index(left[arrows]))
    g, h = arrows[s], arrows[e]  # the composable pairs, deg-lex
    w, exact = product(g, h)
    first = np.flatnonzero(exact)
    first = first[np.argsort(w[first], kind="stable")]
    first = first[_starts(w[first])]  # the smallest exact pair of each weight-2 element
    normal = np.zeros(len(g), dtype=bool)
    normal[first] = True
    nu, nv = np.full(dim, -1, dtype=np.int64), np.full(dim, -1, dtype=np.int64)
    nu[w[first]], nv[w[first]] = g[first], h[first]

    def name(word) -> str:
        return "|".join(alg.basis[a].name for a in word)

    # Bergman: the normal words evaluate to the radical basis, each element once
    hits = np.zeros(dim, dtype=np.int64)
    words, value, counts = arrows.reshape(-1, 1), arrows, []
    ng, nh = g[normal], h[normal]  # the normal pairs, by g
    while len(words):
        counts.append(len(words))
        np.add.at(hits, value, 1)
        if hits.max() > 1:
            raise AssertionError("the normal words are no basis: two evaluate to "
                                 f"{alg.basis[int(np.argmax(hits))].name}")
        s, e = _within(ng, words[:, -1])
        words = np.column_stack((words[s], nh[e]))
        value, exact = product(value[s], nh[e])
        if not exact.all():
            raise AssertionError(f"the normal words are no basis: {name(words[~exact][0])}"
                                 " does not evaluate to a basis element")
    missed = np.flatnonzero(rad & (hits == 0))
    if len(missed):
        raise AssertionError("the normal words are no basis: none evaluates to "
                             f"{alg.basis[missed[0]].name}")

    tg, th = g[~normal], h[~normal]
    s, e = _within(key, tg * dim + th)  # each term c w of a tip's product
    u, v = nu[t[e]], nv[t[e]]
    smaller = (u >= 0) & ((u < tg[s]) | ((u == tg[s]) & (v < th[s])))
    if not smaller.all():
        i = s[np.argmin(smaller)]
        raise AssertionError(f"the tip {name((tg[i], th[i]))} does not rewrite to"
                             " smaller normal words")
    overlap = np.flatnonzero(_among(np.sort(tg), th))
    if len(overlap):
        i = overlap[0]
        after = tg.tolist().index(th[i])
        raise AssertionError(f"the tips {name((tg[i], th[i]))} and {name((tg[after], th[after]))}"
                             " overlap in an Anick 3-chain; the oracle builds no cells above 2")
    return Presentation(arrows, np.column_stack((tg, th)), _collapses(s, c[e], u, v, p), counts)


def bar_oracle(alg: BasedAlgebra, x_mod: BasedBimodule, n_max: int) -> list[int]:
    """dim HH^n(alg, x_mod) for n = 0..n_max, from the bar resolution
    reduced by algebraic Morse theory to the two-sided Anick resolution.

    The lemma chain assumes, as the plain bar complex does, that A0, the
    span of the vertex idempotents, acts on each basis element of alg by its
    slot, and that the basis elements of degree (j, k) != (0, 0) span the
    radical.  Every other step is checked:

    * (Bergman, Adv. Math. 29 (1978).)  Read a ``Presentation`` off the
      basis: arrows, normal pairs and tips.  Each tip g|h rewrites to its
      product sum c_w u_w v_w, with (u_w, v_w) the normal pair of w and
      deg-lex smaller than (g, h) (checked).  So rewriting ends, and every
      path of arrows is congruent to a combination of normal words modulo
      the tips' relations.  For an associative table (checked), the normal
      words evaluate to each radical basis element once, with coefficient 1
      (checked).  So the tips' relations generate the kernel of the path
      algebra onto alg, and they are a Groebner basis of it.
    * (Anick, Trans. AMS 296 (1986); Skoeldberg, Trans. AMS 358 (2006);
      Joellenbeck and Welker, Mem. AMS 197 (2009).)  A Morse matching of the
      normalized bar resolution of alg over A0 leaves as critical cells the
      Anick chains: the vertices in degree 0, the arrows in degree 1, the
      tips in degree 2 and the overlaps of tips from degree 3 up.  When no
      two tips overlap (checked), none is left above degree 2, so
      HH^n(alg, X) = 0 for n >= 3.
    * The Morse differential on a tip is the bar differential followed by
      one zig-zag step: [g|h] meets g[h], [g]h and -[g h] = -sum c_w [w],
      and each [w] is matched with [u_w|v_w], whose differential is
      u_w[v_w] + [u_w]v_w - [w].

    The cochains are the slot-matched elements x of X on the vertices, the
    arrows and the tips, as ids (cell) * dim X + (x), with

        d^0(x)(g) = g x - x g,
        d^1(phi)(g|h) = g phi(h) + phi(g) h - sum_w c_w (u_w phi(v_w) + phi(u_w) v_w).

    ``coo_pivot_rows`` ranks both; their entries must stay slot-matched,
    and d^1 . d^0 must vanish (checked).  Every check raises AssertionError,
    as do ``alg.check_associativity()`` and the bimodule axioms of x_mod over
    alg, which run first, once per object (a module over another algebra
    is checked as one over alg on every call).  So the dimensions rest on
    the checked presentation and not on Koszulity: the oracle reads only the
    slots, degrees and ``slot_products()`` of alg and the actions of x_mod,
    and none of the Koszul model's code (``CochainModel``, the algebra c).
    It reads no cap; at p = 5 the complex of omega has (15, 20, 10)
    cochains.  It raises TooLarge only when the keys of d^0, d^1 or of an
    identity scan would not index in int64.  DEBUG lines give the
    presentation and each degree's cochains, nonzero entries and rank, in a
    process that has imported ``logging``.
    """
    alg.check_associativity()
    if x_mod.over is not alg:
        x_mod = BasedBimodule(alg, Basis(x_mod.basis_slots, x_mod._name_list), x_mod.left,
                              x_mod.right, x_mod.name)
    x_mod.check_bimodule()
    pres = _presentation(alg)
    p, width, dim = alg.p, x_mod.dim, alg.dim
    left, right, _, _ = alg.basis_slots
    vertices, arrows = np.array(alg.vertices, dtype=np.int64), pres.arrows
    g, h = pres.tips.T
    vplace = np.zeros(1 + int(vertices.max()), dtype=np.int64)
    vplace[vertices] = np.arange(len(vertices))
    aplace = np.zeros(dim, dtype=np.int64)
    aplace[arrows] = np.arange(len(arrows))
    cells = [(vertices, vertices), (left[arrows], right[arrows]), (left[g], right[h])]
    if max(len(u) for u, _ in cells) ** 2 * max(1, width) ** 2 > 2 ** 63 - 1:
        raise TooLarge("the entries of d^0 and d^1 would not index in int64")

    # the boundary of each cell of degree n + 1 as its left terms (cell,
    # lower, a, coeff), coeff a phi(lower), and its right terms, coeff
    # phi(lower) a, with lower a place in degree n
    k, one = np.arange(len(arrows)), np.ones(len(arrows), dtype=np.int64)
    tip, u, v, coeff = (np.concatenate(part) for part in zip(
        (np.arange(len(g)), g, h, np.ones(len(g), dtype=np.int64)), pres.collapses))
    faces = [((k, vplace[right[arrows]], arrows, one), (k, vplace[left[arrows]], arrows, p - one)),
             ((tip, aplace[v], u, coeff), (tip, aplace[u], v, coeff))]

    x_left, x_right, _, _ = x_mod.basis_slots
    vmax = 1 + int(max(vertices.max(), x_left.max(initial=0), x_right.max(initial=0)))
    x_slot = x_left * vmax + x_right
    by_slot = join_index(x_slot)
    lt, rt = x_mod.left, x_mod.right  # (a, x, a x, coeff) and (x, a, x a, coeff), sorted
    acts = ((lt, lt.x * width + lt.y, lambda a, x: a * width + x),
            (rt, rt.x * dim + rt.y, lambda a, x: x * dim + a))

    def differential(n: int) -> tuple[np.ndarray, ...]:
        """d^n as (col, row, val), nonzero mod p, by col and then row."""
        below, above = cells[n], cells[n + 1]
        nrows = max(1, len(above[0]) * width)
        keys, vals = [], []
        for (cell, lower, a, c), (table, table_key, key_of) in zip(faces[n], acts):
            # each term with each x in its lower cell's slot
            s, xs = half_join(below[0][lower] * vmax + below[1][lower], by_slot)
            o, f = _within(table_key, key_of(a[s], xs))  # and each term of the action on x
            s, xs = s[o], xs[o]
            keys.append((lower[s] * width + xs) * nrows + cell[s] * width + table.t[f])
            vals.append(c[s] * table.c[f])
        key, val = _summed(np.concatenate(keys), np.concatenate(vals), p)
        col, row = np.divmod(key, nrows)
        cell, y = np.divmod(row, max(1, width))
        if (x_slot[y] != above[0][cell] * vmax + above[1][cell]).any():
            raise AssertionError(f"d^{n} leaves the slot-matched cochains")
        return col, row, val

    d0, d1 = differential(0), differential(1)
    o, e = _within(d1[0], d0[1])  # d^1 . d^0 = 0
    if len(_summed(d0[0][o] * max(1, len(g) * width) + d1[1][e], d0[2][o] * d1[2][e], p)[0]):
        raise AssertionError("d^1 . d^0 does not vanish")
    sizes = [len(half_join(cl * vmax + cr, by_slot)[0]) for cl, cr in cells]
    ranks = [len(coo_pivot_rows(*d, p)) for d in (d0, d1)] + [0]
    dims = [sizes[n] - ranks[n] - (ranks[n - 1] if n else 0) for n in range(3)]

    # a process that never imported logging has no handler for these DEBUG records
    if (logging := sys.modules.get("logging")) is not None:
        log = logging.getLogger(__name__)
        log.debug("morse presentation arrows=%d tips=%d normal words by length=%s",
                  len(arrows), len(g), pres.words)
        for n, nnz in enumerate((len(d0[0]), len(d1[0]), 0)):
            log.debug("morse cochains n=%d cells=%d nnz=%d rank=%d", n, sizes[n], nnz, ranks[n])
    return (dims + [0] * n_max)[:n_max + 1]
