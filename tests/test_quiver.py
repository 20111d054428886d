import numpy as np
import pytest

from hh2 import quiver
from hh2.exactlin import NotOddPrime, rank, zeros
from hh2.quiver import IncompatibleAlgebras
from presentations import arrow_images, dual_presentation, zigzag_presentation
from tables import (as_dict, column_map, ideal_partner, in_ideal, omega_key, theta_partner,
                    theta_sigma_index)
from tensor_products import tensor_basis

# -- degree additivity of every product, for algebras and bimodules ----------
# (the methods ``BasedAlgebra.check_degrees`` and ``BasedBimodule.check_degrees``,
# which only these tests called, moved here; each takes its object as
# ``self`` and reads its tables through ``as_dict``; so did
# ``BasedAlgebra.check_unit_and_idempotents`` and ``OmegaAlgebra.center_basis``)


def check_algebra_degrees(self) -> None:
    for (i, j), prod in as_dict(self.products).items():
        bi, bj = self.basis[i], self.basis[j]
        for idx in prod:
            b = self.basis[idx]
            if (b.j, b.k) != (bi.j + bj.j, bi.k + bj.k):
                raise AssertionError(f"degree additivity fails on {bi.name}*{bj.name}")


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


def center_basis(self) -> list:
    """Omega's central elements: powers of the canonical degree-(-2,2) loop."""
    out = []
    for ell in range(self.p):
        combo = {omega_key(self)[(s, ell, ell)]: 1 for s in range(ell + 1, self.p + 1)}
        out.append(combo)
    return out


def check_bimodule_degrees(self) -> None:
    alg_basis, basis = self.over.basis, self.basis
    for side, table, x_basis, y_basis in (("left", self.left, alg_basis, basis),
                                          ("right", self.right, basis, alg_basis)):
        for (i, m), prod in as_dict(table).items():
            x, y = x_basis[i], y_basis[m]
            for idx in prod:
                b = basis[idx]
                if (b.j, b.k) != (x.j + y.j, x.k + y.k):
                    raise AssertionError(f"{side} degree additivity fails in {self.name}")


def test_zigzag_dimensions():
    for p, dim in ((3, 9), (5, 17), (7, 25)):
        c = quiver.build_zigzag_c(p)
        assert c.dim == dim == 4 * p - 3


def test_zigzag_rejects_non_prime():
    with pytest.raises(NotOddPrime):
        quiver.build_zigzag_c(4)


def test_zigzag_structure():
    for p in (3, 5):
        c = quiver.build_zigzag_c(p)
        c.check_associativity()
        check_unit_and_idempotents(c)
        check_algebra_degrees(c)
        # the up-down loop at the top vertex vanishes
        top = c.mul_basis(c.eta[p - 1], c.xi[p - 1])
        assert top == {}
        # the two loops at an inner vertex agree up to sign
        for s in range(1, p - 1):
            down_up = c.mul_basis(c.eta[s], c.xi[s])
            assert down_up == {c.loop[s + 1]: p - 1}
        # all length-3 words vanish
        gens = [c.xi[m] for m in c.xi] + [c.eta[m] for m in c.eta]
        for g1 in gens:
            for g2 in gens:
                prod = c.mul_basis(g1, g2)
                for idx in prod:
                    for g3 in gens:
                        assert c.mul(prod, {g3: 1}) == {}
                        assert c.mul({g3: 1}, prod) == {}


def _free_walks(p, length):
    """All vertex walks of the given length on the path graph 1..p."""
    walks = [(v,) for v in range(1, p + 1)]
    for _ in range(length):
        walks = [w + (v,) for w in walks for v in (w[-1] - 1, w[-1] + 1)
                 if 1 <= v <= p]
    return walks


def _quotient_dims_by_length(p, max_len):
    """Independent oracle for the quadratic dual: free paths modulo the ideal
    generated by the stated relations, computed degreewise by linear algebra.

    Walks are vertex sequences; a relation is a linear combination of length-2
    walks. This uses no rewriting at all.
    """
    relations = [({(1, 2, 1): 1}, 1)]  # up-down loop at the bottom vanishes
    for v in range(2, p):
        relations.append(({(v, v + 1, v): 1, (v, v - 1, v): -1}, v))
    dims = []
    for n in range(max_len + 1):
        walks = _free_walks(p, n)
        index = {w: i for i, w in enumerate(walks)}
        rows = []
        if n >= 2:
            for rel, _v in relations:
                for i in range(n - 1):
                    # walks with a relation spliced at positions i..i+2
                    for w in walks:
                        row = {}
                        fits = False
                        for seg, coeff in rel.items():
                            if w[i:i + 3] == seg:
                                fits = True
                        if not fits:
                            continue
                        base = None
                        for seg, coeff in rel.items():
                            if w[i:i + 3] == seg:
                                base = w
                                break
                        for seg, coeff in rel.items():
                            spliced = base[:i] + seg + base[i + 3:]
                            row[index[spliced]] = (row.get(index[spliced], 0) + coeff) % p
                        rows.append(row)
        mat = zeros(len(rows), len(walks))
        for r, row in enumerate(rows):
            for c, coeff in row.items():
                mat[r, c] = coeff
        dims.append(len(walks) - rank(mat, p))
    return dims


@pytest.mark.parametrize("p", [3, 5])
def test_omega_dimension_against_free_quotient(p):
    om = quiver.build_omega(p)
    by_len = {}
    for b in om.basis:
        by_len[b.k] = by_len.get(b.k, 0) + 1
    oracle = _quotient_dims_by_length(p, 2 * (p - 1) + 1)
    for n, d in enumerate(oracle):
        assert by_len.get(n, 0) == d, (n, by_len.get(n, 0), d)
    assert oracle[-1] == 0  # nothing above the socle degree
    assert om.dim == sum(oracle)


def test_omega_relations_and_center():
    for p in (3, 5):
        om = quiver.build_omega(p)
        check_unit_and_idempotents(om)
        check_algebra_degrees(om)
        if p == 3:
            om.check_associativity()
        # x1 y1 = 0
        y1 = omega_key(om)[(1, 0, 1)]
        x1 = omega_key(om)[(2, 1, 0)]
        assert om.mul_basis(x1, y1) == {}
        # commutation at inner vertices: up-down = down-up
        for v in range(2, p):
            up_down = om.mul_basis(omega_key(om)[(v + 1, 1, 0)], omega_key(om)[(v, 0, 1)])
            down_up = om.mul_basis(omega_key(om)[(v - 1, 0, 1)], omega_key(om)[(v, 1, 0)])
            assert up_down == down_up == {omega_key(om)[(v, 1, 1)]: 1}
        # center F[z]/z^p
        center = center_basis(om)
        assert len(center) == p
        z = center[1]
        acc = dict(z)
        for ell in range(2, p):
            acc = om.mul(acc, z)
            assert acc == center[ell]
        assert om.mul(acc, z) == {}
        # z^l e_s nonzero exactly for s >= l+1
        for ell in range(p):
            support = sorted({om.basis[i].right for i in center[ell]})
            assert support == list(range(ell + 1, p + 1))


def test_omega_p3_socle_examples():
    om = quiver.build_omega(3)
    assert (3, 2, 2) in omega_key(om)  # z^2 e_3 survives
    assert (2, 2, 2) not in omega_key(om)  # z^2 e_2 = 0
    assert (1, 2, 2) not in omega_key(om)


def test_theta_dimensions_and_vanishing():
    for p, dim in ((3, 4), (5, 20), (7, 56)):
        om = quiver.build_omega(p)
        th = quiver.quotient_theta(om)
        assert th.dim == dim == (p ** 3 - p) // 6
        assert all(b.left != p and b.right != p for b in th.basis)
    # z^{(p-1)/2} dies in the quotient, z^{(p-3)/2} e_{(p-1)/2} survives
    for p in (3, 5, 7):
        om = quiver.build_omega(p)
        th_bim = quiver.quotient_theta(om)
        h = (p - 1) // 2
        names = {b.name for b in th_bim.basis}
        surviving = quiver.monomial_name((p - 1) // 2, h - 1, h - 1)
        assert surviving in names
        for s in range(1, p + 1):
            assert quiver.monomial_name(s, h, h) not in names


def test_theta_bimodule_axioms(maps3, maps5):
    for nm in (maps3, maps5):
        nm.theta.check_bimodule()
        check_bimodule_degrees(nm.theta)
        nm.theta_sigma.check_bimodule()
        check_bimodule_degrees(nm.theta_sigma)
        nm.ideal.check_bimodule()
        nm.dual.check_bimodule()
        check_bimodule_degrees(nm.dual)


def test_twist_sigma_involution(maps5):
    th = maps5.theta
    ths = quiver.twist_sigma(th)
    back = quiver.twist_sigma(ths)
    assert [b.right for b in back.basis] == [b.right for b in th.basis]
    assert as_dict(back.right) == as_dict(th.right) and as_dict(back.left) == as_dict(th.left)


@pytest.mark.parametrize("p", (3, 5, 7))
def test_sub_and_quotient_modules_record_where_omega_monomials_sit(p):
    om = quiver.build_omega(p)
    theta = quiver.quotient_theta(om)
    for mod in (quiver.sub_ideal_epep(om), theta, quiver.twist_sigma(theta)):
        assert mod.position.shape == (om.dim,), mod.name
        assert (mod.position[mod.parent_index] == np.arange(mod.dim)).all(), mod.name
        off = np.ones(om.dim, dtype=bool)
        off[mod.parent_index] = False
        assert (mod.position[off] == -1).all(), mod.name


def test_twist_sigma_rejects_modules_seeing_top_vertex(maps3):
    with pytest.raises(IncompatibleAlgebras):
        quiver.twist_sigma(maps3.reg)


def test_dual_is_involutive_on_degrees(maps3):
    dd = quiver.dual(quiver.dual(maps3.theta))
    assert [(b.left, b.right, b.j, b.k) for b in dd.basis] == \
        [(b.left, b.right, b.j, b.k) for b in maps3.theta.basis]


def test_tensor_products(maps3, maps5):
    for nm in (maps3, maps5):
        _, free = tensor_basis(nm.ideal, nm.ideal)
        assert len(free) == nm.omega.dim  # matches the dual of the algebra
        assert tensor_basis(nm.theta, nm.ideal)[1] == []
        assert tensor_basis(nm.ideal, nm.theta)[1] == []


def test_tensor_rejects_mismatched_base(maps3, maps5):
    with pytest.raises(IncompatibleAlgebras):
        tensor_basis(maps3.theta, maps5.theta)


def test_theta_form_sigma_symmetry(maps5):
    # <a, a'> = <a', sigma(a)> for the degree-complement pairing
    om = maps5.omega
    th = maps5.theta
    pairs = {}
    for m in range(th.dim):
        m_omega = th.parent_index[m]
        pairs[m_omega] = int(om.theta_partner[m_omega])
    for a in list(pairs):
        # partner of the partner is the sigma image
        src, down, up = (int(w[a]) for w in om.words)
        sigma_a = omega_key(om)[(om.p - src, up, down)]
        assert pairs[pairs[a]] == sigma_a


def test_presentations_hold_in_built_algebras():
    for p in (3, 5, 7):
        c, c_pres = quiver.build_zigzag_c(p), zigzag_presentation(p)
        for value in c_pres.evaluate(c):
            assert value == {}
        om, om_pres, om_images = quiver.build_omega(p), dual_presentation(p), arrow_images(p)
        for value in om_pres.evaluate(om, om_images):
            assert value == {}
        # every relation is a sum of paths sharing one (source, target)
        for pres, alg, images in ((c_pres, c, {}), (om_pres, om, om_images)):
            arrows = {a.name: a for a in pres.arrows}
            for rel in pres.relations:
                slots = set()
                for word, _coeff in rel:
                    src = arrows[word[-1]].source
                    tgt = arrows[word[0]].target
                    slots.add((src, tgt))
                assert len(slots) == 1


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
def test_partner_arrays_match_the_per_index_formulas(p):
    om = quiver.build_omega(p)
    ideal = [in_ideal(om, i) for i in range(om.dim)]
    assert om.ideal_mask().tolist() == ideal
    assert om.sigma.tolist() == [-1 if ideal[i] else theta_sigma_index(om, i)
                                 for i in range(om.dim)]
    assert om.ideal_partner.tolist() == [ideal_partner(om, i) if ideal[i] else -1
                                         for i in range(om.dim)]
    assert om.theta_partner.tolist() == [-1 if ideal[i] else theta_partner(om, i)
                                         for i in range(om.dim)]
    # sigma and the beta-partner are involutions of their domains, off and
    # in the ideal, and the form partner applied twice is sigma
    off, on = np.flatnonzero(~om.ideal_mask()), np.flatnonzero(om.ideal_mask())
    assert (om.sigma[om.sigma[off]] == off).all()
    assert (om.ideal_partner[om.ideal_partner[on]] == on).all()
    assert (om.theta_partner[om.theta_partner[off]] == om.sigma[off]).all()
    for arr, domain in ((om.sigma, off), (om.ideal_partner, on), (om.theta_partner, off)):
        assert sorted(arr[domain].tolist()) == domain.tolist()


def test_wrong_degree_shift_fails_check_degree_shift(maps3):
    # the stated shift is off in j or in k, or the terms disagree on it
    mu = maps3.mu
    for dj, dk in ((mu.dj + 1, mu.dk), (mu.dj, mu.dk - 1)):
        with pytest.raises(AssertionError, match=r"^mu: inhomogeneous degree shift$"):
            quiver.BimoduleMap(mu.source, mu.target, mu.table, dj, dk, name="mu").check_degree_shift()
    om = maps3.omega
    mixed = column_map(maps3.reg, maps3.reg, [{m: 1} for m in range(om.dim - 1)] + [{0: 1}],
                       name="f")
    with pytest.raises(AssertionError, match=r"^f: inhomogeneous degree shift$"):
        mixed.check_degree_shift()
    mu.check_degree_shift()
