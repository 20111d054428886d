import sys

import numpy as np
import pytest

from hh2 import spadesuit
from hh2.clubsuit import NaturalMaps
from hh2.cli import run_verify
from hh2.exactlin import NotOddPrime
from hh2.koszulhh import HHClass, HHModule
from hh2.quiver import BimoduleMap, Table
from hh2.spadesuit import (CHI, CHIBAR_MINUS, CHIBARSTAR_MINUS, CHIUNDER,
                           OMEGA0, OUT_OF_WINDOW, augmentation, build_spade,
                           component_names, duality_form,
                           duality_form_checks, half, make_element,
                           verify_first_principles)
from spade_reference import chi_mul, chi_on_dual, truncate_to
from tables import component


def test_component_name_counts():
    for p in (3, 5, 7):
        assert len(component_names(p, CHI)) == 3 * p - 2
        assert len(component_names(p, CHIBAR_MINUS)) == 2 * (p - 1)
        assert len(component_names(p, CHIBARSTAR_MINUS)) == 2 * (p - 1)
        assert len(component_names(p, CHIUNDER)) == p
        assert len(component_names(p, OMEGA0)) == p


def test_build_rejects_bad_prime():
    with pytest.raises(NotOddPrime):
        build_spade(9, -1, 2)


def test_component_sizes_and_degrees():
    alg = build_spade(5, -3, 4)
    assert len(component(alg, 0, 0)) == 13
    assert len(component(alg, 1, 0)) == 5
    assert len(component(alg, 2, 0)) == 5
    alg3 = build_spade(3, -3, 4)
    assert len(component(alg3, 1, 0)) == 3
    # i = a + b = 0 elements are exactly the origin component
    i0 = [m for m in alg3.basis if m.i == 0]
    assert len(i0) == 7 and all((m.a, m.b) == (0, 0) for m in i0)
    # total degrees: j adds the slot shift
    el = make_element(5, -1, 0, ("z", 1))
    assert (el.j, el.k) == (-2 - 5, 2 + 4)
    el = make_element(5, 0, -1, ("soc", 1))
    assert (el.j, el.k) == (2 - 5, 5 - 2)
    el = make_element(5, 2, 1, ("z", 0))   # truncation copy on the plus side
    assert (el.j, el.k) == (5, (2 - 1) * (1 - 5) + 1)


def test_unit_and_augmentation():
    alg = build_spade(3, -2, 3)
    one = alg.unit()
    assert augmentation(one) == 1
    for m in alg.basis:
        if m is not one:
            assert augmentation(m) == 0
        r = alg.product(one, m)
        assert r == {m: 1}
    z = alg.basis[alg.index[(0, 0, ("z", 1))]]
    assert augmentation(z) == 0


def test_star_products():
    for p in (3, 5):
        h = (p - 1) // 2
        alg = build_spade(p, -2, 3)
        mu = alg.basis[alg.index[(0, -1, ("mu", h))]]
        prod = alg.product(mu, mu)
        got = {m.name: c for m, c in prod.items()}
        assert got == {("c2", h): 1, ("c2", h + 1): p - 1}
        assert all(m.a == 0 and m.b == -2 for m in prod)
        for s, other in ((h, ("soc", h)), (h + 1, ("soc", h + 1))):
            soc = alg.basis[alg.index[(0, -1, other)]]
            for left, right in ((soc, mu), (mu, soc)):
                prod = alg.product(left, right)
                got = {m.name: c for m, c in prod.items()}
                assert got == {("kz", h - 1): 1}


def test_triangle_and_diamond_products():
    for p in (3, 5):
        h = (p - 1) // 2
        alg = build_spade(p, -2, 3)
        zh = alg.basis[alg.index[(1, 0, ("z", h))]]
        prod = alg.product(zh, zh)
        got = {m.name: c for m, c in prod.items()}
        # square of the middle power hits every surviving vertex class; the
        # top-vertex component is the one recorded in the stated form
        assert got == {("e", s): 1 for s in range(h + 1, p + 1)}
        assert got[("e", p)] == 1
        one = alg.unit()
        ep = alg.basis[alg.index[(2, 0, ("e", p))]]
        prod = alg.product(one, ep)
        assert {m.name: c for m, c in prod.items()} == {("e", p): 1}
        # unit against e_p at target (2,0): identity action; the kernel-slot
        # image z^{p-1} appears for placements landing at (1,0)
        lower = alg.basis[alg.index[(-1, 0, ("z", 0))]]
        prod = alg.product(lower, ep)
        got = {(m.a, m.b, m.name): c for m, c in prod.items()}
        assert got == {(1, 0, ("z", p - 1)): 1}
        # e_s with s != p acts to zero there
        e1 = alg.basis[alg.index[(2, 0, ("e", 1))]]
        assert alg.product(lower, e1) == {}


def test_box_product():
    # unit (x) socle class lands on the matching vertex class; with the socle
    # on the left the odd suspension of the plus slot contributes a sign
    for p in (3, 5):
        alg = build_spade(p, -2, 3)
        for s in range(1, p):
            soc = alg.basis[alg.index[(0, -1, ("soc", s))]]
            one_plus = alg.basis[alg.index[(2, 1, ("z", 0))]]
            prod = alg.product(one_plus, soc)
            got = {(m.a, m.b, m.name): c for m, c in prod.items()}
            assert got == {(2, 0, ("e", s)): 1}
            prod = alg.product(soc, one_plus)
            got = {(m.a, m.b, m.name): c for m, c in prod.items()}
            assert got == {(2, 0, ("e", s)): p - 1}


def test_plus_side_zero_products():
    alg = build_spade(3, -3, 4)
    bar_plus = [m for m in alg.basis if m.kind == "chibar_plus"]
    for m1 in bar_plus:
        for m2 in bar_plus:
            r = alg.product(m1, m2)
            assert r in ({}, OUT_OF_WINDOW) or not r
    omega0 = [m for m in alg.basis if m.kind == OMEGA0]
    for m1 in omega0:
        for m2 in omega0:
            r = alg.product(m1, m2)
            assert not r or r is OUT_OF_WINDOW


def test_out_of_window_marker():
    alg = build_spade(3, -1, 2)
    z2 = alg.basis[alg.index[(-1, 0, ("z", 1))]]
    r = alg.product(z2, z2)  # lands at (-2, 0), outside the window
    assert r is OUT_OF_WINDOW
    # vacant slots are genuine zeros, not out-of-window
    soc = alg.basis[alg.index[(0, -1, ("soc", 1))]]
    under = alg.basis[alg.index[(1, 0, ("z", 1))]]
    assert alg.product(soc, under) == {}


def test_degree_additivity_of_products():
    for p in (3, 5):
        alg = build_spade(p, -2, 3)
        for m1 in alg.basis:
            for m2 in alg.basis:
                r = alg.product(m1, m2)
                if r is OUT_OF_WINDOW:
                    continue
                for m, _c in r.items():
                    assert (m.i, m.j, m.k) == (m1.i + m2.i, m1.j + m2.j, m1.k + m2.k)


def test_spade_product_wrapper():
    alg = build_spade(3, -1, 2)
    one = alg.unit()
    assert alg.product(one, one) == {one: 1}


def test_duality_form():
    for p in (3, 5):
        perfect, assoc = duality_form_checks(p)
        assert perfect and assoc
        h = (p - 1) // 2
        assert duality_form(p, ("nu", 1), ("z", 0)) == 1
        assert duality_form(p, ("mu", 1), ("kz", 0)) == half(p)
        assert duality_form(p, ("soc", h), ("c2", h)) == half(p)
        assert duality_form(p, ("soc", h + 1), ("c2", h + 1)) == (p - half(p)) % p


@pytest.mark.parametrize("p", [3, 5])
def test_verify_first_principles(p):
    rep = verify_first_principles(NaturalMaps(p))
    assert not rep.mismatches, rep.summary()
    reasons = rep.zero_reason_counts()
    # both zero mechanisms occur and are tagged
    assert reasons.get("tensor", 0) > 0
    assert reasons.get("degree", 0) > 0
    assert reasons.get("slot", 0) > 0
    if p == 3:
        assert (len(rep.cells), reasons) == (
            1591, {"class-degree": 586, "degree": 288, "slot": 336, "tensor": 192})


# Two mutations of one projected cup term, each made on the first projection
# onto one module's classes, which verify's first-principles check alone makes
# at p = 3: each must fail that check at the mutated cell, naming it in the
# report's summary

def _changed_coefficient(hh, out):
    """The first term's coefficient changed to another nonzero one."""
    val = out.val.copy()
    val[0] = val[0] % (hh.p - 1) + 1
    return out._replace(val=val)


def _moved_off_the_label(hh, out):
    """The first term moved onto a new class z^0, which chi_under, the label of
    the ideal's classes, lacks."""
    hh.classes.append(HHClass(("z", 0), 0, 0, 0, {}))
    n = out.n.copy()
    n[0] = len(hh.classes) - 1
    return out._replace(n=n)


MUTATED_TERMS = [(_changed_coefficient, "Theta"), (_moved_off_the_label, "OmegaEpOmega")]


def _mutate_first_projection(monkeypatch, mutate, module):
    """HHModule.project with its first nonzero result onto the module's
    classes mutated; returns [(the first term's class before, after, coeff
    before, after)] once that happened."""
    project, changed = HHModule.project, []

    def mutated(self, batch):
        out = project(self, batch)
        if not changed and self.model.x_mod.name == module and len(out.n):
            new = mutate(self, out)
            changed.append(tuple(self.classes[int(b.n[0])].name for b in (out, new))
                           + (int(out.val[0]), int(new.val[0])))
            out = new
        return out

    monkeypatch.setattr(HHModule, "project", mutated)
    return changed


@pytest.mark.parametrize("mutate, module", MUTATED_TERMS,
                         ids=[mutate.__name__.lstrip("_") for mutate, _ in MUTATED_TERMS])
def test_a_mutated_cup_term_is_a_mismatch(mutate, module, monkeypatch):
    changed = _mutate_first_projection(monkeypatch, mutate, module)
    rep = verify_first_principles(NaturalMaps(3))
    ((name, moved, c, new_c),) = changed
    # only the mutated cell fails, in each label triple that holds it, and
    # the first of them shows the term as the table and the cup have it
    assert rep.mismatches and len({m[1::2] for m in rep.mismatches}) == 1
    table, cup = rep.first
    assert table[name] == c and cup[moved] == new_c
    assert {n: v for n, v in table.items() if n != name} == {
        n: v for n, v in cup.items() if n != moved}
    assert len(rep.cells) == 1591
    assert [spadesuit.STATUSES[code] for code in rep.cells].count("mismatch") == len(
        rep.mismatches)
    assert "first" in rep.summary()

    changed.clear()
    results = {name: (status, detail) for name, status, detail in run_verify(3)}
    assert changed
    assert {name for name, (status, _) in results.items() if status == "FAIL"} == {
        "spade table vs cup (1591 cells)"}
    assert "; first " in results["spade table vs cup (1591 cells)"][1]


def test_moved_socle_embedding_entry_is_caught():
    # mu sends the value of soc_2's representative to another element of the
    # same slot of Omega*: the image stays a cochain of the dual model, but
    # is no longer e_2's representative
    nm = NaturalMaps(3)
    model, mu = nm.models["theta-sigma"], nm.mu
    (n,) = nm.homology["theta-sigma"].by_name[("soc", 2)].rep
    x, y, t, c = mu.table
    at = int(np.searchsorted(x, model.xi[n]))
    slot = [(b.left, b.right) for b in nm.dual.basis]
    other = next(i for i, s in enumerate(slot) if s == slot[t[at]] and i != t[at])
    nm.mu = BimoduleMap(mu.source, mu.target, Table(x, y, np.where(np.arange(len(t)) == at,
                                                                   other, t), c),
                        mu.dj, mu.dk, mu.name)
    with pytest.raises(AssertionError, match="socle embedding does not match class reps"):
        verify_first_principles(nm)


def test_half_coefficient_cells():
    # the signed one-half products of loop classes against socle classes
    for p in (3, 5):
        h = (p - 1) // 2
        alg = build_spade(p, -2, 3)
        for s in range(1, p):
            c2 = alg.basis[alg.index[(0, 0, ("c2", s))]]
            soc = alg.basis[alg.index[(0, -1, ("soc", s))]]
            want = (half(p) if (h - s) % 2 == 0 else (p - half(p)) % p)
            for left, right in ((c2, soc), (soc, c2)):
                prod = alg.product(left, right)
                got = {m.name: c for m, c in prod.items()}
                assert got == {("nu", 1): want}


def test_product_coefficients_in_allowed_set():
    for p in (3, 5):
        allowed = {1, p - 1, half(p), (p - half(p)) % p}
        alg = build_spade(p, -3, 4)
        for m1 in alg.basis:
            for m2 in alg.basis:
                r = alg.product(m1, m2)
                if r is OUT_OF_WINDOW:
                    continue
                for _el, c in r.items():
                    assert c % p in allowed


def test_augmentation_is_algebra_homomorphism():
    for p in (3, 5):
        alg = build_spade(p, -2, 3)
        for m1 in alg.basis:
            for m2 in alg.basis:
                r = alg.product(m1, m2)
                if r is OUT_OF_WINDOW:
                    continue
                lhs = sum(c * augmentation(el) for el, c in r.items()) % p
                rhs = (augmentation(m1) * augmentation(m2)) % p
                assert lhs == rhs


def _duality_form_checks_dense(p: int) -> tuple[bool, bool]:
    """The dense loop over every (dual, chi, truncation) name triple that
    ``duality_form_checks`` replaced, kept as its reference."""
    import numpy as np

    from hh2.exactlin import rank
    sig_names = component_names(p, CHIBARSTAR_MINUS)
    th_names = component_names(p, CHIBAR_MINUS)
    mat = np.zeros((len(sig_names), len(th_names)), dtype=np.int64)
    for i, n1 in enumerate(sig_names):
        for j, n2 in enumerate(th_names):
            mat[i, j] = duality_form(p, n1, n2)
    perfect = rank(mat, p) == len(sig_names) == len(th_names)

    chi_names = component_names(p, CHI)
    assoc = True
    for n_h in sig_names:
        for n_mid in chi_names:
            for n_t in th_names:
                rhs_combo = truncate_to(p, CHIBAR_MINUS, chi_mul(p, n_mid, n_t))
                lhs_combo = chi_on_dual(p, n_mid, n_h)  # right action value
                lhs = sum(c * duality_form(p, n2, n_t) for n2, c in lhs_combo.items()) % p
                rhs = sum(c * duality_form(p, n_h, n2) for n2, c in rhs_combo.items()) % p
                if lhs != rhs:
                    assoc = False
    return perfect, assoc


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_duality_form_checks_match_dense_loop(p):
    assert duality_form_checks(p) == _duality_form_checks_dense(p) == (True, True)


_form = spadesuit.duality_form


def _double_nu1_z0(p, n_sigma, n_theta):
    value = _form(p, n_sigma, n_theta)
    return 2 * value % p if (n_sigma, n_theta) == (("nu", 1), ("z", 0)) else value


def _negate_soc1_c2_1(p, n_sigma, n_theta):
    value = _form(p, n_sigma, n_theta)
    return -value % p if (n_sigma, n_theta) == (("soc", 1), ("c2", 1)) else value


@pytest.mark.parametrize("form", [_double_nu1_z0, _negate_soc1_c2_1])
@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_duality_form_checks_reject_a_perturbed_form(p, form, monkeypatch):
    # the check and its reference both read the perturbed form
    monkeypatch.setattr(spadesuit, "duality_form", form)
    monkeypatch.setattr(sys.modules[__name__], "duality_form", form)
    got = duality_form_checks(p)
    assert got == _duality_form_checks_dense(p)
    assert got[1] is False


def test_socle_embedding_off_the_dual_pairs_is_caught():
    # mu sends the value of soc_2's representative to an element of another
    # slot of Omega*: (e_2, that element) is no pair of the dual model
    nm = NaturalMaps(3)
    model, mu = nm.models["theta-sigma"], nm.mu
    (n,) = nm.homology["theta-sigma"].by_name[("soc", 2)].rep
    x, y, t, c = mu.table
    at = int(np.searchsorted(x, model.xi[n]))
    slot = [(b.left, b.right) for b in nm.dual.basis]
    other = next(i for i, s in enumerate(slot) if s != slot[t[at]])
    nm.mu = BimoduleMap(mu.source, mu.target, Table(x, y, np.where(np.arange(len(t)) == at,
                                                                   other, t), c),
                        mu.dj, mu.dk, mu.name)
    with pytest.raises(AssertionError, match="socle embedding left the diagonal"):
        verify_first_principles(nm)
