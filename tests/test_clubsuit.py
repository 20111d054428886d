import numpy as np
import pytest

from hh2.cli import _club_associativity
from hh2.clubsuit import OUT_OF_WINDOW, ClubWindow, NaturalMaps, WindowTooSmall, component_at
from hh2.exactlin import rank
from hh2.koszulhh import KIND_DUAL, KIND_IDEAL, KIND_THETA, KIND_THETA_SIGMA
from hh2.quiver import Table

from club_reference import form_dict, module_of, product
from club_reference import product_table as reference_table
from club_reference import symmetry_form as reference_form
from tables import omega_key
from tensor_products import pairing_rank_on_tensor


def test_natural_maps_checks(maps3, maps5):
    for nm in (maps3, maps5):
        nm.check_maps()


def test_pairings_balanced_and_equivariant(maps3):
    maps3.check_pairings()


def test_beta_pairs_complementary_monomials(maps3):
    om = maps3.omega
    p = om.p
    for m in range(maps3.ideal.dim):
        idx = maps3.ideal.parent_index[m]
        src, down, up = (int(w[idx]) for w in om.words)
        partner = om.ideal_partner[idx]
        src2, down2, up2 = (int(w[partner]) for w in om.words)
        assert down + down2 == p - 1 and up + up2 == p - 1
        assert om.ideal_partner[partner] == idx


def test_eta_zeta_eps_isomorphisms(maps3, maps5):
    for nm in (maps3, maps5):
        for name in ("eta", "zeta_l", "zeta_r", "eps"):
            r, d = pairing_rank_on_tensor(nm, name)
            assert r == d == nm.omega.dim


def test_gamma_kernel_killed_by_top_idempotent(maps3):
    # kernel elements of gamma die under either multiplication by e_p
    nm = maps3
    om, p = nm.omega, 3
    ep = om.idem[p]
    for f in range(nm.dual.dim):
        if nm.gamma.table.get((f, 0)):
            continue
        left = nm.dual.left.get((ep, f), {})
        right = nm.dual.right.get((f, ep), {})
        assert not left and not right


def test_grid_shifts_match_stated_rows():
    p = 5
    assert component_at(p, -2, 0).jshift == -2 * p
    assert component_at(p, -2, 0).kshift == 2 * (p - 1)
    assert component_at(p, 0, -1).kind == KIND_THETA_SIGMA
    assert component_at(p, 0, -2).kind == KIND_THETA
    assert component_at(p, 1, 0).kind == KIND_IDEAL
    assert component_at(p, 1, 0).jshift == p and component_at(p, 1, 0).kshift == 1 - p
    assert component_at(p, 2, 0).kind == KIND_DUAL
    assert component_at(p, 2, 0).jshift == 2
    assert component_at(p, 3, 0).jshift == 2 + p
    assert component_at(p, 2, 1).kind == KIND_THETA
    assert component_at(p, 2, 1).jshift == p and component_at(p, 2, 1).kshift == 2 - p
    assert component_at(p, 2, 2).kind == KIND_THETA_SIGMA
    assert component_at(p, 1, 1) is None
    assert component_at(p, 0, 1) is None


def test_window_requires_rows_zero_and_one(maps3):
    with pytest.raises(WindowTooSmall):
        ClubWindow(maps3, 1, 2)


def test_club_products_examples(maps3):
    win = ClubWindow(maps3, -2, 3)
    ideal_comp = win.components[(1, 0)]
    dual_comp = win.components[(2, 0)]
    # (ideal).(ideal) lands in the dual component via the perfect pairing
    tgt, combo = product(win, ideal_comp, 0, ideal_comp, 0)
    assert tgt.kind == KIND_DUAL and (tgt.a, tgt.b) == (2, 0)
    # Theta- against the ideal is zero
    theta_comp = win.components[(0, -1)]
    for m1 in range(module_of(win, theta_comp).dim):
        for m2 in range(module_of(win, ideal_comp).dim):
            tgt, combo = product(win, theta_comp, m1, ideal_comp, m2)
            assert combo == {} or tgt is None
    # the unit of row 0 acts as identity on every component element
    omega_comp = win.components[(0, 0)]
    unit = [maps3.omega.idem[s] for s in (1, 2, 3)]
    for key, comp in win.components.items():
        mod = module_of(win, comp)
        for m in range(mod.dim):
            acc = {}
            for e in unit:
                tgt, combo = product(win, omega_comp, e, comp, m)
                if tgt not in (None, OUT_OF_WINDOW):
                    for idx, c in combo.items():
                        acc[idx] = (acc.get(idx, 0) + c) % 3
            assert acc == {m: 1}, (key, m)


def test_row0_row2_form_is_evaluation(maps3):
    win = ClubWindow(maps3, -1, 2)
    forms = win.symmetry_form(0)
    form, d1, d2 = forms[((0, 0), (2, 0))]
    mat = form_dict(form)
    # the dual basis is indexed like the algebra basis: evaluation pairing
    om = maps3.omega
    for u in range(d1):
        for v in range(d2):
            assert mat.get((u, v), 0) == (1 if u == v else 0)


def test_symmetry_forms_nondegenerate_p3(maps3):
    win = ClubWindow(maps3, -3, 4)
    for i in range(0, 3):
        for (_sa, _sb), (form, d1, d2) in win.symmetry_form(i).items():
            arr = np.zeros((d1, d2), dtype=np.int64)
            for (u, v), c in form_dict(form).items():
                arr[u, v] = c
            assert d1 == d2 and rank(arr, 3) == d1


def test_symmetry_form_needs_its_rows_in_the_window(maps3):
    with pytest.raises(WindowTooSmall):
        ClubWindow(maps3, -1, 2).symmetry_form(2)  # needs rows -2 and 4
    forms = ClubWindow(maps3, -2, 4).symmetry_form(2)
    assert ((-2, 0), (4, 0)) in forms


def test_products_off_the_target_module_are_zero(maps3):
    # rows -4..5 meet the collapse pairings listed at a theta-type target of
    # the other twist; they land outside the target's module, so they are 0
    assert _club_associativity(ClubWindow(maps3, -4, 5)) == (4514855, 0)


def test_theta_partner_involution_via_sigma(maps5):
    om = maps5.omega
    for m in maps5.theta.parent_index:
        q = om.theta_partner[m]
        src, down, up = (int(w[m]) for w in om.words)
        assert om.theta_partner[q] == omega_key(om)[(om.p - src, up, down)]


def total_degree(win, comp, idx):
    """(i, j, k) of a window element: ``ClubWindow.total_degree``, which only
    this test called, moved here with the window as ``win``."""
    b = module_of(win, comp).basis[idx]
    return comp.i, b.j + comp.jshift, b.k + comp.kshift


def test_club_products_degree_additive(maps3):
    win = ClubWindow(maps3, -2, 3)
    for key1, c1 in win.components.items():
        mod1 = module_of(win, c1)
        for key2, c2 in win.components.items():
            mod2 = module_of(win, c2)
            for m1 in range(mod1.dim):
                for m2 in range(mod2.dim):
                    tgt, combo = product(win, c1, m1, c2, m2)
                    if tgt in (None, OUT_OF_WINDOW):
                        continue
                    i1, j1, k1 = total_degree(win, c1, m1)
                    i2, j2, k2 = total_degree(win, c2, m2)
                    for idx in combo:
                        it, jt, kt = total_degree(win, tgt, idx)
                        assert (it, jt, kt) == (i1 + i2, j1 + j2, k1 + k2)


def test_structure_checks_at_larger_primes(maps5):
    for nm in (maps5, NaturalMaps(7)):
        nm.check_pairings()
        for mod in nm.modules.values():
            mod.check_bimodule()
        nm.omega.check_associativity()


@pytest.mark.parametrize("p, i_min, i_max", [(3, -2, 3), (3, -3, 4), (3, -4, 5),
                                             (5, -2, 3), (5, -3, 4), (7, -2, 3)])
def test_product_table_matches_the_pair_reference(p, i_min, i_max, maps3, maps5):
    nm = {3: maps3, 5: maps5}.get(p) or NaturalMaps(p)
    win = ClubWindow(nm, i_min, i_max)
    got, want = win.product_table(), reference_table(win)
    assert got.n == want.n
    for a, b in zip(got.terms, want.terms):
        assert np.array_equal(a, b)
    assert len(got.out[0]) == len(want.out[0])
    assert set(zip(*(a.tolist() for a in got.out))) == set(zip(*(a.tolist() for a in want.out)))


@pytest.mark.parametrize("p", [3, 5])
def test_symmetry_forms_match_the_pair_reference(p, maps3, maps5):
    win = ClubWindow(maps3 if p == 3 else maps5, -2, 4)
    for i in range(0, 3):
        want = reference_form(win, i)
        got = win.symmetry_form(i)
        assert list(got) == list(want)
        for key, (form, d1, d2) in got.items():
            assert (form_dict(form), d1, d2) == want[key]


def test_corrupted_action_fails_club_associativity():
    nm = NaturalMaps(3)
    pairing = nm.pairings["act_l:omega-dual"]
    x, y, t, c = pairing.table
    c = c.copy()
    c[0] = c[0] % 3 + 1  # another nonzero coefficient
    pairing.table = Table(x, y, t, c)
    _checked, failed = _club_associativity(ClubWindow(nm, -3, 4))
    assert failed > 0
