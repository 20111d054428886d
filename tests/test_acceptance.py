"""Acceptance suite: one test per stated criterion, with a pass line each.

Every expected value here is exact (integer arithmetic over the prime field);
the time limits are generous wall-clock ceilings checked against a monotonic
timer.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import time

import numpy as np

from hh2.clubsuit import ClubWindow, NaturalMaps
from hh2.cli import _club_associativity
from hh2.exactlin import rank
from hh2.koszulhh import bar_oracle as morse_oracle
from hh2.koszulhh import build_model, homology_named
from hh2.operators import build_hhl
from hh2.spadesuit import (OUT_OF_WINDOW, build_spade, component_names,
                           duality_form, duality_form_checks, name_table,
                           verify_first_principles)

from bar_reference import bar_oracle
from batches import cup_rows
from club_reference import basis, form_dict, product, socle_evaluation
from model_reference import project_one
from spade_reference import chi_mul
from tower_reference import project

PASS_LINES = []


def report(criterion: str, elapsed: float) -> None:
    line = f"ACCEPTANCE PASS  {criterion}  ({elapsed:.2f}s)"
    PASS_LINES.append(line)
    print("\n" + line)


def build_named(p):
    nm = NaturalMaps(p)
    mods = nm.modules
    models = {k: build_model(nm.c, m) for k, m in mods.items()}
    return nm, mods, models, {k: homology_named(models[k], k) for k in mods}


def test_criterion_1_hh_omega_p5():
    t0 = time.monotonic()
    _nm, _mods, _models, hhs = build_named(5)
    degs = sorted((cl.j, cl.k) for cl in hhs["omega"].classes)
    want = sorted([(2, 0)] * 4 + [(0, 0), (0, 1), (-2, 2), (-2, 3),
                                  (-4, 4), (-4, 5), (-6, 6), (-6, 7), (-8, 8)])
    assert len(hhs["omega"].classes) == 13 and degs == want
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report("1: HH(Omega) at p=5 has the 13 stated (j,k) classes, <1s", elapsed)


def test_criterion_2_bimodule_cases_p5():
    t0 = time.monotonic()
    _nm, _mods, _models, hhs = build_named(5)
    assert sorted((c.j, c.k) for c in hhs["theta"].classes) == \
        sorted([(2, 0)] * 4 + [(0, 0), (0, 1), (-2, 2), (-2, 3)])
    assert sorted((c.j, c.k) for c in hhs["theta-sigma"].classes) == \
        sorted([(1, 0), (1, 1), (-1, 2), (-1, 3)] + [(-3, 3)] * 4)
    assert sorted((c.j, c.k) for c in hhs["omega-ep-omega"].classes) == \
        sorted([(-4, 4), (-4, 5), (-6, 6), (-6, 7), (-8, 8)])
    dual_degs = {(c.j, c.k) for c in hhs["omega-dual"].classes}
    assert len(hhs["omega-dual"].classes) == 5 and dual_degs == {(0, 0)}
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report("2: the four bimodule coefficient tables at p=5, <5s", elapsed)


def test_criterion_3_dimension_laws():
    t0 = time.monotonic()
    for p in (3, 5, 7):
        _nm, _mods, _models, hhs = build_named(p)
        assert len(hhs["omega"].classes) == 3 * p - 2
        assert len(hhs["theta"].classes) == 2 * (p - 1)
        assert len(hhs["theta-sigma"].classes) == 2 * (p - 1)
        assert len(hhs["omega-dual"].classes) == p
        assert len(hhs["omega-ep-omega"].classes) == p
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report("3: closed-form dimension laws for p in {3,5,7}, <30s", elapsed)


def test_criterion_4_oracle_equivalence():
    t0 = time.monotonic()
    for p, h_max in ((3, 4), (5, 3)):
        nm, mods, _models, hhs = build_named(p)
        for kind, mod in mods.items():
            assert bar_oracle(nm.omega, mod, h_max) == hhs[kind].dims_by_h(h_max), \
                (p, kind)
    # the Morse-reduced oracle reaches every degree: its cells stop at 2
    for p in (3, 5, 7):
        nm, mods, _models, hhs = build_named(p)
        for kind, mod in mods.items():
            assert morse_oracle(nm.omega, mod, 4) == hhs[kind].dims_by_h(4), (p, kind)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    report("4: reduced bar oracle = Koszul model dims (p=3 h<=4, p=5 h<=3), "
           "Morse oracle = model (p=3,5,7 h<=4), <5min", elapsed)


def test_criterion_5_chi_presentation():
    t0 = time.monotonic()
    for p in (3, 5):
        nm, _mods, models, hhs = build_named(p)
        chi = hhs["omega"]
        mult = nm.pairings["mult"]
        reps = [cl.rep for cl in chi.classes]
        rows = cup_rows(models["omega"], reps, models["omega"], reps, mult, models["omega"])
        for u, row in zip(chi.classes, rows):
            for v, w in zip(chi.classes, row):
                got = project_one(chi, w)
                assert got == chi_mul(p, u.name, v.name), (p, u.name, v.name)
    elapsed = time.monotonic() - t0
    report("5: chi cup table = presented algebra exactly, all basis pairs", elapsed)


def test_criterion_6_duality_pairing():
    t0 = time.monotonic()
    for p in (3, 5):
        perfect, assoc = duality_form_checks(p)
        assert perfect, f"pairing degenerate at p={p}"
        assert assoc, f"pairing not associative at p={p}"
        # rank equals the full 2(p-1)
        from hh2.spadesuit import CHIBAR_MINUS, CHIBARSTAR_MINUS, component_names
        sig = component_names(p, CHIBARSTAR_MINUS)
        th = component_names(p, CHIBAR_MINUS)
        mat = np.zeros((len(sig), len(th)), dtype=np.int64)
        for i, n1 in enumerate(sig):
            for j, n2 in enumerate(th):
                mat[i, j] = duality_form(p, n1, n2)
        assert rank(mat, p) == 2 * (p - 1)
    elapsed = time.monotonic() - t0
    report("6: duality pairing perfect (rank 2(p-1)) and associative, p in {3,5}",
           elapsed)


def test_criterion_7_club_window():
    t0 = time.monotonic()
    win = ClubWindow(NaturalMaps(3), -3, 4)
    checked, bad = _club_associativity(win)
    assert bad == 0 and checked > 1_000_000
    assert (checked, bad) == (1676825, 0)
    for i in range(0, 3):
        for (_sa, _sb), (form, d1, d2) in win.symmetry_form(i).items():
            arr = np.zeros((d1, d2), dtype=np.int64)
            for (u, v), c in form_dict(form).items():
                arr[u, v] = c
            assert d1 == d2 and rank(arr, 3) == d1
    # form associativity |ab, c| = |a, bc| over in-window triples
    elems = basis(win)
    prods = {}
    for i, (c1, m1) in enumerate(elems):
        for j, (c2, m2) in enumerate(elems):
            prods[(i, j)] = product(win, c1, m1, c2, m2)
    idx_of = {((c.a, c.b), m): i for i, (c, m) in enumerate(elems)}
    bad = 0
    for i, (ci, mi) in enumerate(elems):
        for j, (cj, mj) in enumerate(elems):
            for k, (ck, mk) in enumerate(elems):
                if ci.i + cj.i + ck.i != 2:
                    continue
                tl, rl = prods[(i, j)]
                tr, rr = prods[(j, k)]
                if tl is OUT_OF_WINDOW or tr is OUT_OF_WINDOW:
                    continue
                lhs = 0
                if tl is not None:
                    for m, c in rl.items():
                        t2, r2 = prods[(idx_of[((tl.a, tl.b), m)], k)]
                        if t2 is OUT_OF_WINDOW:
                            lhs = None
                            break
                        if t2 is not None and (t2.a, t2.b) == (2, 0):
                            lhs = (lhs + c * socle_evaluation(win, r2)) % 3
                rhs = 0
                if tr is not None:
                    for m, c in rr.items():
                        t2, r2 = prods[(i, idx_of[((tr.a, tr.b), m)])]
                        if t2 is OUT_OF_WINDOW:
                            rhs = None
                            break
                        if t2 is not None and (t2.a, t2.b) == (2, 0):
                            rhs = (rhs + c * socle_evaluation(win, r2)) % 3
                if lhs is not None and rhs is not None and lhs != rhs:
                    bad += 1
    assert bad == 0
    elapsed = time.monotonic() - t0
    report("7: club window p=3 rows -3..4: associative; form nondegenerate"
           " and associative", elapsed)


def test_criterion_8_spade_verification():
    t0 = time.monotonic()
    for p in (3, 5):
        rep = verify_first_principles(NaturalMaps(p))
        assert not rep.mismatches, rep.summary()
        # so every name table the check compared is its cup table; the named
        # formulas are cells of those tables
        h = (p - 1) // 2

        def cell(label1, name1, label2, name2, target):
            names = [component_names(p, label) for label in (label1, label2, target)]
            u, v, t, c = name_table(p, label1, label2, target)
            at = (u == names[0].index(name1)) & (v == names[1].index(name2))
            return {names[2][x]: y for x, y in zip(t[at].tolist(), c[at].tolist())}

        star = cell("chibar_star_minus", ("mu", h), "chibar_star_minus", ("mu", h),
                    "chibar_minus")
        assert star == {("c2", h): 1, ("c2", h + 1): p - 1}
        tri = cell("chi_under", ("z", h), "chi_under", ("z", h), "omega0_plus")
        assert tri[("e", p)] == 1  # top-vertex value as stated
        diam = cell("chi", ("z", 0), "omega0_plus", ("e", p), "chi_under")
        assert diam == {("z", p - 1): 1}
        box = cell("chibar_plus", ("z", 0), "chibar_star_minus", ("soc", 1), "omega0_plus")
        assert box == {("e", 1): 1}
        half = (p + 1) // 2
        signed = cell("chi", ("c2", h), "chibar_star_minus", ("soc", h), "chibar_star_minus")
        assert signed == {("nu", 1): half}  # + one-half at s = h
        signed = cell("chi", ("c2", h + 1), "chibar_star_minus", ("soc", h + 1),
                      "chibar_star_minus")
        assert signed == {("nu", 1): (p - half) % p}  # - one-half next door
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report("8: spade table = first-principles cup on every cell (p=3,5), "
           "including star/diamond/box/triangle and the signed halves, <2min",
           elapsed)


def test_criterion_9_tower():
    t0 = time.monotonic()
    for p in (3, 5):
        spade = build_spade(p, -3, 4)
        hh0 = build_hhl(p, 0, spade)
        assert hh0.dim == 1
        hh1 = build_hhl(p, 1, spade)
        assert hh1.dim == 3 * p - 2
        for e1 in hh1.basis:
            for e2 in hh1.basis:
                got = {el.factors[0].name: c for el, c in hh1.product(e1, e2).items()}
                assert got == chi_mul(p, e1.factors[0].name, e2.factors[0].name)
    p = 3
    spade = build_spade(p, -3, 4)
    hh1 = build_hhl(p, 1, spade)
    hh2_ = build_hhl(p, 2, spade, k_max=12)
    images = set()
    for el in hh2_.basis:
        images.update(project(hh2_, el, hh1))
    assert all(el in images for el in hh1.basis)
    for e1, e2 in itertools.product(hh2_.basis, hh2_.basis):
        pr = hh2_.product(e1, e2)
        if pr is OUT_OF_WINDOW:
            continue
        lhs: dict = {}
        for el, c in pr.items():
            for im, ci in project(hh2_, el, hh1).items():
                lhs[im] = (lhs.get(im, 0) + c * ci) % p
        rhs: dict = {}
        for i1, c1 in project(hh2_, e1, hh1).items():
            for i2, c2 in project(hh2_, e2, hh1).items():
                r = hh1.product(i1, i2)
                if r is not OUT_OF_WINDOW:
                    for el, c in r.items():
                        rhs[el] = (rhs.get(el, 0) + c1 * c2 * c) % p
        assert {a: b for a, b in lhs.items() if b} == {a: b for a, b in rhs.items() if b}
    elapsed = time.monotonic() - t0
    report("9: hh_0 = F, hh_1 = chi (p=3,5); hh_2 -> hh_1 surjective and"
           " multiplicative (p=3, k<=12)", elapsed)


def test_criterion_10_supercommutativity():
    t0 = time.monotonic()
    # chi
    for p in (3, 5):
        nm, _mods, models, hhs = build_named(p)
        chi = hhs["omega"]
        mult = nm.pairings["mult"]
        reps = [cl.rep for cl in chi.classes]
        rows = cup_rows(models["omega"], reps, models["omega"], reps, mult, models["omega"])
        for i, u in enumerate(chi.classes):
            for j, v in enumerate(chi.classes):
                uv, vu = project_one(chi, rows[i][j]), project_one(chi, rows[j][i])
                sign = -1 if (u.k * v.k) % 2 else 1
                assert uv == {n: c for n, c in ((n, (sign * c) % p)
                                                for n, c in vu.items()) if c}
    # spade diagonal (b = 0 slots) and the full window, p=3
    p = 3
    alg = build_spade(p, -3, 4)
    diag = [m for m in alg.basis if m.b == 0]
    for m1 in diag:
        for m2 in diag:
            r12 = alg.product(m1, m2)
            r21 = alg.product(m2, m1)
            if r12 is OUT_OF_WINDOW or r21 is OUT_OF_WINDOW:
                continue
            sign = -1 if (m1.k * m2.k) % 2 else 1
            assert r12 == {el: c for el, c in
                           ((el, (sign * c) % p) for el, c in r21.items()) if c}
    # tower levels up to 2
    for level in (1, 2):
        alg_l = build_hhl(p, level, alg, k_max=12)
        for e1, e2 in itertools.product(alg_l.basis, alg_l.basis):
            r12 = alg_l.product(e1, e2)
            r21 = alg_l.product(e2, e1)
            if r12 is OUT_OF_WINDOW or r21 is OUT_OF_WINDOW:
                continue
            sign = -1 if (e1.k * e2.k) % 2 else 1
            assert r12 == {el: c for el, c in
                           ((el, (sign * c) % p) for el, c in r21.items()) if c}
    elapsed = time.monotonic() - t0
    report("10: supercommutativity of chi, spade diagonal, and hh_l (l<=2, p=3)",
           elapsed)


def test_zz_summary():
    print("\n" + "\n".join(PASS_LINES))
    assert len(PASS_LINES) == 10
