import itertools

from hh2.operators import build_hhl, project
from hh2.spadesuit import OUT_OF_WINDOW, build_spade
from spade_reference import chi_mul
from tower_reference import apply_operator, hilbert_series, laurent_window


def test_ground_field_operator_picks_degree_zero():
    lau = laurent_window(3, -4, 4)
    out = apply_operator(None, lau)
    assert out.dim == 1 and out.basis[0].j == 0 and out.basis[0].k == 0


def test_operator_basis_is_j_matched():
    spade = build_spade(3, -2, 3)
    lau = laurent_window(3, -20, 20)
    out = apply_operator(spade, lau)
    # pairs (m, z^{j(m)}): one per grid basis element inside the z-window
    assert out.dim == spade.dim
    for b in out.basis:
        g, skey = b.key
        assert skey == ("z", g.j)


def test_super_sign_in_operator_product():
    # two odd-k factors anticommute through the tensor ordering
    spade = build_spade(3, -2, 3)
    lau = laurent_window(3, -20, 20)
    s1 = apply_operator(spade, lau)
    kappa = next(b for b in s1.basis
                 if b.key[0].name == ("kz", 0) and b.key[0].a == 0)
    one = next(b for b in s1.basis
               if b.key[0].name == ("z", 0) and (b.key[0].a, b.key[0].b) == (0, 0))
    # sanity: unit still the unit after one application
    assert s1.mul(one, kappa) == {kappa: 1}
    # the two-factor tensors one (x) kappa and kappa (x) one, both odd total k
    alg = build_hhl(3, 2, spade)
    uk = None
    ku = None
    for el in alg.basis:
        names = tuple(m.name for m in el.factors)
        spots = tuple((m.a, m.b) for m in el.factors)
        if names == (("z", 0), ("kz", 0)) and spots == ((0, 0), (0, 0)):
            uk = el
        if names == (("kz", 0), ("z", 0)) and spots == ((0, 0), (0, 0)):
            ku = el
    r1 = alg.product(uk, ku)
    r2 = alg.product(ku, uk)
    assert r1 == {el: (-c) % 3 for el, c in r2.items()}  # odd-odd anticommute
    assert list(r1.values()) != []


def test_hh0_and_hh1():
    for p in (3, 5):
        spade = build_spade(p, -3, 4)
        hh0 = build_hhl(p, 0, spade)
        assert hh0.dim == 1
        hh1 = build_hhl(p, 1, spade)
        assert hh1.dim == 3 * p - 2
        # graded algebra isomorphism with the origin component
        for e1 in hh1.basis:
            for e2 in hh1.basis:
                got = {el.factors[0].name: c for el, c in hh1.product(e1, e2).items()}
                assert got == chi_mul(p, e1.factors[0].name, e2.factors[0].name)


def test_hh1_alpha_matches_j():
    spade = build_spade(3, -3, 4)
    hh1 = build_hhl(3, 1, spade)
    for el in hh1.basis:
        assert el.alpha == el.factors[0].j


def test_hh2_basis_equals_bruteforce_weight_zero():
    p = 3
    spade = build_spade(p, -2, 3)
    alg = build_hhl(p, 2, spade, k_max=8)
    brute = set()
    for m1, m2 in itertools.product(spade.basis, spade.basis):
        if m1.i != 0 or m2.i != m1.j:
            continue
        alpha = m2.j
        k = m1.k + m2.k
        if k <= 8:
            brute.add(((m1.a, m1.b, m1.name), (m2.a, m2.b, m2.name), alpha))
    got = {tuple((m.a, m.b, m.name) for m in el.factors) + (el.alpha,) for el in alg.basis}
    got = {(f1, f2, alpha) for (f1, f2, alpha) in got}
    assert got == brute


def test_projection_examples():
    p = 3
    spade = build_spade(p, -3, 4)
    hh1 = build_hhl(p, 1, spade)
    hh0 = build_hhl(p, 0, spade)
    unit1 = next(el for el in hh1.basis if el.factors[0].name == ("z", 0))
    img = project(hh1, unit1, hh0)
    assert list(img.values()) == [1]
    z = next(el for el in hh1.basis if el.factors[0].name == ("z", 1))
    assert project(hh1, z, hh0) == {}

    hh2_ = build_hhl(p, 2, spade, k_max=12)
    images = set()
    for el in hh2_.basis:
        images.update(project(hh2_, el, hh1))
    assert all(el in images for el in hh1.basis)
    # anything with a non-unit outer factor dies
    for el in hh2_.basis:
        if el.factors[0].name != ("z", 0) or (el.factors[0].a, el.factors[0].b) != (0, 0):
            assert project(hh2_, el, hh1) == {}


def test_projection_multiplicative():
    p = 3
    spade = build_spade(p, -3, 4)
    hh1 = build_hhl(p, 1, spade)
    hh2_ = build_hhl(p, 2, spade, k_max=12)
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
                if r is OUT_OF_WINDOW:
                    continue
                for el, c in r.items():
                    rhs[el] = (rhs.get(el, 0) + c1 * c2 * c) % p
        assert {a: b for a, b in lhs.items() if b} == {a: b for a, b in rhs.items() if b}


def test_iteration_matches_direct_enumeration():
    p = 3
    spade = build_spade(p, -2, 3)
    jmin = min(m.j for m in spade.basis)
    jmax = max(m.j for m in spade.basis)
    lau = laurent_window(p, jmin, jmax)
    s1 = apply_operator(spade, lau)
    s2 = apply_operator(spade, s1)
    final = apply_operator(None, s2)
    direct = build_hhl(p, 2, spade)

    def key_of(b):
        out = []
        k = b.key[1]
        while isinstance(k, tuple) and len(k) == 2 and not isinstance(k[0], str):
            g, k = k
            out.append((g.a, g.b, g.name))
        return tuple(out), k[1]

    iter_keys = sorted(key_of(b) for b in final.basis)
    direct_keys = sorted((tuple((m.a, m.b, m.name) for m in el.factors), el.alpha)
                         for el in direct.basis)
    assert iter_keys == direct_keys


def test_hilbert_series():
    p = 5
    spade = build_spade(p, -3, 4)
    hh1 = build_hhl(p, 1, spade)
    # k-profile of the level-1 algebra matches the class table aggregated by k
    table = {0: 5, 1: 2, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1, 8: 1}
    # (2,0) x4 + (0,0) at k=0; (0,1) and ... let us recount: k=0: 1 + 4 c2 = 5,
    # k=1: kappa, k=2: z, k=3: kz, ... each singleton
    table = {0: 5, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1, 8: 1}
    assert hilbert_series(hh1, "k") == table
    # aggregated by homological length instead: (p, p-1, p-1)
    by_h = [0, 0, 0]
    for el in hh1.basis:
        name = el.factors[0].name
        h = {"z": 0, "kz": 1, "c2": 2}[name[0]]
        by_h[h] += 1
    assert by_h == [p, p - 1, p - 1]
    hh0 = build_hhl(p, 0, spade)
    assert hilbert_series(hh0, "k") == {0: 1}
    assert hilbert_series(hh0, "jk") == {(0, 0): 1}


def test_hh2_supercommutative():
    p = 3
    spade = build_spade(p, -3, 4)
    alg = build_hhl(p, 2, spade, k_max=12)
    for e1, e2 in itertools.product(alg.basis, alg.basis):
        r12 = alg.product(e1, e2)
        r21 = alg.product(e2, e1)
        if r12 is OUT_OF_WINDOW or r21 is OUT_OF_WINDOW:
            continue
        sign = -1 if (e1.k * e2.k) % 2 else 1
        assert r12 == {el: c for el, c in
                       ((el, (sign * c) % p) for el, c in r21.items()) if c}


def test_laurent_window_guard():
    import pytest
    from hh2.operators import UnboundedWindow
    with pytest.raises(UnboundedWindow):
        laurent_window(3, -10**7, 10**7)


def test_tower_size_counts_the_basis():
    from tower_reference import tower_size
    for p, top in ((3, 5), (5, 3), (7, 2)):
        spade = build_spade(p, -3, 4)
        for level in range(top + 1):
            for k_max in (None, 12, 3, -1):
                alg = build_hhl(p, level, spade, k_max=k_max)
                assert tower_size(spade, level, k_max) == alg.dim, (p, level, k_max)


def test_tower_too_large_to_enumerate_is_refused():
    import pytest
    from hh2.operators import MAX_WINDOW, UnboundedWindow
    from tower_reference import tower_size
    spade = build_spade(3, -3, 4)
    assert [tower_size(spade, level) for level in range(4, 9)] == [
        2886, 18662, 120442, 778150, 5033346]
    # hh_6 is listed; hh_7, about 2 GB by extrapolation, is refused
    assert tower_size(spade, 6) <= MAX_WINDOW < tower_size(spade, 7)
    with pytest.raises(UnboundedWindow, match="hh_8 has 5033346 basis elements"):
        build_hhl(3, 8, spade)


def full_enumeration(spade, level, k_max):
    """Every weight-zero tuple of the level, then the k_max filter."""
    from hh2.operators import TowerElement
    tuples = [()]
    for q in range(level):
        tuples = [tup + (m,) for tup in tuples for m in spade.basis
                  if m.i == (tup[-1].j if q else 0)]
    basis = [TowerElement(tup, tup[-1].j if tup else 0) for tup in tuples]
    return [el for el in basis if k_max is None or el.k <= k_max]


def test_k_max_pruning_keeps_the_filtered_enumeration():
    spade = build_spade(3, -3, 4)
    for level in range(6):
        for k_max in (None, 12, 3, 0, -1):
            want = full_enumeration(spade, level, k_max)
            assert build_hhl(3, level, spade, k_max=k_max).basis == want, (level, k_max)


def test_k_max_bounds_the_work_not_only_the_answer(capsys):
    import json
    import time

    from hh2.cli import main
    t0 = time.perf_counter()
    assert main(["hhl", "--p", "3", "--l", "8", "--k-max", "0"]) == 0
    elapsed = time.perf_counter() - t0
    assert len(json.loads(capsys.readouterr().out)["basis"]) == 6561
    assert elapsed < 2.0
