import inspect
import logging
import re
import tracemalloc
from collections import Counter

import pytest

from hh2 import Hh2Error, koszulhh
from hh2.exactlin import coo_pivot_rows, sparse_rank
from hh2.koszulhh import (NotACocycle, NotHomogeneous, PairingDegreeMismatch,
                          TooLarge, UnrecognizedSignature, build_model, homology_named)
from hh2.quiver import BasedAlgebra, BasedBimodule, table_of
import bar_reference
from bar_reference import bar_oracle  # the plain oracle: koszulhh.bar_oracle's reference
from batches import as_batch
from cup_reference import single_cup
from model_reference import project_one
from tables import as_dict, broken_omega3, corrupted_actions

EMPTY = table_of({}, 3)


def test_zero_coefficients_give_empty_model(maps3):
    model = build_model(maps3.c, BasedBimodule(maps3.omega, [], EMPTY, EMPTY, name="0"))
    assert model.dim == 0


def test_model_graded_components_p3(maps3):
    # for X = Omega the nonzero bigraded pieces are exactly the loop column,
    # the three columns of each z-power slice, in (c-length, path-length) form
    model = build_model(maps3.c, maps3.reg)
    p = 3
    keys = set()
    for n, (ci, xi) in enumerate(zip(model.ci.tolist(), model.xi.tolist())):
        cb = maps3.c.basis[ci]
        xb = maps3.reg.basis[xi]
        keys.add((-cb.j, xb.k))  # c-length as negative, coefficient length
    expected = {(-2, 0)}
    for ell in range(p):
        expected.add((0, 2 * ell))
        if ell < p - 1:
            expected.add((-1, 2 * ell + 1))
        if ell < p - 2:
            expected.add((-2, 2 * ell + 2))
    assert keys == expected


def test_model_total_dimension(maps5):
    model = build_model(maps5.c, maps5.reg)
    c, x_mod = maps5.c, maps5.reg
    total = 0
    for s in range(1, 6):
        for t in range(1, 6):
            dim_c = sum(1 for b in c.basis if (b.left, b.right) == (s, t))
            dim_x = sum(1 for b in x_mod.basis if (b.left, b.right) == (t, s))
            total += dim_c * dim_x
    assert model.dim == total


@pytest.mark.parametrize("p,expect", [
    (3, {"omega": 7, "theta": 4, "theta-sigma": 4, "omega-dual": 3, "omega-ep-omega": 3}),
    (5, {"omega": 13, "theta": 8, "theta-sigma": 8, "omega-dual": 5, "omega-ep-omega": 5}),
])
def test_class_counts(p, expect, named3, named5):
    _models, hhs = named3 if p == 3 else named5
    for kind, n in expect.items():
        assert len(hhs[kind].classes) == n


def test_degree_tables_p5(named5):
    _models, hhs = named5
    degs = sorted((cl.j, cl.k) for cl in hhs["omega"].classes)
    assert degs == sorted([(2, 0)] * 4 + [(0, 0), (0, 1), (-2, 2), (-2, 3),
                                          (-4, 4), (-4, 5), (-6, 6), (-6, 7), (-8, 8)])
    degs = sorted((cl.j, cl.k) for cl in hhs["theta"].classes)
    assert degs == sorted([(2, 0)] * 4 + [(0, 0), (0, 1), (-2, 2), (-2, 3)])
    degs = sorted((cl.j, cl.k) for cl in hhs["theta-sigma"].classes)
    assert degs == sorted([(1, 0), (1, 1), (-1, 2), (-1, 3)] + [(-3, 3)] * 4)
    degs = sorted((cl.j, cl.k) for cl in hhs["omega-dual"].classes)
    assert degs == [(0, 0)] * 5
    assert all(cl.h == 0 for cl in hhs["omega-dual"].classes)
    degs = sorted((cl.j, cl.k) for cl in hhs["omega-ep-omega"].classes)
    assert degs == sorted([(-4, 4), (-4, 5), (-6, 6), (-6, 7), (-8, 8)])


def test_auto_names_without_kind(maps3):
    model = build_model(maps3.c, maps3.reg)
    with pytest.raises(ValueError):
        homology_named(model, None)


def test_homology_named_rejects_wrong_kind(maps3):
    model = build_model(maps3.c, maps3.reg)
    with pytest.raises(UnrecognizedSignature):
        homology_named(model, "theta-sigma")  # dual-type names cannot span HH(Omega)


def test_bar_oracle_examples(maps3):
    assert bar_oracle(maps3.omega, maps3.reg, 4) == [3, 2, 2, 0, 0]
    assert bar_oracle(maps3.omega, maps3.dual, 2) == [3, 0, 0]
    assert bar_oracle(maps3.omega, BasedBimodule(maps3.omega, [], EMPTY, EMPTY, name="0"),
                      3) == [0, 0, 0, 0]


def test_bar_oracle_cap(maps3, monkeypatch):
    monkeypatch.setenv("HH2_MAX_CELLS", "10")
    with pytest.raises(TooLarge):
        bar_oracle(maps3.omega, maps3.reg, 4)


def test_bar_oracle_logs_each_piece(maps3, caplog):
    with caplog.at_level(logging.DEBUG, logger="bar_reference"):
        assert bar_oracle(maps3.omega, maps3.theta, 4) == [1, 1, 2, 0, 0]
    pattern = re.compile(r"bar piece n=(\d+) bucket=\((-?\d+), (-?\d+)\) "
                         r"rows=(\d+) cols=(\d+) nnz=(\d+) rank=(\d+)$")
    pieces = [tuple(map(int, pattern.match(rec.getMessage()).groups()))
              for rec in caplog.records if rec.name == "bar_reference"]
    assert pieces and len({pc[:3] for pc in pieces}) == len(pieces)
    assert {pc[0] for pc in pieces} == set(range(5))
    for _n, _j, _k, rows, cols, nnz, rank_ in pieces:
        assert rank_ <= min(rows, cols) and nnz <= rows * cols
    # the logged sizes and ranks give back the dimensions:
    # dim HH^n = sum over pieces of (cols - rank of d_n) - rank of d_{n-1}
    dims = [sum(cols - r for n2, _, _, _, cols, _, r in pieces if n2 == n)
            - sum(r for n2, *_, r in pieces if n2 == n - 1) for n in range(5)]
    assert dims == [1, 1, 2, 0, 0]
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="bar_reference"):
        bar_oracle(maps3.omega, maps3.theta, 4)
    assert not caplog.records


def test_bar_oracle_checks_d_squared_in_every_degree(maps3):
    # doubling one product of Omega breaks associativity on radical triples;
    # with theta coefficients d . d stays zero up to d_2 . d_1 and only
    # d_3 . d_2 fails, where a check of the lowest degree alone would have
    # returned the dimensions [1, 1, 2, -5]
    omega = maps3.omega
    key = (omega.index["y1e1"], omega.index["x1e2"])
    products = as_dict(omega.products)
    products[key] = {t: 2 * c % 3 for t, c in products[key].items()}
    broken = BasedAlgebra(3, omega.basis, table_of(products, 3), omega.idem)
    assert bar_oracle(broken, maps3.theta, 2) == [1, 1, 2]
    with pytest.raises(AssertionError, match="square to zero"):
        bar_oracle(broken, maps3.theta, 3)


@pytest.mark.parametrize("kind", ["omega", "theta", "theta-sigma",
                                  "omega-dual", "omega-ep-omega"])
def test_bar_oracle_matches_model_p3(kind, maps3, named3):
    _models, hhs = named3
    assert bar_oracle(maps3.omega, maps3.modules[kind], 4) == hhs[kind].dims_by_h(4)


def test_cup_unit_law(maps3, named3):
    models, hhs = named3
    chi = hhs["omega"]
    one = chi.by_name[("z", 0)].rep
    for kind in ("theta", "theta-sigma", "omega-dual"):
        pairing = maps3.pairings[{"theta": "act_l:theta",
                                  "theta-sigma": "act_l:theta-sigma",
                                  "omega-dual": "act_l:omega-dual"}[kind]]
        for cl in hhs[kind].classes:
            w = single_cup(models["omega"], one, models[kind], cl.rep, pairing, models[kind])
            assert project_one(hhs[kind], w) == {cl.name: 1}


def test_cup_z_chain(maps5, named5):
    models, hhs = named5
    chi = hhs["omega"]
    mult = maps5.pairings["mult"]
    z = chi.by_name[("z", 1)].rep
    for ell in range(4):
        zl = chi.by_name[("z", ell)].rep
        w = single_cup(models["omega"], z, models["omega"], zl, mult, models["omega"])
        assert project_one(chi, w) == {("z", ell + 1): 1}
    # z . z^{p-1} = 0
    w = single_cup(models["omega"], z, models["omega"], chi.by_name[("z", 4)].rep,
            mult, models["omega"])
    assert project_one(chi, w) == {}


def test_cup_kappa_mu(maps5, named5):
    # kappa . mu_l lands on nu_l with the coefficient 1/2 forced by the
    # normalization nu_l = v_h - v_{h+1}; see the decisions ledger
    models, hhs = named5
    chi, sig = hhs["omega"], hhs["theta-sigma"]
    pairing = maps5.pairings["act_l:theta-sigma"]
    kappa = chi.by_name[("kz", 0)].rep
    half = (5 + 1) // 2
    for ell in (1, 2):
        w = single_cup(models["omega"], kappa, models["theta-sigma"],
                sig.by_name[("mu", ell)].rep, pairing, models["theta-sigma"])
        assert project_one(sig, w) == {("nu", ell): half}
        # z . mu_l = mu_{l-1}, z . nu_l = nu_{l-1}
        z = chi.by_name[("z", 1)].rep
        w = single_cup(models["omega"], z, models["theta-sigma"],
                sig.by_name[("mu", ell)].rep, pairing, models["theta-sigma"])
        assert project_one(sig, w) == ({("mu", ell - 1): 1} if ell > 1 else {})


def test_cup_rejects_non_cocycle(maps3, named3):
    models, hhs = named3
    model = models["omega"]
    chain = {0: 1}  # e_1 (x) x-type monomial: not a cocycle
    for n, (ci, xi) in enumerate(zip(model.ci.tolist(), model.xi.tolist())):
        if maps3.c.basis[ci].j == 0 and maps3.reg.basis[xi].k == 1:
            chain = {n: 1}
            break
    with pytest.raises(NotACocycle):
        single_cup(model, chain, model, hhs["omega"].by_name[("z", 0)].rep,
            maps3.pairings["mult"], model)


def test_cup_rejects_odd_pairing_without_factor(maps3, named3):
    models, hhs = named3
    with pytest.raises(PairingDegreeMismatch):
        single_cup(models["theta"], hhs["theta"].by_name[("z", 0)].rep,
            models["theta-sigma"], hhs["theta-sigma"].by_name[("soc", 1)].rep,
            maps3.pairings["nu_l"], models["omega-dual"])


def test_inhomogeneous_cochain_is_an_hh2_error(named3):
    model = named3[0]["omega"]
    by_key: dict = {}
    for n, key in enumerate(model.keys[b] for b in model.bucket.tolist()):
        by_key.setdefault(key, n)
    (key1, n1), (_key2, n2) = list(by_key.items())[:2]
    chain = {n1: 1, n2: 1}
    with pytest.raises(NotHomogeneous, match="cochain not homogeneous") as exc:
        model.are_cocycles(as_batch([chain]))
    assert isinstance(exc.value, Hh2Error)


def test_cup_associativity_on_action_pairings(maps3, named3):
    # (u . v) . w = u . (v . w) for u, v central classes and w a theta class,
    # where the three pairings form the commuting square of action maps
    models, hhs = named3
    chi, thb = hhs["omega"], hhs["theta"]
    mult = maps3.pairings["mult"]
    act = maps3.pairings["act_l:theta"]
    for u in chi.classes:
        for v in chi.classes:
            uv = single_cup(models["omega"], u.rep, models["omega"], v.rep, mult, models["omega"])
            for w in thb.classes:
                vw = single_cup(models["omega"], v.rep, models["theta"], w.rep, act,
                                models["theta"])
                lhs = single_cup(models["omega"], uv, models["theta"], w.rep, act, models["theta"])
                rhs = single_cup(models["omega"], u.rep, models["theta"], vw, act, models["theta"])
                assert project_one(thb, lhs) == project_one(thb, rhs)


def test_chi_supercommutative(maps5, named5):
    models, hhs = named5
    chi = hhs["omega"]
    mult = maps5.pairings["mult"]
    for u in chi.classes:
        for v in chi.classes:
            uv = project_one(chi, single_cup(models["omega"], u.rep, models["omega"], v.rep,
                                 mult, models["omega"]))
            vu = project_one(chi, single_cup(models["omega"], v.rep, models["omega"], u.rep,
                                 mult, models["omega"]))
            sign = -1 if (u.k * v.k) % 2 else 1
            assert uv == {n: (sign * c) % 5 for n, c in vu.items() if (sign * c) % 5}


def test_chi_presentation_relations(maps5, named5):
    models, hhs = named5
    chi = hhs["omega"]
    mult = maps5.pairings["mult"]

    def mul(a, b):
        return project_one(chi, single_cup(models["omega"], chi.by_name[a].rep,
                               models["omega"], chi.by_name[b].rep,
                               mult, models["omega"]))

    p = 5
    assert mul(("kz", 0), ("kz", 0)) == {}                       # kappa^2 = 0
    assert mul(("z", p - 2), ("z", 1)) == {("z", p - 1): 1}      # z^{p-1} != 0
    assert mul(("z", p - 1), ("z", 1)) == {}                     # z^p = 0
    assert mul(("z", p - 1), ("kz", 0)) == {}                    # z^{p-1} kappa = 0
    assert mul(("z", p - 2), ("kz", 0)) == {("kz", p - 2): 1}    # z^{p-2} kappa != 0
    for s in (1, 2):
        assert mul(("c2", s), ("z", 1)) == {}                    # c2 . z = 0
        assert mul(("c2", s), ("kz", 0)) == {}                   # c2 . kappa = 0
        assert mul(("c2", s), ("c2", s)) == {}                   # c2 . c2 = 0


def test_exactness_of_coefficient_sequence(named5):
    # the ideal, algebra and quotient columns balance in every (j,k) bidegree
    _models, hhs = named5
    by_deg = {}
    for kind, sign in (("omega-ep-omega", 1), ("omega", -1), ("theta", 1)):
        for cl in hhs[kind].classes:
            key = (cl.j, cl.k)
            by_deg[key] = by_deg.get(key, 0) + sign
    assert all(v == 0 for v in by_deg.values())
    # and the ideal classes are precisely the kernel of the truncation
    ideal_names = {cl.name for cl in hhs["omega-ep-omega"].classes}
    chi_names = {cl.name for cl in hhs["omega"].classes}
    bar_names = {cl.name for cl in hhs["theta"].classes}
    assert ideal_names == chi_names - bar_names


def test_cup_associativity_on_sigma_action(maps3, named3):
    models, hhs = named3
    chi, sig = hhs["omega"], hhs["theta-sigma"]
    mult = maps3.pairings["mult"]
    act = maps3.pairings["act_l:theta-sigma"]
    for u in chi.classes:
        for v in chi.classes:
            uv = single_cup(models["omega"], u.rep, models["omega"], v.rep, mult, models["omega"])
            for w in sig.classes:
                vw = single_cup(models["omega"], v.rep, models["theta-sigma"], w.rep,
                         act, models["theta-sigma"])
                lhs = single_cup(models["omega"], uv, models["theta-sigma"], w.rep,
                          act, models["theta-sigma"])
                rhs = single_cup(models["omega"], u.rep, models["theta-sigma"], vw,
                          act, models["theta-sigma"])
                assert project_one(sig, lhs) == project_one(sig, rhs)


def test_model_rejects_mismatched_inputs(maps3, maps5):
    from hh2.koszulhh import MismatchedP
    with pytest.raises(MismatchedP):
        build_model(maps3.c, maps5.reg)


def test_bar_oracle_p7_low_degrees_and_guard():
    from hh2.clubsuit import NaturalMaps
    nm = NaturalMaps(7)
    assert bar_oracle(nm.omega, nm.reg, 2) == [7, 6, 6]
    with pytest.raises(TooLarge):
        bar_oracle(nm.omega, nm.reg, 3)  # exceeds the default cell cap


@pytest.mark.parametrize("side", ["left", "right"])
def test_bar_oracle_fails_on_a_corrupted_module_action(side, maps3):
    # doubling one action entry a . x (or x . a) with a radical breaks the
    # bimodule axioms, which d . d = 0 must catch through the head joins (the
    # left action) and the tail joins (the right action)
    bad_modules = list(corrupted_actions(maps3.omega, maps3.modules["omega"], side))
    assert bad_modules
    for bad in bad_modules:
        with pytest.raises(AssertionError, match="square to zero"):
            bar_oracle(maps3.omega, bad, 3)


def test_bar_oracle_checks_d_squared_in_small_chunks(maps3, monkeypatch):
    # blocks of one bucket each give the same verdicts as one block
    monkeypatch.setattr(bar_reference, "_BLOCK_CELLS", 0)
    assert bar_oracle(maps3.omega, maps3.theta, 4) == [1, 1, 2, 0, 0]
    with pytest.raises(AssertionError, match="square to zero"):
        bar_oracle(broken_omega3(maps3.omega), maps3.theta, 3)


@pytest.mark.parametrize("kind", ["omega", "theta"])
def test_bar_oracle_rejects_an_entry_outside_its_bucket(kind, maps3, monkeypatch):
    # d keeps each cochain's bucket: one entry of an assembled d_n moved onto a
    # row of an earlier block (so of another bucket) fails before any d.d = 0
    # check or rank
    monkeypatch.setattr(bar_reference, "_BLOCK_CELLS", 0)  # one bucket per block
    assemble, seen, moved, ranked = bar_reference._bar_differential, {}, [], []

    def moving(n, *args):
        lc, row, val = assemble(n, *args)
        if len(row) and not moved:
            if n in seen:
                row = row.copy()
                row[0] = seen[n]
                moved.append(n)
            seen[n] = int(row[0])
        return lc, row, val

    monkeypatch.setattr(bar_reference, "_bar_differential", moving)
    monkeypatch.setattr(bar_reference, "coo_pivot_rows", lambda *args: ranked.append(args))
    with pytest.raises(AssertionError, match="leaves its bucket"):
        bar_oracle(maps3.omega, maps3.modules[kind], 3)
    assert moved and ranked == []


def test_bar_oracle_refuses_differentials_past_int64(maps3, monkeypatch):
    # entries of d_n are keyed by col * rows + row in int64; chain counts
    # that would overflow that key are refused before anything is assembled
    monkeypatch.setattr(bar_reference, "bar_sizes", lambda alg, x_mod, n: ([2 ** 30] * (n + 1),
                                                                            [0] * (n + 1)))
    monkeypatch.setenv("HH2_MAX_CELLS", str(10 ** 30))
    with pytest.raises(TooLarge, match="int64"):
        bar_oracle(maps3.omega, maps3.reg, 1)


def test_bar_oracle_checks_d_squared_before_any_rank(maps3, monkeypatch):
    # the ranks rely on d_n . d_{n-1} = 0, so no rank may be taken before
    # every composition has been checked
    calls = []

    def recording(col, row, val, p):
        calls.append(len(col))
        return coo_pivot_rows(col, row, val, p)

    monkeypatch.setattr(bar_reference, "coo_pivot_rows", recording)
    with pytest.raises(AssertionError, match="square to zero"):
        bar_oracle(broken_omega3(maps3.omega), maps3.theta, 3)
    assert calls == []


@pytest.mark.parametrize("kind", ["omega", "theta", "theta-sigma",
                                  "omega-dual", "omega-ep-omega"])
def test_bar_pieces_rank_like_their_full_columns_p3(kind, maps3, monkeypatch, caplog):
    # each block's d_n is ranked off the pivot rows of its d_{n-1}; the logged
    # rank of each piece must still be the rank of all its columns
    full, skipped = [{} for _ in range(5)], []

    def recording(col, row, val, p):
        caller = inspect.currentframe().f_back.f_locals
        n, block = caller["n"], {}
        for c, r, v in zip(*(a.tolist() for a in caller["d"][n])):
            block.setdefault(c, {})[r] = v
        full[n].update(block)
        skipped.append(len(block) - len(set(col.tolist())))  # nonzero columns not handed over
        return coo_pivot_rows(col, row, val, p)

    x_mod = maps3.modules[kind]
    monkeypatch.setattr(bar_reference, "_BLOCK_CELLS", 0)  # one bucket per block
    monkeypatch.setattr(bar_reference, "coo_pivot_rows", recording)
    with caplog.at_level(logging.DEBUG, logger="bar_reference"):
        bar_oracle(maps3.omega, x_mod, 4)
    pattern = re.compile(r"bar piece n=(\d+) bucket=\((-?\d+), (-?\d+)\) "
                         r"rows=\d+ cols=\d+ nnz=\d+ rank=(\d+)$")
    logged = {(n, (j, k)): r for n, j, k, r in
              (map(int, pattern.match(rec.getMessage()).groups())
               for rec in caplog.records if rec.name == "bar_reference")}
    bar = bar_reference.radical_chains(maps3.omega)

    def bucket(n, i):  # (j(x) - j(chain), k(x) - k(chain)) of cochain i of degree n
        q, x = divmod(i, x_mod.dim)
        level, xb = bar.level(n), x_mod.basis[x]
        return xb.j - int(level.j[q]), xb.k - int(level.k[q])

    pieces = {}
    for n, columns in enumerate(full):
        for i, column in columns.items():
            pieces.setdefault((n, bucket(n, i)), []).append(column)
    assert pieces.keys() <= logged.keys()
    assert logged == {key: sparse_rank(pieces.get(key, []), 3) for key in logged}
    assert sum(skipped) > 0


def test_bar_oracle_p5_memory_stays_within_blocks(maps5):
    # the five p = 5 oracles (h <= 3) hold one block's temporaries at a time:
    # about 18 MB at their traced peak, where assembling, checking and
    # ranking each d_n whole took about 45 MB
    kinds = ["omega", "theta", "theta-sigma", "omega-dual", "omega-ep-omega"]
    modules = [maps5.modules[kind] for kind in kinds]
    bar_reference.radical_chains(maps5.omega).cofaces(3)  # kept with the algebra, built once
    tracemalloc.start()
    try:
        dims = [bar_oracle(maps5.omega, x_mod, 3) for x_mod in modules]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dims == [[5, 4, 4, 0], [2, 2, 4, 0], [4, 2, 2, 0], [5, 0, 0, 0], [3, 2, 0, 0]]
    assert all(type(dim) is int for row in dims for dim in row)
    assert peak < 30e6


def test_bar_chains_are_built_once_per_algebra(maps3, monkeypatch):
    omega = maps3.omega
    bar = bar_reference.radical_chains(omega)
    bar_oracle(omega, maps3.reg, 3)
    levels = [bar.level(n) for n in range(5)]
    bar_oracle(omega, maps3.theta, 3)
    assert bar_reference.radical_chains(omega) is bar
    assert all(bar.level(n) is levels[n] for n in range(5))
    chains, _ = koszulhh.bar_sizes(omega, maps3.reg, 5)
    assert chains == [len(bar.level(n).lft) for n in range(6)]
    # the cap still holds when the chains it counts are already built
    monkeypatch.setenv("HH2_MAX_CELLS", "10")
    with pytest.raises(TooLarge):
        bar_oracle(omega, maps3.reg, 4)


@pytest.mark.parametrize("prime,n_max", [(3, 4), (5, 3)])
@pytest.mark.parametrize("kind", ["omega", "theta", "theta-sigma",
                                  "omega-dual", "omega-ep-omega"])
def test_bar_sizes_count_the_chains_and_cochains(prime, n_max, kind, maps3, maps5):
    # the counts from the vertices alone equal the chains of each built level
    # and the slot-matched (chain, x) pairs the oracle names as cochains
    nm = {3: maps3, 5: maps5}[prime]
    x_mod = nm.modules[kind]
    chains, cochains = koszulhh.bar_sizes(nm.omega, x_mod, n_max + 1)
    bar = bar_reference.radical_chains(nm.omega)
    x_by_slot = Counter((b.left, b.right) for b in x_mod.basis)
    for n in range(n_max + 2):
        level = bar.level(n)
        assert chains[n] == len(level.lft)
        assert cochains[n] == sum(x_by_slot[slot]
                                  for slot in zip(level.lft.tolist(), level.rgt.tolist()))


def test_bar_sizes_match_the_logged_pieces_p3(maps3, caplog):
    # the cols of the logged pieces of degree n sum to the cochains of degree n
    with caplog.at_level(logging.DEBUG, logger="bar_reference"):
        bar_oracle(maps3.omega, maps3.theta, 4)
    cols = [0] * 5
    for rec in caplog.records:
        if rec.name == "bar_reference":
            n, c = re.search(r"n=(\d+) .* cols=(\d+)", rec.getMessage()).groups()
            cols[int(n)] += int(c)
    assert cols == koszulhh.bar_sizes(maps3.omega, maps3.theta, 4)[1]


@pytest.mark.parametrize("prime", [11, 13])
def test_bar_oracle_refuses_before_building_chains(prime, monkeypatch):
    # at h <= 3 the exact count passes the default cap, and the refusal comes
    # before the chains of the algebra are made
    from hh2.clubsuit import NaturalMaps
    monkeypatch.delenv("HH2_MAX_CELLS", raising=False)
    nm = NaturalMaps(prime)
    for x_mod in nm.modules.values():
        with pytest.raises(TooLarge, match="exceed 1000000 cells"):
            bar_oracle(nm.omega, x_mod, 3)
    assert nm.omega not in bar_reference._CHAINS
