import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hh2
from hh2.cli import COEFFS, main


def run(capsys, argv):
    status = main(argv)
    out = capsys.readouterr().out
    return status, out


def test_invalid_prime_exits_2(capsys):
    assert main(["hh", "--p", "2", "--coefficient", "omega"]) == 2
    assert main(["hh", "--p", "9", "--coefficient", "omega"]) == 2


def test_invalid_coefficient_exits_2():
    assert main(["hh", "--p", "3", "--coefficient", "bogus"]) == 2


def test_malformed_max_cells_exits_2(capsys, monkeypatch):
    for value in ("abc", "0"):
        monkeypatch.setenv("HH2_MAX_CELLS", value)
        assert main(["verify", "--p", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: HH2_MAX_CELLS")


def test_empty_spadesuit_window_exits_2(capsys):
    assert main(["spadesuit", "--p", "3", "--a-min", "2", "--a-max", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_hh_json_schema_and_rows(capsys):
    status, out = run(capsys, ["hh", "--p", "5", "--coefficient", "omega"])
    assert status == 0
    doc = json.loads(out)
    assert set(doc) >= {"p", "object", "basis", "products", "checks"}
    assert len(doc["basis"]) == 13
    row = doc["basis"][0]
    assert set(row) == {"name", "a", "b", "i", "j", "k", "h", "idempotent"}
    # the action table contains the unit row for every class
    lefts = {(e["left"], e["right"]) for e in doc["products"]}
    for r in doc["basis"]:
        assert ("1", r["name"]) in lefts


def test_hh_theta_rows(capsys):
    status, out = run(capsys, ["hh", "--p", "5", "--coefficient", "theta"])
    assert json.loads(out)["basis"].__len__() == 8
    status, out = run(capsys, ["hh", "--p", "3", "--coefficient", "omega-dual"])
    doc = json.loads(out)
    assert len(doc["basis"]) == 3
    assert all(r["h"] == 0 for r in doc["basis"])


def test_output_deterministic(capsys):
    _, out1 = run(capsys, ["hh", "--p", "3", "--coefficient", "omega"])
    _, out2 = run(capsys, ["hh", "--p", "3", "--coefficient", "omega"])
    assert out1 == out2
    _, out1 = run(capsys, ["spadesuit", "--p", "3", "--a-min", "-1", "--a-max", "2"])
    _, out2 = run(capsys, ["spadesuit", "--p", "3", "--a-min", "-1", "--a-max", "2"])
    assert out1 == out2


def test_csv_flattens_basis(capsys):
    status, out = run(capsys, ["hh", "--p", "3", "--coefficient", "omega",
                               "--format", "csv"])
    lines = out.strip().split("\n")
    assert lines[0] == "name,a,b,i,j,k,h,idempotent"
    assert len(lines) == 1 + 7


def test_hhl_refuses_a_basis_too_large_to_enumerate(capsys):
    # 5,033,346 basis elements: counted, not listed, so the refusal is quick
    start = time.perf_counter()
    assert main(["hhl", "--p", "3", "--l", "8"]) == 2
    assert time.perf_counter() - start < 20
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: hh_8 has 5033346 basis elements")


def test_hhl_counts(capsys):
    status, out = run(capsys, ["hhl", "--p", "3", "--l", "1", "--k-max", "10"])
    assert status == 0
    assert len(json.loads(out)["basis"]) == 7
    status, out = run(capsys, ["hhl", "--p", "3", "--l", "0"])
    assert len(json.loads(out)["basis"]) == 1


def test_spadesuit_check_flag(capsys):
    status, out = run(capsys, ["spadesuit", "--p", "3", "--a-min", "-2",
                               "--a-max", "3", "--check-associativity"])
    assert status == 0
    doc = json.loads(out)
    assert any(c["name"].startswith("associativity") and c["status"] == "PASS"
               for c in doc["checks"])
    assert {"name": "associativity (426379 triples)", "status": "PASS"} in doc["checks"]


def test_spadesuit_first_principles_flag(capsys):
    status, out = run(capsys, ["spadesuit", "--p", "3", "--a-min", "-2",
                               "--a-max", "3", "--verify-first-principles"])
    assert status == 0
    doc = json.loads(out)
    assert any(c["name"].startswith("first-principles") and c["status"] == "PASS"
               for c in doc["checks"])


def test_verify_reports_skipped_checks(capsys):
    status, out = run(capsys, ["verify", "--p", "11"])
    assert status == 0
    checks = json.loads(out)["checks"]
    skipped = {c["name"]: c["reason"] for c in checks if c["status"] == "SKIP"}
    for kind in ("omega", "theta", "theta-sigma", "omega-dual", "omega-ep-omega"):
        assert skipped[f"bar oracle h<=2 agrees ({kind})"] == \
            "bar complex to h<=2 would exceed 1000000 cells"
    assert skipped["spade table vs cup"] == "runs at p <= 7 only"
    assert "club window associativity" in skipped
    assert all(skipped.values())
    assert all(c["status"] == "PASS" for c in checks if c["status"] != "SKIP")


def test_verify_statuses_in_text_and_json(monkeypatch):
    import hh2.cli
    results = [("a", "PASS", ""), ("b", "SKIP", "why not"), ("c", "FAIL", "got 2")]
    monkeypatch.setattr(hh2.cli, "run_verify", lambda p: results)
    out, status = hh2.cli.cmd_verify(3, "csv")
    assert status == 3
    assert out.splitlines() == ["PASS  a", "SKIP  b  [why not]", "FAIL  c  [got 2]"]
    out, status = hh2.cli.cmd_verify(3, "json")
    assert json.loads(out)["checks"] == [{"name": "a", "status": "PASS"},
                                         {"name": "b", "status": "SKIP", "reason": "why not"},
                                         {"name": "c", "status": "FAIL"}]
    monkeypatch.setattr(hh2.cli, "run_verify", lambda p: results[:2])
    assert hh2.cli.cmd_verify(3, "csv")[1] == 0


def test_crash_is_not_a_check_failure(capsys, monkeypatch):
    import hh2.cli
    from hh2.koszulhh import TooLarge

    def raising(exc):
        def cmd(*args):
            raise exc
        return cmd

    argv = ["hh", "--p", "3", "--coefficient", "omega"]
    monkeypatch.setattr(hh2.cli, "cmd_hh", raising(KeyError("bug")))
    with pytest.raises(KeyError):
        main(argv)
    for exc in (TooLarge("cap"), AssertionError("d^2 != 0")):
        monkeypatch.setattr(hh2.cli, "cmd_hh", raising(exc))
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("internal check failure")


def test_failed_invariant_in_linear_algebra_exits_3(capsys, monkeypatch):
    import numpy as np

    import hh2.cli
    from hh2.exactlin import Homology, zeros

    def cmd(*args):
        # d_out is the identity, so e_0 is not a cocycle
        Homology(zeros(2, 0), np.eye(2, dtype=np.int64), 3).project([1, 0])

    def project_non_cocycle(*args):
        # the path hh runs: HHModule.project on a cochain whose d is nonzero
        from hh2.clubsuit import NaturalMaps
        from hh2.koszulhh import build_model, homology_named
        from model_reference import differential, project_one
        nm = NaturalMaps(3)
        model = build_model(nm.c, nm.reg)
        n = next(n for n in range(model.dim) if differential(model, {n: 1}))
        project_one(homology_named(model, "omega"), {n: 1})

    for fn in (cmd, project_non_cocycle):
        monkeypatch.setattr(hh2.cli, "cmd_hh", fn)
        assert main(["hh", "--p", "3", "--coefficient", "omega"]) == 3
        assert capsys.readouterr().err == "internal check failure: vector is not a cocycle\n"


STRUCTURE_CHECKS = ("Omega associative", "coefficient bimodules satisfy the axioms",
                    "pairings balanced and equivariant")


def test_verify_certifies_the_structure_it_uses(capsys):
    status, out = run(capsys, ["verify", "--p", "3", "--format", "csv"])
    assert status == 0
    lines = out.splitlines()
    for name in STRUCTURE_CHECKS:
        assert f"PASS  {name}" in lines


@pytest.mark.parametrize("p", [5, 7, 11])
def test_hh2_checks_beyond_p3(p):
    # verify runs them at p = 3 only; they hold at p = 5 and 7 on verify's
    # grid windows.  At p = 11, hh_1 reaches k = 2p - 2 = 20, so hh_2 listed
    # up to k = 12 misses 8 of its elements and is not onto
    from hh2.cli import _hh2_checks
    from hh2.operators import build_hhl
    from hh2.spadesuit import build_spade

    spade = build_spade(p, *((-3, 4) if p <= 5 else (-2, 3)))
    got = _hh2_checks(p, spade, build_hhl(p, 1, spade))
    assert got == [("hh_2 -> hh_1 surjective", p < 11),
                   ("projection hh_2 -> hh_1 multiplicative", True),
                   ("hh_2 supercommutative in window", True)]


def test_hh2_product_off_by_a_scalar_is_not_multiplicative(monkeypatch):
    from hh2.cli import _hh2_checks
    from hh2.operators import HHLAlgebra, build_hhl
    from hh2.quiver import Table, WindowTable
    from hh2.spadesuit import build_spade

    product_table = HHLAlgebra.product_table

    def doubled(self):  # every product of hh_2 times 2
        n, (x, y, t, c), out = table = product_table(self)
        return WindowTable(n, Table(x, y, t, 2 * c % self.p), out) if self.level == 2 else table

    monkeypatch.setattr(HHLAlgebra, "product_table", doubled)
    spade = build_spade(5, -3, 4)
    assert [ok for _, ok in _hh2_checks(5, spade, build_hhl(5, 1, spade))] == [True, False, True]


def corrupt_beta(monkeypatch, change_columns):
    """Build NaturalMaps with beta's columns passed through change_columns."""
    from functools import cached_property

    from hh2.clubsuit import NaturalMaps
    from tables import column_map, columned

    build = NaturalMaps.beta.func

    def beta(self):
        b = build(self)
        return column_map(b.source, b.target, change_columns(columned(b).columns),
                          b.dj, b.dk, name="beta")

    prop = cached_property(beta)
    prop.__set_name__(NaturalMaps, "beta")
    monkeypatch.setattr(NaturalMaps, "beta", prop)


def test_rank_failure_of_natural_maps_is_a_failed_check(capsys, monkeypatch):
    # the zero map intertwines and has the right degree: only its rank fails
    corrupt_beta(monkeypatch, lambda cols: [{} for _ in cols])
    status, out = run(capsys, ["verify", "--p", "3", "--format", "csv"])
    assert status == 3
    lines = out.splitlines()
    assert lines[0] == ("FAIL  natural maps intertwine with stated ranks"
                        "  [beta is not an isomorphism]")
    assert sum(line.startswith("FAIL") for line in lines) == 1
    assert any(line.startswith("PASS  spade associativity") for line in lines)
    assert lines[-1] == "PASS  hh_2 supercommutative in window"


def test_map_that_does_not_intertwine_is_a_failed_check(capsys, monkeypatch):
    def scale_one_column(cols):
        cols[1] = {t: 2 * c for t, c in cols[1].items()}  # rank stays full
        return cols

    corrupt_beta(monkeypatch, scale_one_column)
    status, out = run(capsys, ["verify", "--p", "3", "--format", "csv"])
    assert status == 3
    lines = out.splitlines()
    assert lines[0] in (f"FAIL  natural maps intertwine with stated ranks"
                        f"  [beta: {side} action not intertwined]" for side in ("left", "right"))
    assert sum(line.startswith("FAIL") for line in lines) == 1


def test_cell_cap_skips_only_the_bar_oracle(capsys, monkeypatch):
    # the cap sets the oracle's depth: 1000 cells reach h <= 2 at p=3, the
    # highest degree of a class, and 100 cells do not, so its five checks
    # SKIP with the cap's reason; every other check still runs and passes
    for cap, oracle in (("1000", "PASS  bar oracle h<=2 agrees ({})"),
                        ("100", "SKIP  bar oracle h<=2 agrees ({})"
                                "  [bar complex to h<=2 would exceed 100 cells]")):
        monkeypatch.setenv("HH2_MAX_CELLS", cap)
        status, out = run(capsys, ["verify", "--p", "3", "--format", "csv"])
        assert status == 0
        lines = out.splitlines()
        assert lines[9:14] == [oracle.format(kind) for kind in COEFFS]
        assert len(lines) == 27
        rest = lines[:9] + lines[14:]
        assert all(line.startswith("PASS") and "bar oracle" not in line for line in rest)


def test_verify_fails_a_changed_chi_cup_product(monkeypatch):
    # one coefficient of chi's projected cup table changed (1 <-> 2 at p = 3)
    # makes its check FAIL, and the spade table check, which reads the same
    # batch of NaturalMaps.class_products; the other checks keep their status
    import hh2.cli
    from hh2.koszulhh import HHModule
    project, changed = HHModule.project, []

    def project_once_changed(self, batch):
        out = project(self, batch)
        if not changed and out.count == len(self.classes) ** 2 == 49:
            val = out.val.copy()
            val[0] = 3 - val[0]
            changed.append(self.classes[int(out.n[0])].name)
            out = out._replace(val=val)
        return out

    monkeypatch.setattr(HHModule, "project", project_once_changed)
    status = {name: s for name, s, _ in hh2.cli.run_verify(3)}
    assert changed
    assert status.pop("chi cup table matches presentation exactly") == "FAIL"
    assert [status.pop(name) for name in list(status) if name.startswith("spade table vs cup")] \
        == ["FAIL"]
    assert set(status.values()) == {"PASS"}


def test_too_large_spadesuit_window_exits_2_before_building_rows(capsys, monkeypatch):
    from hh2.spadesuit import SpadeAlgebra

    def product(*_):
        raise AssertionError("a product was computed")

    monkeypatch.setattr(SpadeAlgebra, "product", product)
    assert main(["spadesuit", "--p", "3", "--a-min", "-40", "--a-max", "40"]) == 2
    assert capsys.readouterr().err == ("error: the window has 13207 elements, so 174424849 "
                                       "products: more than 16000000\n")


TEXT = st.text() | st.text(alphabet=st.sampled_from('"\\/\n\t\x00\x1f\x7f é€😀 a'))
DOCS = st.recursive(st.none() | st.booleans() | st.integers() | TEXT,
                    lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(TEXT, inner, max_size=4),
                    max_leaves=30)


INTS = st.integers()
BASIS_ROWS = st.lists(st.tuples(st.none() | INTS, st.none() | INTS, st.none() | INTS, INTS,
                                TEXT, INTS, INTS, TEXT), max_size=5)


@st.composite
def product_listings(draw):
    """(names, terms): terms (x, y, t, c) indexing names, each run of equal
    (x, y) one product."""
    names = draw(st.lists(TEXT, min_size=1, max_size=5))
    at = st.integers(0, len(names) - 1)
    return names, draw(st.lists(st.tuples(at, at, at, st.integers(-2**70, 2**70)), max_size=8))


@settings(max_examples=150, deadline=None)
@given(DOCS, st.dictionaries(TEXT.filter(lambda key: key not in ("basis", "products")), DOCS,
                             max_size=3), BASIS_ROWS, product_listings())
@example(None, {}, [], (["x"], []))
@example(None, {}, [], (["r", "u", "v"], [(1, 1, 0, 1), (1, 2, 0, 2), (2, 1, 0, 2)]))
@example(None, {}, [(1, 2, None, 0, "1", 3, 4, "n"), (5, 2, None, 0, "1", 7, 4, "n")], (["x"], []))
@example(None, {}, [(0, 0, None, 0, "", 0, 0, "same")] * 2, (["x"], []))
@example(2 ** 64, {"n": [None, -2 ** 70]}, [(2 ** 64, None, -2 ** 70, 2 ** 63, "e_1", None, 0, "")],
         (["x", "y"], [(0, 1, 1, 2 ** 63), (1, 1, 0, 0)]))
def test_json_writer_matches_json_dumps(doc, small, rows, listing):
    from hh2.cli import BASIS_KEYS, _emit
    assert _emit(doc, "json") == json.dumps(doc, indent=2, sort_keys=True)
    # the two row shapes, as the listings pass them: basis rows, and product
    # terms in print order as columns
    names, terms = listing
    tree = {**small, "basis": [dict(zip(BASIS_KEYS, row)) for row in rows],
            "products": [{"left": names[x], "right": names[y],
                          "result": [{"coeff": c, "name": names[t]} for _, _, t, c in group]}
                         for (x, y), group in itertools.groupby(terms, lambda e: e[:2])]}
    columns = [list(column) for column in zip(*terms)] or [[]] * 4
    assert (_emit(small, "json", rows, (names, *columns))
            == json.dumps(tree, indent=2, sort_keys=True))


def test_hh_job_does_not_import_numpy_ma():
    # np.unique, the set routines on it and np.isin (when it sorts) import
    # numpy.ma on their first call, which costs a short job a large share of
    # its time; a fresh interpreter per job shows it
    src = str(Path(hh2.__file__).resolve().parents[1])
    for argv in (["hh", "--p", "7", "--coefficient", "omega"], ["verify", "--p", "3"],
                 ["verify", "--p", "13"]):
        script = ("import contextlib, io, sys\n"
                  "from hh2.cli import main\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  f"    status = main({argv!r})\n"
                  "print(status, 'numpy.ma' in sys.modules)\n")
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert done.stdout.split() == ["0", "False"], (argv, done.stderr)


def test_closed_stdout_is_not_a_crash():
    # as in `hh2 verify --p 3 | head -3`: the reader is gone before the
    # output, or the help, is written, so the write fails with a broken pipe
    src = str(Path(hh2.__file__).resolve().parents[1])
    for argv in (["hh", "--p", "3", "--coefficient", "omega"], ["-h"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "hh2.cli", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, text=True,
                                  env=dict(os.environ, PYTHONPATH=src), timeout=120)
        finally:
            os.close(write_end)
        assert done.returncode == 141, (argv, done.stderr)
        assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr
