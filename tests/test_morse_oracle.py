"""``koszulhh.bar_oracle``, the bar complex reduced by algebraic Morse theory,
against the plain bar oracle of ``bar_reference``, on inputs it must refuse,
and under mutation."""
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hh2
from hh2 import koszulhh, quiver
from hh2.clubsuit import NaturalMaps
from hh2.koszulhh import bar_oracle
from hh2.quiver import BasedAlgebra, BasedBimodule, BasisElement, dual, table_of

import bar_reference
from tables import broken_omega3, corrupted_actions

KINDS = ["omega", "theta", "theta-sigma", "omega-dual", "omega-ep-omega"]
DEPTH = {3: 4, 5: 3, 7: 2}  # the deepest h the plain oracle reaches under the default cap


@pytest.fixture(scope="module")
def maps7():
    return NaturalMaps(7)


@pytest.mark.parametrize("prime", sorted(DEPTH))
@pytest.mark.parametrize("kind", KINDS)
def test_morse_oracle_equals_the_plain_oracle(prime, kind, maps3, maps5, maps7):
    nm = {3: maps3, 5: maps5, 7: maps7}[prime]
    x_mod = nm.modules[kind]
    assert bar_oracle(nm.omega, x_mod, DEPTH[prime]) == \
        bar_reference.bar_oracle(nm.omega, x_mod, DEPTH[prime])


def test_morse_oracle_on_the_empty_module(maps3):
    empty = table_of({}, 3)
    zero = BasedBimodule(maps3.omega, [], empty, empty, name="0")
    assert bar_oracle(maps3.omega, zero, 4) == bar_reference.bar_oracle(maps3.omega, zero, 4) \
        == [0] * 5


def test_morse_oracle_refuses_a_non_associative_algebra(maps3):
    with pytest.raises(AssertionError, match="associativity fails"):
        bar_oracle(broken_omega3(maps3.omega), maps3.theta, 3)


@pytest.mark.parametrize("side", ["left", "right"])
def test_morse_oracle_refuses_each_corrupted_action(side, maps3):
    # the actions the plain oracle rejects by d . d != 0 break the bimodule axioms
    bad_modules = list(corrupted_actions(maps3.omega, maps3.modules["omega"], side))
    assert len(bad_modules) == 26
    for bad in bad_modules:
        with pytest.raises(AssertionError, match=" in bad$"):
            bar_oracle(maps3.omega, bad, 3)


@pytest.mark.parametrize("side", ["left", "right"])
def test_a_remembered_pass_hides_no_fault(side, maps3):
    # the scans remember a pass on the module they checked, and no failure
    good = maps3.modules["omega"]
    good.check_bimodule()
    bar_oracle(maps3.omega, good, 3)
    for bad in corrupted_actions(maps3.omega, good, side):
        for _ in range(2):
            with pytest.raises(AssertionError, match=" in bad$"):
                bad.check_bimodule()
            with pytest.raises(AssertionError, match=" in bad$"):
                bar_oracle(maps3.omega, bad, 3)
    broken = broken_omega3(maps3.omega)
    for _ in range(2):
        with pytest.raises(AssertionError, match="associativity fails"):
            broken.check_associativity()


def test_verify_does_not_import_logging():
    # the oracle's DEBUG lines reach no handler in a process that never
    # imported logging, so verify, which runs the oracle at p = 5, skips them
    src = str(Path(hh2.__file__).resolve().parents[1])
    script = ("import sys\n"
              "from hh2.cli import run_verify\n"
              "ran = [status for name, status, _ in run_verify(5) if 'bar oracle' in name]\n"
              "assert ran == ['PASS'] * 5, ran\n"
              "print('logging' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert done.stdout.split() == ["False"], done.stderr


def _truncated_polynomials(top: int) -> BasedBimodule:
    """k[x]/(x^top) on one vertex at p = 3, x in degree (1, 0), as its regular bimodule."""
    basis = [BasisElement("e" if n == 0 else f"x{n}", 1, 1, n, 0) for n in range(top)]
    products = table_of({(a, b): {a + b: 1} for a in range(top) for b in range(top)
                         if a + b < top}, 3)
    alg = BasedAlgebra(3, basis, products, {1: 0})
    return BasedBimodule(alg, basis, products, products, name="regular")


def test_morse_oracle_refuses_overlapping_tips():
    # in k[x]/(x^2) the tip x|x overlaps itself: x|x|x is an Anick 3-chain
    reg = _truncated_polynomials(2)
    with pytest.raises(AssertionError, match="Anick 3-chain"):
        bar_oracle(reg.over, reg, 2)


def test_morse_oracle_refuses_normal_words_that_are_no_basis():
    # in k[x]/(x^3) the pair x|x is normal, so x|x|x is a normal word, and it evaluates to 0
    reg = _truncated_polynomials(3)
    with pytest.raises(AssertionError, match="normal words are no basis: x1\\|x1\\|x1"):
        bar_oracle(reg.over, reg, 2)


def _commutative_square() -> BasedBimodule:
    """The commutative square at p = 3, arrows a: 1 -> 2, b: 2 -> 3, c: 1 -> 4
    and d: 4 -> 3 with b a = d c = w, as its regular bimodule.  Its one tip
    d|c rewrites to the normal word b|a."""
    slots = {"e1": (1, 1, 0), "e2": (2, 2, 0), "e3": (3, 3, 0), "e4": (4, 4, 0), "a": (2, 1, 1),
             "b": (3, 2, 1), "c": (4, 1, 1), "d": (3, 4, 1), "w": (3, 1, 2)}  # (left, right, j)
    basis = [BasisElement(name, u, v, j, 0) for name, (u, v, j) in slots.items()]
    entries = {}
    for i, (u, v, _) in enumerate(slots.values()):  # the idempotents act by slots
        entries[u - 1, i] = entries[i, v - 1] = {i: 1}
    entries[5, 4] = entries[7, 6] = {8: 1}
    products = table_of(entries, 3)
    alg = BasedAlgebra(3, basis, products, {v: v - 1 for v in range(1, 5)})
    return BasedBimodule(alg, basis, products, products, name="regular")


@pytest.mark.parametrize("dualize", [False, True])
def test_morse_oracle_equals_the_plain_oracle_off_omega(dualize):
    reg = _commutative_square()
    x_mod = dual(reg) if dualize else reg
    assert bar_oracle(reg.over, x_mod, 3) == bar_reference.bar_oracle(reg.over, x_mod, 3)


def test_flipped_collapse_sign_breaks_the_equality(maps3, monkeypatch):
    # on the commutative square the flipped relation d c + b a kills no
    # d^0-coboundary: d^1 . d^0 no longer vanishes.  On Omega the flip is a
    # symmetry of the ranks: its tips x1e(i+1)|y1e(i) rewrite along one
    # chain to y1e(i-1)|x1e(i), so negating the cochains of every other
    # arrow and tip undoes it, and the loops they rewrite to are central, so
    # d^1 . d^0 = 0 still
    collapses = koszulhh._collapses

    def flipped(tip, c, u, v, p):
        tip, u, v, coeff = collapses(tip, c, u, v, p)
        return tip, u, v, -coeff % p

    reg = _commutative_square()
    expected = bar_reference.bar_oracle(reg.over, reg, 3)
    assert bar_oracle(reg.over, reg, 3) == expected
    monkeypatch.setattr(koszulhh, "_collapses", flipped)
    with pytest.raises(AssertionError, match="d\\^1 . d\\^0 does not vanish"):
        assert bar_oracle(reg.over, reg, 3) == expected
    assert [bar_oracle(maps3.omega, maps3.modules[kind], 4) for kind in KINDS] == \
        [bar_reference.bar_oracle(maps3.omega, maps3.modules[kind], 4) for kind in KINDS]


def test_morse_oracle_runs_without_the_koszul_model(maps3, monkeypatch):
    # its dimensions come from Omega's products and the actions alone
    def refuse(*args, **kwargs):
        raise RuntimeError("the oracle reached the Koszul model")

    for module, name in ((koszulhh, "build_model"), (koszulhh, "CochainModel"),
                         (quiver, "build_zigzag_c")):
        monkeypatch.setattr(module, name, refuse)
    assert [bar_oracle(maps3.omega, maps3.modules[kind], 4) for kind in KINDS] == \
        [[3, 2, 2, 0, 0], [1, 1, 2, 0, 0], [2, 1, 1, 0, 0], [3, 0, 0, 0, 0], [2, 1, 0, 0, 0]]


def test_morse_oracle_reads_no_cell_cap(maps3, monkeypatch):
    monkeypatch.setenv("HH2_MAX_CELLS", "1")
    assert bar_oracle(maps3.omega, maps3.reg, 4) == [3, 2, 2, 0, 0]


def test_morse_oracle_logs_its_presentation_and_degrees(maps5, caplog):
    with caplog.at_level(logging.DEBUG, logger="hh2.koszulhh"):
        dims = bar_oracle(maps5.omega, maps5.reg, 3)
    lines = [rec.getMessage() for rec in caplog.records if rec.name == "hh2.koszulhh"]
    assert len(lines) == 4
    arrows, tips, words = re.fullmatch(
        r"morse presentation arrows=(\d+) tips=(\d+) normal words by length=\[([\d, ]+)\]",
        lines[0]).groups()
    radical = sum(1 for b in maps5.omega.basis if b.j or b.k)
    assert (int(arrows), int(tips)) == (8, 4)
    assert sum(map(int, words.split(","))) == radical
    degrees = [tuple(map(int, re.fullmatch(
        r"morse cochains n=(\d+) cells=(\d+) nnz=(\d+) rank=(\d+)", line).groups()))
        for line in lines[1:]]
    assert [n for n, *_ in degrees] == [0, 1, 2]
    assert [cells for _, cells, _, _ in degrees] == [15, 20, 10]
    assert degrees[2][2:] == (0, 0)  # no cells above degree 2
    ranks = [rank for *_, rank in degrees]
    assert dims == [cells - ranks[n] - (ranks[n - 1] if n else 0)
                    for n, cells, _, _ in degrees] + [0]
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="hh2.koszulhh"):
        bar_oracle(maps5.omega, maps5.reg, 3)
    assert not caplog.records
