"""The batched ``koszulhh.cup`` against the one-product reference.

The product of owner i * len(vs) + j in ``cup(model_x, us, model_y, vs,
pairing, model_z)``, read back by ``batches.cup_rows`` as row i, place j, must
equal ``cup_reference.cup_one`` of ``us[i]`` and ``vs[j]`` for every pairing of
``clubsuit.PRODUCT_TABLE`` (its even factor for the socle embeddings), on
random lists of cocycles: sums of named representatives and boundaries of
one degree (the named representatives alone never multiply two odd
coefficients, so they would leave the Koszul sign untested).  The mutation
tests feed the batched cup a flipped Koszul sign, c-parts composed in the
wrong order, a non-cocycle input, a pairing whose target leaves the
diagonal and one whose products are no cocycles, and each must be caught.
"""

import copy
import functools
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hh2 import Hh2Error, koszulhh
from hh2.clubsuit import PRODUCT_TABLE, NaturalMaps
from hh2.exactlin import combo_add
from hh2.koszulhh import NotACocycle, Pairing, PairingDegreeMismatch
from hh2.quiver import Table

from batches import cup_rows
from cup_reference import cup_one
from model_reference import images, is_cocycle

ENTRIES = sorted(PRODUCT_TABLE)


@functools.lru_cache(maxsize=None)
def maps(p: int) -> NaturalMaps:
    return NaturalMaps(p)


def case(p: int, entry: tuple[str, str, str]):
    """(model_x, classes of x, model_y, classes of y, even pairing, model_z)
    for one product of the table."""
    nm = maps(p)
    k1, k2, _ = entry
    pairing = nm.pairings[PRODUCT_TABLE[entry]]
    if pairing.factor is not None:
        pairing = pairing.factor[0]
    kz = next(k for k in nm.modules if nm.modules[k] is pairing.z_mod)
    return (nm.models[k1], nm.homology[k1].classes, nm.models[k2], nm.homology[k2].classes,
            pairing, nm.models[kz])


def reference(model_x, us, model_y, vs, pairing, model_z) -> list[list[dict]]:
    return [[cup_one(model_x, u, model_y, v, pairing, model_z) for v in vs] for u in us]


def with_boundaries(model, classes, p: int, count: int = 2) -> list[dict]:
    """The named representatives, then each plus each of the first count
    boundaries of its degree: cocycles whose products reach every sign."""
    out = [cl.rep for cl in classes]
    for cl in classes:
        for image in images(model, (cl.j, cl.k - 1))[:count]:
            chain = dict(cl.rep)
            combo_add(chain, image, 1, p)
            out.append(chain)
    return out


@st.composite
def cocycles(draw, model, classes, p: int, max_size: int = 5) -> list[dict]:
    """A list of cocycles of one degree each: sums of named representatives
    and of boundaries, with random coefficients."""
    by_degree: dict = {}
    for cl in classes:
        by_degree.setdefault((cl.j, cl.k), []).append(cl)
    degrees = sorted(by_degree)
    out = []
    for _ in range(draw(st.integers(0, max_size))):
        j, k = draw(st.sampled_from(degrees))
        chain: dict = {}
        for rep in [cl.rep for cl in by_degree[j, k]] + images(model, (j, k - 1)):
            combo_add(chain, rep, draw(st.integers(0, p - 1)), p)
        out.append(chain)
    return out


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_batched_cup_matches_reference(data):
    p = data.draw(st.sampled_from((3, 5, 7)))
    model_x, xs, model_y, ys, pairing, model_z = case(p, data.draw(st.sampled_from(ENTRIES)))
    us, vs = data.draw(cocycles(model_x, xs, p)), data.draw(cocycles(model_y, ys, p))
    got = cup_rows(model_x, us, model_y, vs, pairing, model_z)
    assert got == reference(model_x, us, model_y, vs, pairing, model_z)


@pytest.mark.parametrize("p", (3, 5))
def test_every_named_product_matches_reference_in_small_chunks(p, monkeypatch):
    monkeypatch.setattr(koszulhh, "_CUP_CHUNK", 1)  # one u-chain per chunk
    for entry in ENTRIES:
        model_x, xs, model_y, ys, pairing, model_z = case(p, entry)
        us, vs = with_boundaries(model_x, xs, p), with_boundaries(model_y, ys, p)
        got = cup_rows(model_x, us, model_y, vs, pairing, model_z)
        assert got == reference(model_x, us, model_y, vs, pairing, model_z), entry


def test_empty_lists_and_chains():
    model_x, xs, model_y, ys, pairing, model_z = case(3, ENTRIES[0])
    assert cup_rows(model_x, [], model_y, [ys[0].rep], pairing, model_z) == []
    assert cup_rows(model_x, [xs[0].rep], model_y, [], pairing, model_z) == [[]]
    assert cup_rows(model_x, [{}], model_y, [{}, ys[0].rep], pairing, model_z) == [[{}, {}]]


def test_factored_and_mismatched_pairings_are_refused():
    nm = maps(3)
    models, hhs = nm.models, nm.homology
    with pytest.raises(PairingDegreeMismatch, match="has odd degree"):
        cup_rows(models["theta"], [hhs["theta"].classes[0].rep], models["theta-sigma"],
            [hhs["theta-sigma"].classes[0].rep], nm.pairings["nu_l"], models["omega-dual"])
    with pytest.raises(PairingDegreeMismatch, match="does not match the given models"):
        cup_rows(models["theta"], [hhs["theta"].classes[0].rep], models["omega"],
            [hhs["omega"].classes[0].rep], nm.pairings["mult"], models["omega"])


# -- mutations ---------------------------------------------------------------------

def caught(p: int, mutate) -> bool:
    """Whether the batched cup, given what mutate(case) returns, fails on some
    product of ``with_boundaries`` cocycles: by raising or by disagreeing
    with the reference on the unmutated case."""
    for entry in ENTRIES:
        model_x, xs, model_y, ys, pairing, model_z = case(p, entry)
        us, vs = with_boundaries(model_x, xs, p), with_boundaries(model_y, ys, p)
        mx, my, pr, mz = mutate(model_x, model_y, pairing, model_z)
        try:
            got = cup_rows(mx, us, my, vs, pr, mz)
        except (AssertionError, Hh2Error):
            return True
        if got != reference(model_x, us, model_y, vs, pairing, model_z):
            return True
    return False


def test_unmutated_cup_is_not_caught():
    assert not caught(3, lambda mx, my, pr, mz: (mx, my, pr, mz))


def test_flipped_koszul_sign_is_caught():
    def flip(mx, my, pr, mz):  # (-1)^{(k(x) + 1) k(y)}: the sign of the other side
        mx = copy.copy(mx)
        mx.odd = ~mx.odd
        return mx, my, pr, mz
    assert caught(3, flip)


def test_swapped_c_part_order_is_caught():
    def swap(mx, my, pr, mz):
        a, b, t, c = mx.c.slot_products()
        mx = copy.copy(mx)
        swapped = Table.of(b, a, t, c, mx.p)  # reads ci_u o ci_v
        mx.c = types.SimpleNamespace(dim=mx.c.dim, slot_products=lambda: swapped)
        return mx, my, pr, mz
    assert caught(3, swap)


def test_non_cocycle_input_is_refused():
    model_x, xs, model_y, ys, pairing, model_z = case(5, (("omega",) * 3))
    bad = next({n: 1} for n in range(model_x.dim) if not is_cocycle(model_x, {n: 1}))
    good = [cl.rep for cl in xs]
    with pytest.raises(NotACocycle, match="cup inputs must be cocycles"):
        cup_rows(model_x, [*good, bad], model_y, good, pairing, model_z)
    with pytest.raises(NotACocycle, match="cup inputs must be cocycles"):
        cup_rows(model_x, good, model_y, [bad, *good], pairing, model_z)


def test_pairing_off_the_diagonal_is_refused():
    model_x, xs, model_y, ys, pairing, model_z = case(5, (("omega",) * 3))
    x, y, t, c = pairing.table
    basis = pairing.z_mod.basis
    # send every value to one element of a fixed slot: most products need another
    off = Table(x, y, np.full_like(t, next(i for i, b in enumerate(basis) if b.left != b.right)), c)
    bad = Pairing(pairing.x_mod, pairing.y_mod, pairing.z_mod, off, name="off")
    us, vs = [cl.rep for cl in xs], [cl.rep for cl in ys]
    with pytest.raises(AssertionError, match="cup left the diagonal"):
        cup_rows(model_x, us, model_y, vs, bad, model_z)
    with pytest.raises(AssertionError, match="cup left the diagonal"):
        reference(model_x, us, model_y, vs, bad, model_z)


def test_product_off_the_cocycles_is_refused():
    # half of mult's terms: the values stay on the diagonal, but the pairing
    # is no longer balanced, so some product is not a cocycle
    model_x, xs, model_y, ys, pairing, model_z = case(3, (("omega",) * 3))
    half = Pairing(pairing.x_mod, pairing.y_mod, pairing.z_mod,
                   Table(*(a[::2] for a in pairing.table)), name="half")
    us, vs = with_boundaries(model_x, xs, 3), with_boundaries(model_y, ys, 3)
    with pytest.raises(NotACocycle, match="cup product failed to be a cocycle"):
        cup_rows(model_x, us, model_y, vs, half, model_z)
    with pytest.raises(NotACocycle, match="cup product failed to be a cocycle"):
        reference(model_x, us, model_y, vs, half, model_z)
