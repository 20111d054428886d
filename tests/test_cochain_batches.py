"""A batch of cochains, ``koszulhh.Cochains``, keeps every cochain in place.

Lists of dicts with empty chains in the middle and at the end go into a
batch and back unchanged; ``cup`` and ``HHModule.project`` keep an empty
cochain, or a product that vanishes, at its place and count it, also at
the end of a batch.  ``are_cocycles`` raises ``NotHomogeneous`` from inside
a batch, with the message of the reference's ``chain_degree``.
"""

import functools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hh2.clubsuit import PRODUCT_TABLE, NaturalMaps
from hh2.koszulhh import NotHomogeneous, cup

from batches import as_batch, as_chains, as_rows, named
from cup_reference import cup_one
from model_reference import chain_degree

KINDS = ("omega", "theta", "theta-sigma", "omega-dual", "omega-ep-omega")


@functools.lru_cache(maxsize=None)
def maps(p: int) -> NaturalMaps:
    return NaturalMaps(p)


@st.composite
def with_empties(draw, chains: list) -> list:
    """chains with empty chains put in among them and one at the end."""
    out = list(chains)
    for _ in range(draw(st.integers(1, 3))):
        out.insert(draw(st.integers(0, len(out))), {})
    return out + [{}]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_dicts_go_into_a_batch_and_back(data):
    chains = data.draw(st.lists(st.dictionaries(st.integers(0, 40), st.integers(-6, 6),
                                                max_size=5), max_size=6))
    chains = data.draw(with_empties(chains))
    batch = as_batch(chains)
    assert batch.count == len(chains)
    assert list(batch.owner) == sorted(batch.owner)
    assert as_chains(batch) == chains


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_empty_cochains_keep_their_place_in_cup_and_project(data):
    p = data.draw(st.sampled_from((3, 5)))
    nm = maps(p)
    kind = data.draw(st.sampled_from(KINDS))
    chi, hh = nm.homology["omega"], nm.homology[kind]
    model_x, model_y = nm.models["omega"], nm.models[kind]
    pairing = nm.pairings[PRODUCT_TABLE["omega", kind, kind]]
    us = data.draw(with_empties(data.draw(st.lists(
        st.sampled_from([cl.rep for cl in chi.classes]), max_size=3))))
    vs = data.draw(with_empties(data.draw(st.lists(
        st.sampled_from([cl.rep for cl in hh.classes]), max_size=3))))
    products = cup(model_x, as_batch(us), model_y, as_batch(vs), pairing, model_y)
    assert products.count == len(us) * len(vs)
    rows = as_rows(products, len(us))
    assert rows == [[cup_one(model_x, u, model_y, v, pairing, model_y) for v in vs]
                    for u in us]
    assert rows[-1] == [{}] * len(vs) and all(row[-1] == {} for row in rows)
    projected = named(hh, hh.project(products))
    assert len(projected) == products.count and projected[-1] == {}
    assert named(hh, hh.project(as_batch(vs)))[-1] == {}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_are_cocycles_raises_not_homogeneous_from_inside_a_batch(data):
    p = data.draw(st.sampled_from((3, 5)))
    kind = data.draw(st.sampled_from(KINDS))
    model, hh = maps(p).models[kind], maps(p).homology[kind]
    first: dict = {}  # the first pair of each bucket
    for n, b in enumerate(model.bucket.tolist()):
        first.setdefault(b, n)
    picks = data.draw(st.lists(st.sampled_from(sorted(first.values())), min_size=2,
                               max_size=4, unique=True))
    bad = {n: data.draw(st.integers(1, p - 1)) for n in picks}
    good = data.draw(with_empties([cl.rep for cl in hh.classes]))
    where = data.draw(st.integers(0, len(good)))
    with pytest.raises(NotHomogeneous) as expected:
        chain_degree(model, bad)
    with pytest.raises(NotHomogeneous, match=re.escape(str(expected.value))):
        model.are_cocycles(as_batch(good[:where] + [bad] + good[where:]))
