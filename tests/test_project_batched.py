"""The batched ``HHModule.project`` against the one-chain reference.

``project(as_batch(chains))[i]`` must equal
``model_reference.reference_project`` of ``chains[i]``, the projection on
the dict elimination, for all five
coefficient kinds at p = 3, 5 and 7, on random lists of cocycles: sums of
named representatives and boundaries of one degree each, in every bucket of
the model, named or not.  Each failure of a projection is raised from
inside a batch with its type and message: a chain that is no cocycle, one
with terms in several buckets, a cocycle at a degree without named classes,
and one outside the span of the named classes.
"""

import copy
import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hh2.clubsuit import NaturalMaps
from hh2.exactlin import NotACocycle, combo_add
from hh2.koszulhh import NotHomogeneous, UnrecognizedSignature

from batches import as_batch, module, named
from model_reference import differential, images, reference_project

KINDS = ("omega", "theta", "theta-sigma", "omega-dual", "omega-ep-omega")


@functools.lru_cache(maxsize=None)
def maps(p: int) -> NaturalMaps:
    return NaturalMaps(p)


@st.composite
def cocycles(draw, model, hh, p: int, max_size: int = 6) -> list[dict]:
    """A list of cocycles of one degree each, with random coefficients, some
    of them moved off [0, p) by a multiple of p."""
    by_degree: dict = {}
    for cl in hh.classes:
        by_degree.setdefault((cl.j, cl.k), []).append(cl.rep)
    degrees = list(model.bucket_of)
    out = []
    for _ in range(draw(st.integers(0, max_size))):
        j, k = draw(st.sampled_from(degrees))
        chain: dict = {}
        for rep in by_degree.get((j, k), []) + images(model, (j, k - 1)):
            combo_add(chain, rep, draw(st.integers(0, p - 1)), p)
        out.append({n: c + p * draw(st.integers(-1, 1)) for n, c in chain.items()})
    return out


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_batched_project_matches_reference(data):
    p = data.draw(st.sampled_from((3, 5, 7)))
    kind = data.draw(st.sampled_from(KINDS))
    model, hh = maps(p).models[kind], maps(p).homology[kind]
    chains = data.draw(cocycles(model, hh, p))
    assert named(hh, hh.project(as_batch(chains))) == [reference_project(hh, chain)
                                                       for chain in chains]


@pytest.mark.parametrize("p", (3, 5, 7))
def test_named_representatives_and_empty_chains(p):
    for kind in KINDS:
        hh = maps(p).homology[kind]
        assert named(hh, hh.project(as_batch([]))) == []
        reps = as_batch([{}, *(cl.rep for cl in hh.classes), {}])
        assert named(hh, hh.project(reps)) == [
            {}, *({cl.name: 1} for cl in hh.classes), {}]


@pytest.mark.parametrize("p", (3, 5))
def test_each_failure_is_raised_from_inside_a_batch(p):
    model, hh = maps(p).models["omega"], maps(p).homology["omega"]
    first, second = (members[0] for members in list(model.bucket_of.values())[:2])
    non_cocycle = next({n: 1} for n in range(model.dim) if differential(model, {n: 1}))
    cases = [(hh, non_cocycle, NotACocycle, "vector is not a cocycle"),
             (hh, {first: 1, second: 1}, NotHomogeneous, "cochain not homogeneous")]
    # the classes of one degree left out: that degree is unnamed
    cl = hh.classes[0]
    partial = module(model, [c for c in hh.classes if (c.j, c.k) != (cl.j, cl.k)])
    cases.append((partial, cl.rep, UnrecognizedSignature,
                  f"nonzero class at unnamed degree {(cl.j, cl.k)}"))
    for hh_case, chain, exc, message in cases:
        with pytest.raises(exc, match=re.escape(message)):
            reference_project(hh_case, chain)
        good = [c.rep for c in hh_case.classes]
        assert named(hh_case, hh_case.project(as_batch(good))) == [
            {c.name: 1} for c in hh_case.classes]
        for where in (0, len(good) // 2, len(good)):
            with pytest.raises(exc, match=re.escape(message)):
                hh_case.project(as_batch(good[:where] + [chain] + good[where:]))


def test_cocycle_outside_the_span_is_refused_from_inside_a_batch():
    # the second basis without the vector of a class alone at its degree
    # leaves that class's representative outside the span
    hh = copy.copy(maps(3).homology["omega"])
    degrees = [(c.j, c.k) for c in hh.classes]
    t = next(t for t, jk in enumerate(degrees) if degrees.count(jk) == 1)
    lead, at, row, val = hh._basis
    i = int(at[row == hh.model.dim + t][0])
    keep = at != i
    hh._basis = (np.delete(lead, i), at[keep] - (at[keep] > i), row[keep], val[keep])
    good = [c.rep for n, c in enumerate(hh.classes) if n != t]
    assert all(named(hh, hh.project(as_batch(good))))
    with pytest.raises(UnrecognizedSignature, match="cocycle not in span of named classes"):
        hh.project(as_batch(good + [hh.classes[t].rep] + good))
