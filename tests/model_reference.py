"""The Koszul model's differential one chain at a time, and ``HHModule.project``
one chain at a time on the dict elimination: the tests' references.

The model keeps d only as COO arrays, ``_d``.  ``images``, ``differential``,
``is_cocycle`` and ``chain_degree`` read it one chain at a time, as the
model's dict methods of those names did.  ``reference_project`` is
``HHModule.project`` as it ran before projection became two joins over a
batch: its body is unchanged but for the pivots, which ``_pivots_at`` makes
per call as ``HHModule`` made them per degree.  ``project_one`` is the
batched ``project`` of one chain, for tests that project one cocycle at a
time.
"""

from __future__ import annotations

import weakref

from hh2.exactlin import NotACocycle, combo_add
from hh2.koszulhh import (Cochain, CochainModel, HHModule, NameCombo, NotHomogeneous,
                          UnrecognizedSignature)

from batches import as_batch, named
from dict_elimination import sparse_pivots, sparse_reduce

_IMAGES = weakref.WeakKeyDictionary()  # model -> d of each pair, as dicts


def _images(model: CochainModel) -> list[Cochain]:
    if model not in _IMAGES:
        out: list[Cochain] = [{} for _ in range(model.dim)]
        for n, m, v in zip(*(a.tolist() for a in model._d)):
            out[n][m] = v
        _IMAGES[model] = out
    return _IMAGES[model]


def images(model: CochainModel, key: tuple[int, int]) -> list[Cochain]:
    """The differentials of the cochains of bucket key, in bucket order."""
    return [_images(model)[n] for n in model.bucket_of.get(key, [])]


def differential(model: CochainModel, chain: Cochain) -> Cochain:
    out: Cochain = {}
    for n, coeff in chain.items():
        combo_add(out, _images(model)[n], coeff, model.p)
    return out


def chain_degree(model: CochainModel, chain: Cochain) -> tuple[int, int]:
    keys = {model.keys[b] for b in model.bucket[list(chain)].tolist()}
    if len(keys) != 1:
        raise NotHomogeneous(f"cochain not homogeneous: {keys}")
    return keys.pop()


def is_cocycle(model: CochainModel, chain: Cochain) -> bool:
    if not chain:
        return True
    chain_degree(model, chain)  # raises NotHomogeneous
    return not differential(model, chain)


def _pivots_at(hh: HHModule, key: tuple[int, int]) -> dict[int, dict]:
    """The pivots of the boundaries into bucket key, then of the named
    representatives of that degree, each with its tag row."""
    j, k = key
    tagged = [{**cl.rep, hh.model.dim + idx: 1}
              for idx, cl in enumerate(hh.classes) if (cl.j, cl.k) == key]
    return sparse_pivots([*images(hh.model, (j, k - 1)), *tagged], hh.p)


def reference_project(hh: HHModule, chain: Cochain) -> NameCombo:
    """Express a cocycle as a combination of the named classes."""
    if not chain:
        return {}
    model, p = hh.model, hh.p
    key = chain_degree(model, chain)
    if not is_cocycle(model, chain):
        raise NotACocycle("vector is not a cocycle")
    vec = sparse_reduce({n: v for n, c in chain.items() if (v := c % p)},
                        _pivots_at(hh, key), p)
    if any(r < model.dim for r in vec):
        raise UnrecognizedSignature("cocycle not in span of named classes"
                                    if key in hh._named
                                    else f"nonzero class at unnamed degree {key}")
    return {hh.classes[r - model.dim].name: -c % p for r, c in sorted(vec.items())}


def project_one(hh: HHModule, chain: Cochain) -> NameCombo:
    """The batched ``HHModule.project`` of one chain."""
    return named(hh, hh.project(as_batch([chain])))[0]
