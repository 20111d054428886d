"""Cochain batches to and from dicts, for the tests.

``koszulhh`` holds a batch of cochains as one ``Cochains`` of COO arrays, from
the class representatives through ``cup`` to ``HHModule.project``.  The tests
write cochains as dicts {n: coeff}: ``as_batch`` turns a list of them into a
batch, and ``as_chains`` and ``as_rows`` turn a batch back into dicts.
``project`` returns a batch over the class indices; ``named`` turns it into
one {class name: coeff} per cochain.
"""

from __future__ import annotations

from typing import Iterable

from hh2.exactlin import coo_terms
from hh2.koszulhh import Cochain, Cochains, HHClass, HHModule, NameCombo, cup


def as_batch(chains: Iterable[Cochain]) -> Cochains:
    chains = list(chains)
    return Cochains(len(chains), *coo_terms(chains))


def as_chains(batch: Cochains) -> list[Cochain]:
    out: list[Cochain] = [{} for _ in range(batch.count)]
    for o, n, c in zip(*(a.tolist() for a in batch[1:])):
        out[o][n] = c
    return out


def named(hh: HHModule, batch: Cochains) -> list[NameCombo]:
    """A batch over hh's class indices, as ``project`` returns, as one
    {class name: coeff} per cochain."""
    return [{hh.classes[t].name: c for t, c in chain.items()} for chain in as_chains(batch)]


def as_rows(batch: Cochains, rows: int) -> list[list[Cochain]]:
    """The cochains of a batch in rows of equal length, as ``cup`` numbers its
    products: owner i * width + j is row i, place j."""
    chains = as_chains(batch)
    width = len(chains) // rows if rows else 0
    return [chains[i * width:(i + 1) * width] for i in range(rows)]


def cup_rows(model_x, us: list[Cochain], model_y, vs: list[Cochain], pairing,
             model_z) -> list[list[Cochain]]:
    """``cup`` of two lists of dicts, as rows: out[i][j] = us[i] . vs[j]."""
    return as_rows(cup(model_x, as_batch(us), model_y, as_batch(vs), pairing, model_z), len(us))


def module(model, classes: list[HHClass]) -> HHModule:
    """The ``HHModule`` of classes, with the batch of their representatives."""
    return HHModule(model, classes, as_batch(cl.rep for cl in classes))
