"""The Koszul model's homology on the sparse elimination, against the dense
reference, and the read-back of named classes through ``HHModule.project``."""

import random
import re
import sys

import numpy as np
import pytest

from hh2 import Hh2Error, cli, exactlin
from hh2.clubsuit import NaturalMaps
from hh2.exactlin import Homology, NotACocycle
from hh2.koszulhh import (CochainModel, HHClass, UnrecognizedSignature, build_model,
                          homology_named)
from hh2.quiver import combo_add

from batches import module

from model_reference import differential, images, project_one

PRIMES = (3, 5, 7)


@pytest.fixture(scope="module", params=PRIMES)
def named(request):
    nm = NaturalMaps(request.param)
    models = {k: build_model(nm.c, m) for k, m in nm.modules.items()}
    return models, {k: homology_named(models[k], k) for k in models}


def dense_d(model, key):
    """The matrix of d from bucket key to the bucket above it."""
    j, k = key
    src = model.bucket_of.get(key, [])
    tgt = {n: row for row, n in enumerate(model.bucket_of.get((j, k + 1), []))}
    mat = exactlin.zeros(len(tgt), len(src))
    for col, image in enumerate(images(model, key)):
        for n, c in image.items():
            mat[tgt[n], col] = c
    return mat


def test_homology_dim_matches_the_dense_reference(named):
    models, _hhs = named
    for kind, model in models.items():
        for (j, k) in model.bucket_of:
            hom = Homology(dense_d(model, (j, k - 1)), dense_d(model, (j, k)), model.p)
            assert model.homology_dim((j, k)) == hom.dimension, (kind, (j, k))


def test_project_reads_back_combinations_plus_boundaries(named):
    models, hhs = named
    for kind, hh in hhs.items():
        model, p = models[kind], hh.p
        rng = random.Random(f"{kind} {p}")
        by_key: dict = {}
        for cl in hh.classes:
            by_key.setdefault((cl.j, cl.k), []).append(cl)
        for (j, k), classes in by_key.items():
            for _ in range(3):
                chain: dict = {}
                want = {}
                for cl in classes:
                    a = rng.randrange(p)
                    combo_add(chain, cl.rep, a, p)
                    if a:
                        want[cl.name] = a
                for image in images(model, (j, k - 1)):
                    combo_add(chain, image, rng.randrange(p), p)
                assert project_one(hh, chain) == want, (kind, (j, k))


def test_non_cocycle_and_boundary(named):
    models, hhs = named
    model, hh = models["omega"], hhs["omega"]
    n = next(n for n in range(model.dim) if differential(model, {n: 1}))
    with pytest.raises(NotACocycle) as exc:
        project_one(hh, {n: 1})
    assert isinstance(exc.value, Hh2Error)
    boundaries = [differential(model, {n: 1}) for n in range(model.dim)]
    assert any(boundaries)
    for boundary in boundaries:
        assert project_one(hh, boundary) == {}


def test_swapped_representative_is_not_independent(named):
    models, hhs = named
    model, hh = models["omega"], hhs["omega"]
    # c2_1 .. c2_{p-1} share the degree (2, 0)
    rep = hh.by_name[("c2", 1)].rep
    classes = [HHClass(cl.name, cl.j, cl.k, cl.h, rep if cl.name == ("c2", 2) else cl.rep)
               for cl in hh.classes]
    with pytest.raises(UnrecognizedSignature, match="not independent"):
        module(model, classes)


def test_non_cocycle_representative_is_dropped_and_counted(named):
    # a direct build drops a candidate whose representative is no cocycle, as
    # homology_named drops them, so its degree is one class short
    models, hhs = named
    model, hh = models["omega"], hhs["omega"]
    n = next(n for n in range(model.dim) if differential(model, {n: 1}))
    for name in (("z", 0), ("c2", 1)):  # alone at its degree, and one of p - 1 there
        cl = hh.by_name[name]
        classes = [HHClass(c.name, c.j, c.k, c.h, {n: 1} if c is cl else c.rep)
                   for c in hh.classes]
        short = sum((c.j, c.k) == (cl.j, cl.k) for c in hh.classes)
        with pytest.raises(UnrecognizedSignature, match=re.escape(
                f"{short - 1} named classes vs homology dimension {short} at {(cl.j, cl.k)}")) \
                as exc:
            module(model, classes)
        assert isinstance(exc.value, Hh2Error)


def test_each_module_checks_its_representatives_once(monkeypatch):
    nm = NaturalMaps(5)
    calls = []
    are_cocycles = CochainModel.are_cocycles
    monkeypatch.setattr(CochainModel, "are_cocycles",
                        lambda model, batch: calls.append(batch.count) or are_cocycles(model, batch))
    for kind, model in nm.models.items():
        calls.clear()
        homology_named(model, kind)
        assert calls == [{"omega-dual": 5, "theta-sigma": 8}.get(kind, 13)], kind


def test_hh_runs_without_the_dense_path(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("dense elimination called")

    monkeypatch.setattr(Homology, "__init__", refuse)
    rref = exactlin.rref
    for name, module in list(sys.modules.items()):
        if name == "hh2" or name.startswith("hh2."):
            for attr, value in list(vars(module).items()):
                if value is rref:
                    monkeypatch.setattr(module, attr, refuse)
    for kind in cli.COEFFS:
        assert cli.main(["hh", "--p", "5", "--coefficient", kind]) == 0, kind
    capsys.readouterr()
    nm = NaturalMaps(3)
    for kind, x_mod in nm.modules.items():
        hh = homology_named(build_model(nm.c, x_mod), kind)
        for cl in hh.classes:
            assert project_one(hh, cl.rep) == {cl.name: 1}
