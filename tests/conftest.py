import pytest

from hh2.clubsuit import NaturalMaps
from hh2.koszulhh import build_model, homology_named


@pytest.fixture(scope="session")
def maps3():
    return NaturalMaps(3)


@pytest.fixture(scope="session")
def maps5():
    return NaturalMaps(5)


@pytest.fixture(scope="session")
def named3(maps3):
    mods = maps3.modules
    models = {k: build_model(maps3.c, m) for k, m in mods.items()}
    return models, {k: homology_named(models[k], k) for k in mods}


@pytest.fixture(scope="session")
def named5(maps5):
    mods = maps5.modules
    models = {k: build_model(maps5.c, m) for k, m in mods.items()}
    return models, {k: homology_named(models[k], k) for k in mods}
