import pytest

from hh2.clubsuit import NaturalMaps


@pytest.fixture(scope="session")
def maps3():
    return NaturalMaps(3)


@pytest.fixture(scope="session")
def maps5():
    return NaturalMaps(5)


@pytest.fixture(scope="session")
def named3(maps3):
    return maps3.models, maps3.homology


@pytest.fixture(scope="session")
def named5(maps5):
    return maps5.models, maps5.homology
