"""The listings read the arrays of a basis, and make no object per element.

``spadesuit``, ``hhl`` and ``hh`` list their bases from the arrays that
``SpadeAlgebra``, the algebras c and ``OmegaAlgebra`` and the modules built
from Omega keep; a ``SpadeElement`` or a ``BasisElement`` is made only when a
caller reads a ``basis`` or an ``index``.  Here each construction is counted
while the jobs run in this process, and none is made; a read of ``basis``
afterwards shows that the count sees the elements made.
"""

import contextlib
import io

import pytest

from hh2.cli import main
from hh2.quiver import BasisElement, build_omega
from hh2.spadesuit import SpadeElement, build_spade

JOBS = ["spadesuit --p 5", "hhl --p 3 --l 3", "hh --p 13 --coefficient omega-dual"]


@pytest.mark.parametrize("args", JOBS)
def test_jobs_make_no_element_objects(args, monkeypatch):
    made = {SpadeElement: 0, BasisElement: 0}
    for cls in made:
        def counted(cls_, *fields, cls=cls, new=cls.__new__, **named):
            made[cls] += 1
            return new(cls_, *fields, **named)

        monkeypatch.setattr(cls, "__new__", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(args.split()) == 0
    assert made == {SpadeElement: 0, BasisElement: 0}
    # the count sees the elements that a read of ``basis`` makes
    assert len(build_spade(5, 0, 0).basis) == made[SpadeElement] > 0
    assert len(build_omega(3).basis) == made[BasisElement] > 0
