"""``spadesuit.name_table`` against the per-pair reference.

``name_table`` restricts one array table per closed form, built over the
three superset name lists, to a label triple's names.  Here every one of the
7^3 label triples equals the reference's enumeration of ``name_product``
(``tests/spade_reference.py``) as sorted (u, v, t, c) rows.  A changed closed
form must show twice: in that equality, and in ``verify``'s first-principles
check, which compares the tables with cup products.
"""

import itertools

import numpy as np
import pytest

import spade_reference as ref
from hh2 import spadesuit
from hh2.cli import run_verify
from hh2.spadesuit import (CHI, CHIBAR_MINUS, CHIBAR_PLUS, CHIBARSTAR_MINUS, CHIBARSTAR_PLUS,
                           CHIUNDER, OMEGA0, half)

LABELS = (CHI, CHIBAR_MINUS, CHIBAR_PLUS, CHIBARSTAR_MINUS, CHIBARSTAR_PLUS, CHIUNDER, OMEGA0)
TRIPLES = list(itertools.product(LABELS, repeat=3))
STAR = CHIBARSTAR_MINUS


def rows(table) -> list[tuple[int, ...]]:
    return sorted(zip(*(col.tolist() for col in table)))


def mismatched_triples(p: int) -> list[tuple[str, str, str]]:
    return [triple for triple in TRIPLES
            if rows(spadesuit.name_table(p, *triple)) != rows(ref.name_table(p, *triple))]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 19])
def test_every_label_triple_equals_the_reference(p):
    assert len(TRIPLES) == 343
    assert mismatched_triples(p) == []
    for triple in TRIPLES:  # int64 rows in (u, v, t) order
        table = spadesuit.name_table(p, *triple)
        assert all(col.dtype == np.int64 for col in table)
        assert rows(table) == list(zip(*(col.tolist() for col in table)))


# each mutation changes one closed form of the base tables, as a changed line
# of ``_base_tables`` would; the names are numbered in their superset lists

def _chi_bound_p_minus_2(p, tables):
    """z^a z^b = z^{a+b} only for a + b <= p - 2."""
    u, v, t, c = tables[CHI, CHI, CHI]
    keep = ~((u < p) & (v < p) & (u + v == p - 1))
    return {(CHI, CHI, CHI): tuple(col[keep] for col in (u, v, t, c))}


def _unsigned_c2_soc(p, tables):
    """c2_s soc_s = 1/2 nu_1, without the sign (-1)^{h-s}."""
    out = {}
    for key in ((CHI, STAR, STAR), (STAR, CHI, STAR)):
        u, v, t, c = tables[key]
        chi, star = (u, v) if key[0] == CHI else (v, u)
        out[key] = (u, v, t, np.where((chi >= 2 * p - 1) & (star < p - 1), half(p), c))
    return out


def _triangle_top_vertex(p, tables):
    """z^h z^h = e_p alone, the top-vertex component only."""
    u, v, t, c = tables[CHI, CHI, OMEGA0]
    keep = t == p - 1
    return {(CHI, CHI, OMEGA0): tuple(col[keep] for col in (u, v, t, c))}


# the checks of ``verify --p 3`` that each mutation fails: the first-principles
# check always, and the other checks that read the changed table
MUTATIONS = [
    (_chi_bound_p_minus_2, {"chi cup table matches presentation exactly",
                            "spade table vs cup (1591 cells)",
                            "spade associativity (2260562 triples)"}),
    (_unsigned_c2_soc, {"duality pairing associative", "spade table vs cup (1591 cells)",
                        "spade associativity (2256198 triples)"}),
    (_triangle_top_vertex, {"spade table vs cup (1591 cells)"}),
]


@pytest.fixture
def fresh_tables():
    spadesuit.name_table.cache_clear()
    yield
    spadesuit.name_table.cache_clear()


@pytest.mark.parametrize("mutation, failing", MUTATIONS,
                         ids=[mutation.__name__.lstrip("_") for mutation, _ in MUTATIONS])
def test_a_changed_closed_form_is_caught(mutation, failing, monkeypatch, fresh_tables):
    base_tables = spadesuit._base_tables

    def mutated(p):
        tables = base_tables(p)
        return {**tables, **mutation(p, tables)}

    monkeypatch.setattr(spadesuit, "_base_tables", mutated)
    assert mismatched_triples(3)
    assert {name for name, status, _ in run_verify(3) if status == "FAIL"} == failing
