"""Functions and methods of ``src/hh2`` that no code in ``src/hh2`` reaches.

The scan walks the AST of every ``src/hh2/*.py`` and lists each function or
method (``def``, at any depth) whose name occurs nowhere in ``src/hh2`` as a
name or an attribute: not called, passed, bound or read.  It matches names,
not objects, so a method is reached when any function of the same name is;
dunder methods are left out, as the interpreter calls them.

Such a function serves only the tests or the benchmark's tracing.  The list
must equal ``UNREACHED``: code added to ``src/`` for the tests alone fails
here until it moves to ``tests/``, and a name that becomes reached, or is
deleted, leaves the list.
"""

import ast
from pathlib import Path

import hh2

SRC = Path(hh2.__file__).resolve().parent

UNREACHED = [
    "built",                       # BuiltOnRead: what a NaturalMaps has built so far
    "rank",                        # exactlin: the dense reference, traced by the benchmark
    "sparse_rank",                 # exactlin: the rank of dict columns, traced by the benchmark
    "unit",                        # BasedAlgebra, SpadeAlgebra: the unit the tests check
]


def unreached() -> list[str]:
    defs, used = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(name for name in defs - used
                  if not (name.startswith("__") and name.endswith("__")))


def test_unreached_functions_are_the_listed_ones():
    assert unreached() == UNREACHED
