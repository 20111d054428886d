"""Spans and exact work counters around the public functions of hh2's layers.

A worker installs a ``Tracer`` before its one job.  Installing rebinds each
traced function or method everywhere hh2 holds a reference to it (module
globals and class attributes), so nothing under ``src/`` changes and
intra-module calls are caught too.

A span is ``[id, name, parent_id, start, end]``; spans stay in memory until
the worker reports.  A call that enters a layer whose span is already the
innermost open one is folded into it (``rank`` calling ``rref`` is one dense
span, one call).  Hot entry points, called hundreds of thousands of times,
get a call counter and no span.
"""

from __future__ import annotations

import functools
import sys
import time


def _cells(args, result) -> dict:
    return {"cells": int(args[0].size)}


def _homology_cells(args, result) -> dict:
    _self, d_in, d_out = args[:3]
    return {"cells": int(d_in.size + d_out.size)}


def _sparse_rank_counts(args, result) -> dict:
    columns = args[0]
    return {"cols": len(columns), "nnz": sum(len(col) for col in columns), "rank": result}


def _triples(args, result) -> dict:
    return {"triples": result[0]}


# (span name, hh2 module, function or Class.method, extra counts or None)
SPANS = [
    ("exactlin.sparse_rank", "exactlin", "sparse_rank", _sparse_rank_counts),
    ("exactlin.dense", "exactlin", "rref", _cells),
    ("exactlin.dense", "exactlin", "rank", _cells),
    ("exactlin.dense", "exactlin", "rank_and_kernel", _cells),
    ("exactlin.dense", "exactlin", "Homology.__init__", _homology_cells),
    ("koszulhh.bar_oracle", "koszulhh", "bar_oracle", None),
    ("koszulhh.model", "koszulhh", "build_model", None),
    ("koszulhh.model", "koszulhh", "homology_named", None),
    ("koszulhh.cup", "koszulhh", "cup", None),
    *[("quiver.build", "quiver", fn, None) for fn in
      ("build_zigzag_c", "build_omega", "quotient_theta", "twist_sigma", "dual",
       "sub_ideal_epep")],
    ("clubsuit.natural_maps", "clubsuit", "NaturalMaps.__init__", None),
    ("clubsuit.check_maps", "clubsuit", "NaturalMaps.check_maps", None),
    ("clubsuit.club_window", "clubsuit", "ClubWindow.__init__", None),
    ("clubsuit.club_window", "clubsuit", "ClubWindow.symmetry_form", None),
    ("spadesuit.build_spade", "spadesuit", "build_spade", None),
    ("spadesuit.first_principles", "spadesuit", "verify_first_principles",
     lambda args, result: {"cells": len(result.cells)}),
    ("operators.hhl", "operators", "build_hhl", None),
    ("cli.spade_associativity", "cli", "_spade_associativity", _triples),
    ("cli.club_associativity", "cli", "_club_associativity", _triples),
    ("cli.emit", "cli", "_emit", lambda args, result: {"bytes": len(result.encode())}),
    # run_verify's own time is what its children leave: the chi cup table
    # loop and the supercommutativity and tower loops
    ("cli.verify_inline", "cli", "run_verify", None),
]

# (counter name, hh2 module, Class.method): hot, so a call count only
COUNTERS = [
    ("spadesuit.product", "spadesuit", "SpadeAlgebra.product"),
    ("operators.hhl_product", "operators", "HHLAlgebra.product"),
]

ROOT_SPAN = "cli.main"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._open: list[tuple[str, int]] = []
        self._next_id = 0

    def _bump(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def span(self, name: str, fn, counts=None):
        """Wrap fn in a span called name, counting calls and extra counts."""
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if open_spans and open_spans[-1][0] == name:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = open_spans[-1][1] if open_spans else None
            open_spans.append((name, sid))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_spans.pop()
                self.spans.append([sid, name, parent, start, end])
            self._bump(name + ".calls")
            if counts is not None:
                for key, n in counts(args, result).items():
                    self._bump(f"{name}.{key}", n)
            return result
        return traced

    def counter(self, name: str, fn):
        key = name + ".calls"
        counters = self.counters
        counters[key] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self, entry):
        """Wrap every traced layer of hh2; return entry wrapped as the root span."""
        for name, module, attr, counts in SPANS:
            _rebind(module, attr, lambda fn, n=name, c=counts: self.span(n, fn, c))
        for name, module, attr in COUNTERS:
            _rebind(module, attr, lambda fn, n=name: self.counter(n, fn))
        return self.span(ROOT_SPAN, entry)


def _rebind(module: str, attr: str, make_wrapper) -> None:
    mod = sys.modules["hh2." + module]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        setattr(cls, meth, make_wrapper(vars(cls)[meth]))
        return
    original = getattr(mod, attr)
    wrapper = make_wrapper(original)
    for name, other in list(sys.modules.items()):
        if name == "hh2" or name.startswith("hh2."):
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapper)
