"""Every entry point the benchmark's traced run wraps must exist in hh2.

``perfbench/tracing.py`` rebinds functions by name and class methods through
``vars(cls)``, so a renamed or moved entry point would only fail at
``--trace 1``.  This test fails first.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_traced_entry_points_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = ([(module, attr) for _name, module, attr, _counts in tracing.SPANS]
               + [(module, attr) for _name, module, attr in tracing.COUNTERS])
    assert targets
    for module, attr in targets:
        mod = importlib.import_module("hh2." + module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert callable(vars(getattr(mod, cls_name)).get(meth)), (module, attr)
        else:
            assert callable(getattr(mod, attr, None)), (module, attr)
