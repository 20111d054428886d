"""Every benchmark job passes the benchmark's own output check.

``perfbench/golden.json`` records, for each benchmark job, the digest of its
payload (the basis, products and hilbert keys of hh, spadesuit and hhl) or
the names of its checks (verify), and ``bench.judge`` fails a job whose
output does not match.  This test runs every job of that file in-process and
judges its output with the same function, so that a change of output shows
in the test suite as well.  Both files are only read.

It also compares each job's JSON text with ``json.dumps(indent=2,
sort_keys=True)``, the reference for the CLI's own writer.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from hh2.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


@pytest.fixture(scope="module")
def bench():
    # bench.py imports its sibling modules by name, and its dataclasses look
    # their module up in sys.modules
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_bench", PERFBENCH / "bench.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


@pytest.mark.parametrize("job", sorted(GOLDEN))
def test_payload_matches_golden(job, bench, capsys):
    args = tuple(job.split())
    assert main(list(args)) == 0
    out = capsys.readouterr().out
    assert bench.judge(bench.JobResult(args, 0.0, out=out), GOLDEN) is None
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
