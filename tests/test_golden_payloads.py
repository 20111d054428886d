"""The mathematical payloads of hh and spadesuit equal the recorded ones.

``perfbench/golden.json`` records the digest of each benchmark job's payload
(its basis, products and hilbert keys), and the benchmark fails a job whose
digest differs.  This test runs some of those jobs in-process and compares
their digests with the same function and file, so that a change of output
shows in the test suite as well.  Both files are only read.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from hh2.cli import COEFFS, main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

JOBS = ([("hh", "--p", str(p), "--coefficient", c) for p in (7, 11) for c in COEFFS]
        + [("spadesuit", "--p", str(p)) for p in (5, 7)])


@pytest.fixture(scope="module")
def payload_digest():
    # bench.py imports its sibling modules by name, and its dataclasses look
    # their module up in sys.modules
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_bench", PERFBENCH / "bench.py")
        bench = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
    finally:
        sys.path.remove(str(PERFBENCH))
    return bench.payload_digest


@pytest.fixture(scope="module")
def golden():
    return json.loads((PERFBENCH / "golden.json").read_text())


@pytest.mark.parametrize("job", JOBS, ids=" ".join)
def test_payload_matches_golden(job, payload_digest, golden, capsys):
    assert main(list(job)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert payload_digest(doc) == golden[" ".join(job)]
