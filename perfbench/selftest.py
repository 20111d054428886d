"""Self-test of the benchmark's own checks.  Changes nothing under src/.

    python3 perfbench/selftest.py

Runs two real jobs with HH2_MAX_CELLS=1 in the caller's environment, which
must not reach the workers, then passes tampered copies of their
results through the same accounting a run uses.  A tampered payload, a FAIL
check, a missing check, a non-zero exit and a crashed worker must each count
as a failed job, as must a FAIL in a check added after the golden payloads
were recorded; identical jobs of different cost or work must be reported;
and every per-layer metric in BENCHMARK.json must be one the trace produces.
Exit 0 when every check holds.
"""

from __future__ import annotations

import copy
import json
import os
import sys
from dataclasses import replace

import bench
import run
import tracing


def tampered(res: bench.JobResult, edit) -> bench.JobResult:
    doc = json.loads(res.out)
    edit(doc)
    return replace(res, out=json.dumps(doc))


def bump_first_hilbert(doc: dict) -> None:
    key = next(iter(doc["hilbert"]))
    doc["hilbert"][key] += 1


def fail_first_check(doc: dict) -> None:
    doc["checks"][0]["status"] = "FAIL"


def drop_last_check(doc: dict) -> None:
    doc["checks"].pop()


def add_failing_check(doc: dict) -> None:
    doc["checks"].append({"name": "a check added later", "status": "FAIL"})


def add_timing_fields(doc: dict) -> None:
    doc["elapsed_s"] = 1.0
    for check in doc["checks"]:
        check.update(elapsed_s=0.5, size={"cells": 1})


def main() -> int:
    golden = bench.load_golden()
    os.environ["HH2_MAX_CELLS"] = "1"  # would make the p=3 bar oracle raise
    try:
        hhl = bench.run_job(("hhl", "--p", "3", "--l", "2"))
        verify = bench.run_job(("verify", "--p", "3"))
    finally:
        del os.environ["HH2_MAX_CELLS"]
    errors = []

    def expect(what: str, ok: bool) -> None:
        print(f"{'ok  ' if ok else 'FAIL'}  {what}")
        if not ok:
            errors.append(what)

    expect("real jobs pass with HH2_* removed from the worker environment",
           bench.judge(hhl, golden) is None and bench.judge(verify, golden) is None)
    expect("added timing and size fields are ignored",
           bench.judge(tampered(verify, add_timing_fields), golden) is None)

    cases = [
        (hhl, False),
        (tampered(hhl, bump_first_hilbert), True),
        (tampered(verify, fail_first_check), True),
        (tampered(verify, drop_last_check), True),
        (tampered(verify, add_failing_check), True),
        (replace(verify, rc=3, error="exit 3: internal check failure"), True),
        (bench.JobResult(hhl.args, 0.0, 0.0, error="worker exited -9: "), True),
    ]
    pending = iter(cases)
    run.run_job = lambda args, trace, timeout: next(pending)[0]
    r = run.Run("query_mix", 0, golden)
    r.jobs = [res.args for res, _ in cases]
    r.one_pass(trace=False)
    want_failed = sum(bad for _, bad in cases)
    expect(f"failed_frac counts {want_failed}/{len(cases)} tampered or broken jobs",
           (len(r.failures), r.attempted) == (want_failed, len(cases)))

    slow, fast = replace(hhl, job_start=0.0, job_end=1.0), replace(hhl, job_start=0.0, job_end=0.3)
    expect("a repeated job that runs much faster is reported",
           len(bench.twin_problems([slow, fast])) == 1)
    other = replace(hhl, counters={"spadesuit.product.calls": 1})
    expect("a repeated job doing different work is reported",
           len(bench.twin_problems([hhl, other])) == 1)
    expect("identical jobs of equal cost pass", bench.twin_problems([hhl, copy.copy(hhl)]) == [])

    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    known = {name for name, *_ in tracing.SPANS + tracing.COUNTERS} | {tracing.ROOT_SPAN}
    unknown = [m["name"] for m in spec["per_layer"]
               if m["name"].rsplit(".", 1)[0] not in known | {"run", "trace"}]
    expect("every per-layer metric names a traced layer", unknown == [])
    records = json.loads((bench.HERE / "records.json").read_text())
    layer_names = {m["name"] for m in spec["per_layer"]}
    expect("the interaction map covers exactly the per-layer metrics",
           set(records["interaction"]) == layer_names)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
