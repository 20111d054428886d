"""Record perfbench/golden.json: the payload of every job any workload can draw.

    python3 perfbench/record_golden.py

Run it on a commit whose answers are trusted.  For hh, spadesuit and hhl a
job's entry is the digest of its basis, products and hilbert fields; for
verify it is the sorted list of check names, all of which passed.
"""

from __future__ import annotations

import json
import sys

from bench import COEFFICIENTS, GOLDEN, golden_entry, job_key, run_job


def all_jobs() -> list[tuple[str, ...]]:
    jobs = [("verify", "--p", str(p)) for p in (3, 5, 11, 13)]
    jobs += [("hh", "--p", str(p), "--coefficient", c)
             for p in (7, 11, 13) for c in COEFFICIENTS]
    jobs += [("spadesuit", "--p", str(p)) for p in (5, 7)]
    jobs += [("hhl", "--p", "3", "--l", str(level)) for level in (2, 3, 4)]
    return jobs


def main() -> int:
    golden = {}
    for args in all_jobs():
        res = run_job(args)
        if res.error:
            print(f"{job_key(args)}: {res.error}", file=sys.stderr)
            return 1
        doc = json.loads(res.out)
        if any(c["status"] != "PASS" for c in doc["checks"]):
            print(f"{job_key(args)}: a check did not pass", file=sys.stderr)
            return 1
        golden[job_key(args)] = golden_entry(args, doc)
        print(f"{job_key(args)}: {res.job_s:.2f} s", flush=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
