"""Run the benchmark on several seeds and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload verify_small_p --runs 10 [--first-seed 1]

Each run is a separate ``run.py`` process with its own seed.  For every
end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the bound
from BENCHMARK.json; then each job's median time at nominal host speed.
The last line is JSON with the same figures and a machine stamp.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy

from bench import HERE, ROOT, WORKLOADS

# a job line of run.py: "  pass 0  <command>  <seconds at nominal speed> s (measured ..."
JOB_LINE = re.compile(r"^  pass \d+  (.+?)  ([\d.]+) s \(measured", re.M)


def machine_stamp() -> dict:
    cpuinfo = Path("/proc/cpuinfo").read_text().splitlines()
    cpu = next((line.split(":", 1)[1].strip()
                for line in cpuinfo if line.startswith("model name")), "?")
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    job_times: dict[str, list[float]] = defaultdict(list)
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                               args.workload, "--seed", str(seed), "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(proc.stdout, file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        for key, seconds in JOB_LINE.findall(proc.stdout):
            job_times[key].append(float(seconds))
        print(f"seed {seed}: " + "  ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()),
              flush=True)
    summary = {}
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
        spread = (q3 - q1) / med
        summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                              "unit": m["unit"], "runs": len(vals)}
        print(f"{m['name']:<14} median {med:.4g} {m['unit']}  q1 {q1:.4g}  q3 {q3:.4g}  "
              f"spread {spread:.3f}  (bound {m['bound']}, bound/3 {m['bound'] / 3:.3f})")
    jobs = {key: statistics.median(v) for key, v in sorted(job_times.items())}
    for key, seconds in jobs.items():
        print(f"job {key:<40} median {seconds:.4g} s over {len(job_times[key])} jobs")
    print(json.dumps({"workload": args.workload, "machine": machine_stamp(),
                      "metrics": summary, "job_s_median": jobs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
