"""The hh2 benchmark: time real CLI jobs end to end, or trace their layers.

    python3 perfbench/run.py --workload verify_small_p --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload, every metric

A run first starts one unmeasured worker (it compiles bytecode and warms the
file cache), then a few set-up probes, then repeats passes over the
workload's jobs, one job at a time in fresh workers, until ``--seconds`` of
measuring have passed (at least one pass), then a few more probes.
``--trace 1`` adds one traced pass and reports the per-layer metrics instead
of the end-to-end ones; end-to-end numbers always come from untraced passes.

Times are reported at nominal host speed: the run pins itself, its workers
and the speed sampler (``speed.py``) to one CPU, and scales each time by
REF_NOMINAL_S over the sampler's yardstick while that worker ran.  hh2 is
single-threaded, so the pinning costs it nothing.  The measured times are
printed too.

Metric names and units come from BENCHMARK.json at the checkout root; the
workload records and the layer/workload interaction map are in
``perfbench/records.json``.  Human-readable lines go to stdout first; the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit 2 when the checkout has no hh2 sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

from bench import (HERE, OUT_DIR, REF_NOMINAL_S, ROOT, WORKLOADS, counter_mismatches, job_key,
                   jobs_for, judge, layer_metrics, load_golden, run_job, speed_samples,
                   twin_problems)

# set-up probes run before and after the passes, so that their median spans
# the run rather than one moment of it
SETUP_PROBES = 4
# every run must end within 180 s; a job still running at this point fails
RUN_BUDGET_S = 170.0


class Run:
    def __init__(self, workload: str, seed: int, golden: dict) -> None:
        self.workload = workload
        self.jobs = jobs_for(workload, seed)
        self.seed = seed
        self.golden = golden
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.attempted = 0

    def one_pass(self, trace: bool) -> list:
        results = []
        for args in self.jobs:
            left = self.deadline - time.perf_counter()
            if left <= 0:
                self.failures.append(f"{job_key(args)}: run budget exhausted")
                self.attempted += 1
                break
            res = run_job(args, trace=trace, timeout=left)
            reason = judge(res, self.golden)
            self.attempted += 1
            if reason:
                self.failures.append(f"{job_key(args)}: {reason}")
            else:
                results.append(res)
        return results

    def probes(self) -> list:
        probes = [run_job(()) for _ in range(SETUP_PROBES)]
        self.problems += [f"set-up probe: {p.error}" for p in probes if p.error]
        return [p for p in probes if not p.error]

    def measure(self, seconds: float, trace: bool) -> tuple[list, list, list]:
        """Probes, untraced passes and (with trace) one traced pass, each
        result read against the host's speed while it ran."""
        run_job(())  # warm-up, not measured
        with speed_samples() as samples:
            probes = self.probes()
            passes = []
            start = time.perf_counter()
            while True:
                passes.append(self.one_pass(trace=False))
                if time.perf_counter() - start >= seconds or self.failures:
                    break
            probes += self.probes()
            traced = self.one_pass(trace=True) if trace and not self.failures else []
        for res in probes + traced + [r for ps in passes for r in ps]:
            res.set_speed(samples)
        labelled = [(f"pass {n}", ps) for n, ps in enumerate(passes)] + [("traced", traced)]
        for label, results in labelled:
            self.problems += twin_problems(results)
            for r in results:
                print(f"  {label}  {job_key(r.args)}  {r.nominal(r.job_s):.4f} s "
                      f"(measured {r.job_s:.4f} s)  setup {r.nominal_setup_s():.4f} s  "
                      f"rss {r.maxrss_kb / 1024:.1f} MB")
        speed = REF_NOMINAL_S / statistics.median(s for _, s in samples)
        raw = statistics.median(sum(r.job_s for r in ps) for ps in passes)
        print(f"  measured wall {raw:.6g} s at {speed:.3f} of nominal host speed; "
              f"times are at nominal speed unless marked measured")
        return probes, passes, traced

    def end_to_end(self, seconds: float) -> dict[str, float]:
        probes, passes, _ = self.measure(seconds, trace=False)
        jobs = [r for ps in passes for r in ps]
        if not jobs:
            return {}
        return {
            "wall_s": pass_wall(passes),
            "job_s.p50": statistics.median(r.nominal(r.job_s) for r in jobs),
            "setup_s": statistics.median(r.nominal_setup_s() for r in probes + jobs),
            "peak_rss_mb": max(r.maxrss_kb for r in jobs) / 1024,
        }

    def per_layer(self, seconds: float) -> dict[str, float]:
        _probes, passes, traced = self.measure(seconds, trace=True)
        if not traced or not all(passes):
            return {}
        values = layer_metrics(traced)
        values["trace.wall_s"] = pass_wall([traced])
        values["trace.overhead_s"] = values["trace.wall_s"] - pass_wall(passes)
        values["run.cpu_s"] = statistics.median(sum(r.nominal(r.cpu_s) for r in ps)
                                                for ps in passes)
        self.problems += counter_mismatches(traced)
        self.write_spans(traced)
        return values

    def write_spans(self, traced: list) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        spans = [{"job": n, "command": job_key(r.args), "id": sid, "name": name,
                  "parent": parent, "start": start, "end": end}
                 for n, r in enumerate(traced) for sid, name, parent, start, end in r.spans]
        path = OUT_DIR / f"trace-{self.workload}-seed{self.seed}.json"
        path.write_text(json.dumps(spans))


def pass_wall(passes: list[list]) -> float:
    """Median over passes of the pass's summed job time, at nominal speed."""
    return statistics.median(sum(r.nominal(r.job_s) for r in ps) for ps in passes)


def check_interaction_map(workload: str, values: dict[str, float]) -> list[str]:
    """Per-layer metrics that records.json says are 0 on this workload but are not."""
    records = json.loads((HERE / "records.json").read_text())
    return [f"{name} = {values.get(name, 0):.6g}, expected 0"
            for name, entry in records["interaction"].items()
            if workload in entry["zero_on"] and values.get(name, 0) != 0]


def run_workload(workload: str, args, spec: dict, golden: dict) -> dict:
    print(f"workload {workload}, seed {args.seed}, trace {args.trace}", flush=True)
    run = Run(workload, args.seed, golden)
    if args.trace:
        values = run.per_layer(args.seconds)
        wanted = spec["per_layer"]
        for line in check_interaction_map(workload, values):
            print(f"  interaction map: {line}")
    else:
        values = run.end_to_end(args.seconds)
        wanted = spec["end_to_end"]
    for reason in run.failures + run.problems:
        print(f"  FAILED {reason}")
    failed = len(run.failures)
    print(f"  failed_frac = {failed / max(run.attempted, 1):.6g} ({failed}/{run.attempted} jobs)")
    metrics = {}
    for m in wanted:
        # a layer the workload never reaches has no span and no counter
        value = values.get(m["name"], 0.0 if args.trace else None)
        if value is None:
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']} = {value:.6g} {m['unit']}")
    correct = not run.failures and not run.problems and len(metrics) == len(wanted)
    return {"correct": correct, "attempted": run.attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hh2" / "cli.py").is_file():
        print(f"error: no hh2 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    golden = load_golden()
    # the sampler must share the workers' CPU: the host's speed differs per CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.workload != "all":
        result = run_workload(args.workload, args, spec, golden)
    else:
        parts = {w: run_workload(w, args, spec, golden) for w in WORKLOADS}
        result = {"correct": all(r["correct"] for r in parts.values()),
                  "attempted": sum(r["attempted"] for r in parts.values()),
                  "failed": sum(r["failed"] for r in parts.values()),
                  "metrics": {f"{w}.{name}": m for w, r in parts.items()
                              for name, m in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
