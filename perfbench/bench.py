"""The hh2 benchmark's workloads, job runner, output checks and metrics.

Each workload is a closed loop with one client: one job at a time, each job
a real ``hh2`` CLI invocation in a fresh worker process (``worker.py``), so
no state carries over from one job to the next.  Only ``run.py`` prints.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from speed import reference_at

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
GOLDEN = HERE / "golden.json"
OUT_DIR = ROOT / ".perfbench_out"

COEFFICIENTS = ("omega", "theta", "theta-sigma", "omega-dual", "omega-ep-omega")
WORKLOADS = ("verify_small_p", "verify_large_p", "query_mix")

# a repeated job may run this much faster than its twin, at nominal host
# speed, before the benchmark suspects that work was carried over between
# jobs (a cache outside the process); gaps under the floor are noise on a
# short job.  Traced passes also compare the twins' work counters, which
# catch a smaller shortcut exactly.
TWIN_MIN_RATIO = 0.5
TWIN_FLOOR_S = 0.1

# what speed.reference_s() takes at nominal host speed (about its median on
# the baseline machine of records.json).  Times are reported at that speed.
REF_NOMINAL_S = 0.0008


def jobs_for(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The workload's jobs in run order; the seed decides what each workload
    says it may vary."""
    rng = random.Random(seed)
    if workload == "verify_small_p":
        jobs = [("verify", "--p", "3"), ("verify", "--p", "5")]
    elif workload == "verify_large_p":
        jobs = [("verify", "--p", "11"), ("verify", "--p", "13")]
    elif workload == "query_mix":
        queries = [("hh", "--p", str(p), "--coefficient", rng.choice(COEFFICIENTS))
                   for p in (7, 11, 13)]
        queries += [("spadesuit", "--p", str(p)) for p in (5, 7)]
        queries += [("hhl", "--p", "3", "--l", str(level)) for level in (2, 3, 4)]
        # every query is issued twice, as a user repeats one; a pair that
        # costs much less the second time shows a cross-job cache
        jobs = queries * 2
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


def job_key(args) -> str:
    return " ".join(args)


@dataclass
class JobResult:
    args: tuple
    # time.perf_counter() readings, comparable across processes
    launch: float
    ready: float = 0.0
    job_start: float = 0.0
    job_end: float = 0.0
    rc: int | None = None
    out: str = ""
    maxrss_kb: int = 0
    cpu_s: float = 0.0
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    error: str | None = None  # the worker crashed or timed out
    # the yardstick's time on this CPU while the worker started / ran its job
    setup_ref_s: float = REF_NOMINAL_S
    job_ref_s: float = REF_NOMINAL_S

    @property
    def setup_s(self) -> float:
        return self.ready - self.launch

    @property
    def job_s(self) -> float:
        return self.job_end - self.job_start

    def set_speed(self, samples: list) -> None:
        """Read the host's speed during this worker from the sampler's samples."""
        self.setup_ref_s = reference_at(samples, self.launch, self.ready)
        if self.args:
            self.job_ref_s = reference_at(samples, self.job_start, self.job_end)

    def nominal_setup_s(self) -> float:
        return self.setup_s * REF_NOMINAL_S / self.setup_ref_s

    def nominal(self, seconds: float) -> float:
        """seconds spent during the job, at nominal host speed"""
        return seconds * REF_NOMINAL_S / self.job_ref_s


@contextlib.contextmanager
def speed_samples():
    """Run the speed sampler (speed.py) for the body; yields its samples,
    filled in when the body ends."""
    proc = subprocess.Popen([sys.executable, str(HERE / "speed.py")], text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    samples: list = []
    try:
        yield samples
    finally:
        out, _ = proc.communicate(timeout=30)  # closing stdin stops it
    samples.extend(json.loads(out))


def worker_env() -> dict:
    """The caller's environment without hh2 overrides, so that every job runs
    with the CLI defaults and no guard or check is switched off."""
    return {k: v for k, v in os.environ.items() if not k.startswith("HH2_")}


def run_job(args, trace: bool = False, timeout: float = 170.0) -> JobResult:
    """Launch one worker for args (empty: a set-up probe) and wait for it."""
    cmd = [sys.executable, str(WORKER), *(["--trace"] if trace else []), *args]
    t_launch = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return JobResult(tuple(args), t_launch, t_launch, error=f"timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or [""]
        return JobResult(tuple(args), t_launch, t_launch,
                         error=f"worker exited {proc.returncode}: {tail[0]}")
    rep = json.loads(out)
    if not Path(rep["hh2"]).resolve().is_relative_to(ROOT / "src"):
        return JobResult(tuple(args), t_launch, t_launch, error=f"hh2 imported from {rep['hh2']}")
    res = JobResult(tuple(args), t_launch, rep["ready"])
    if args:
        res.job_start, res.job_end, res.rc = rep["job_start"], rep["job_end"], rep["rc"]
        res.out, res.maxrss_kb, res.cpu_s = rep["out"], rep["maxrss_kb"], rep["cpu_s"]
        res.spans, res.counters = rep.get("spans", []), rep.get("counters", {})
        if res.rc != 0:
            res.error = f"exit {res.rc}: {rep['err'].strip()[-200:]}"
    return res


# -- output checks -----------------------------------------------------------

PAYLOAD_KEYS = ("basis", "products", "hilbert")


def payload_digest(doc: dict) -> str:
    """Digest of the mathematical payload of an hh, spadesuit or hhl document.

    Other top-level keys (version, command, checks, and any added later such
    as timings or sizes) do not enter it."""
    payload = {k: doc.get(k) for k in PAYLOAD_KEYS}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def golden_entry(args, doc: dict):
    """What golden.json records for one job's output document."""
    if args[0] == "verify":
        return sorted(c["name"] for c in doc["checks"])
    return payload_digest(doc)


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def judge(res: JobResult, golden: dict) -> str | None:
    """Why the job failed, or None when it passed every check.

    A job fails if its worker crashed or timed out, the CLI exited non-zero,
    any check reports FAIL, or the payload differs from the golden one.  For
    verify every golden check must be present and PASS; checks added later
    are allowed as long as none FAILs."""
    if res.error:
        return res.error
    key = job_key(res.args)
    try:
        doc = json.loads(res.out)
    except json.JSONDecodeError:
        return "output is not JSON"
    failing = sorted(c.get("name", "?") for c in doc.get("checks", [])
                     if c.get("status") == "FAIL")
    if failing:
        return f"FAIL: {failing[0]}"
    if key not in golden:
        return "no golden payload for this job"
    want = golden[key]
    if res.args[0] == "verify":
        status = {c["name"]: c.get("status") for c in doc.get("checks", [])}
        missing = [name for name in want if status.get(name) != "PASS"]
        return f"check not PASS: {missing[0]}" if missing else None
    return None if payload_digest(doc) == want else "payload differs from golden"


def twin_problems(results: list[JobResult]) -> list[str]:
    """Identical jobs of one pass whose costs disagree: one much cheaper at
    nominal host speed, or, when traced, different work counts."""
    by_key: dict[str, list[JobResult]] = defaultdict(list)
    for res in results:
        by_key[job_key(res.args)].append(res)
    problems = []
    for key, group in by_key.items():
        times = [r.nominal(r.job_s) for r in group]
        lo, hi = min(times), max(times)
        if hi - lo > TWIN_FLOOR_S and lo < TWIN_MIN_RATIO * hi:
            problems.append(f"{key}: identical jobs took {lo:.3f} s and {hi:.3f} s")
        if any(r.counters != group[0].counters for r in group):
            problems.append(f"{key}: identical jobs did different work")
    return problems


# -- metrics -----------------------------------------------------------------

def layer_metrics(results: list[JobResult]) -> dict[str, float]:
    """Self time per span name at nominal host speed, summed over the jobs,
    plus every counter.

    A span's self time is its duration minus that of its direct children;
    one worker runs one thread, so children never overlap."""
    out: dict[str, float] = defaultdict(float)
    for res in results:
        child_s: dict[int, float] = defaultdict(float)
        for _sid, _name, parent, start, end in res.spans:
            if parent is not None:
                child_s[parent] += end - start
        for sid, name, _parent, start, end in res.spans:
            out[f"{name}.self_s"] += res.nominal(end - start - child_s[sid])
        for key, n in res.counters.items():
            out[key] += n
    return dict(out)


def source_digest() -> str:
    """Digest of the hh2 sources, naming the program the counters belong to."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hh2").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def counter_mismatches(results: list[JobResult]) -> list[str]:
    """Compare each traced job's counters with what an earlier traced run of
    the same sources recorded for the same job, then record the new ones.

    Counters must repeat exactly; later changes may then cite them as counts."""
    path = OUT_DIR / f"counters-{source_digest()}.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    problems = []
    for res in results:
        if res.error is not None:
            continue
        key = job_key(res.args)
        if key in seen and seen[key] != res.counters:
            diff = sorted(k for k in set(seen[key]) | set(res.counters)
                          if seen[key].get(k) != res.counters.get(k))
            problems.append(f"{key}: counters changed between traced runs: {diff}")
        seen.setdefault(key, res.counters)
    OUT_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(seen, indent=1, sort_keys=True))
    return problems
