"""Run one hh2 CLI job in this fresh interpreter and report on stdout.

Usage: python3 perfbench/worker.py [--trace] [hh2 arguments ...]

The worker imports every hh2 module from the checkout's ``src/``, notes when
it is ready, then times ``hh2.cli.main`` on the given arguments with the
CLI's stdout and stderr captured.  With no hh2 arguments it only reports when
it was ready (a set-up probe).  ``--trace`` installs the layer spans and
counters of ``tracing.py`` before the job starts.

The report is a single JSON line.  ``ready``, ``job_start`` and ``job_end``
are ``time.perf_counter()`` readings (CLOCK_MONOTONIC, so the parent can
compare them with its own); a job also reports ``rc``, ``out``, ``err``,
``maxrss_kb``, ``cpu_s`` and, when traced, ``spans`` and ``counters``.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import hh2.cli  # noqa: E402
from hh2 import clubsuit, exactlin, koszulhh, operators, quiver, spadesuit  # noqa: E402,F401


def main(argv: list[str]) -> None:
    report = {"ready": time.perf_counter(), "hh2": hh2.cli.__file__}
    trace = argv[:1] == ["--trace"]
    job = argv[1:] if trace else argv
    if job:
        entry = hh2.cli.main
        tracer = None
        if trace:
            from tracing import Tracer
            tracer = Tracer()
            entry = tracer.install(entry)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            rc = entry(job)
            t1 = time.perf_counter()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        report.update(job_start=t0, job_end=t1, rc=rc, out=out.getvalue(),
                      err=err.getvalue(), maxrss_kb=usage.ru_maxrss,
                      cpu_s=usage.ru_utime + usage.ru_stime)
        if tracer is not None:
            report.update(spans=tracer.spans, counters=tracer.counters)
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
