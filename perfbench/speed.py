"""The host-speed yardstick and its sampler process.

    python3 perfbench/speed.py      # samples until stdin closes, then prints JSON

On a shared 2-vCPU KVM guest (Intel Xeon, Python 3.11) the speed one CPU
delivers swung by up to 2x within a minute as neighbouring guests loaded the
host.  The sampler times a fixed pure-Python sparse elimination over F_p
(about 1 ms; its code never changes with hh2) every SAMPLE_EVERY_S, on the
same CPU as the workers, and prints
``[[perf_counter, seconds], ...]`` when its stdin reaches end of file.  A
job's time read against the samples taken while it ran is much steadier than
its raw time (ten-run spreads of 0.04-0.16 against 0.10-0.36 there), though
a memory-bound job and this compute-bound yardstick do not slow down alike;
a sampler on the other CPU did not track the job at all.
"""

from __future__ import annotations

import bisect
import json
import random
import select
import statistics
import sys
import time

SAMPLE_EVERY_S = 0.1
# a window with fewer samples inside it uses this many nearest samples
MIN_SAMPLES = 4


def reference_columns() -> list[dict]:
    rng = random.Random(7)
    return [{rng.randrange(130): rng.randrange(1, 10007) for _ in range(3)} for _ in range(100)]


def reference_s(columns: list[dict]) -> float:
    """Seconds for one fixed sparse elimination over F_p."""
    p = 10007
    start = time.perf_counter()
    pivots: dict[int, dict] = {}
    for col in columns:
        cur = dict(col)
        while cur:
            r = min(cur)
            piv = pivots.get(r)
            if piv is None:
                inv = pow(cur[r], -1, p)
                pivots[r] = {rr: cc * inv % p for rr, cc in cur.items()}
                break
            f = cur[r]
            for rr, cc in piv.items():
                v = (cur.get(rr, 0) - f * cc) % p
                if v:
                    cur[rr] = v
                else:
                    cur.pop(rr, None)
    return time.perf_counter() - start


def reference_at(samples: list[list[float]], start: float, end: float) -> float:
    """Median reference time over the samples taken in [start, end], widened
    to the MIN_SAMPLES nearest ones when the window holds fewer."""
    times = [t for t, _ in samples]
    lo, hi = bisect.bisect_left(times, start), bisect.bisect_right(times, end)
    while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(samples)):
        if lo > 0 and (hi == len(samples) or start - times[lo - 1] <= times[hi] - end):
            lo -= 1
        else:
            hi += 1
    return statistics.median(s for _, s in samples[lo:hi])


def main() -> None:
    columns = reference_columns()
    samples = []
    while True:
        samples.append([time.perf_counter(), reference_s(columns)])
        if select.select([sys.stdin], [], [], SAMPLE_EVERY_S)[0]:
            break
    sys.stdout.write(json.dumps(samples))


if __name__ == "__main__":
    main()
