"""The host's pace: how long a fixed piece of pure-Python work takes right now.

The benchmark runs on shared hosts whose speed drifts, by up to a factor of
two over tens of seconds, and fixed work's CPU time then tracks its wall
time: it is the host that slows down, not the scheduler.  So a run times a
pace probe before every request and once after the last, outside the timed
region, and scales each request's wall time by a reference time over the
median of the probes nearest to it.  Timings then read as seconds at the
reference pace, and runs made in a slow and in a fast spell of the host agree.

The probe's work is the benchmark's own brute force over one session family
(`anchors.py`), which like rvar works on sets of semigroups; a plain loop
swings further than the requests do when the host slows.  The probe is run
where the request runs.  A CLI request is a fresh process, so its probe is
one too (`COMMAND`); a library query runs in the warm session process, so
its probe runs there (`in_process_probe`).  A process probe did not track
the queries at all.

No probe touches rvar, so no change to the program moves it.  stderr carries
each run's raw timings and its median probe time.

    python3 -S bench/pace.py        # one process probe
"""

import bisect
import os
import statistics
import sys
import time

import anchors
import workloads

# The probes' usual wall times on the host the benchmark was tuned on
# (2 shared x86-64 cores, CPython 3.11).  Only the scale of the reported
# seconds depends on them.
REF_S = 0.1  # the process probe
QUERY_REF_S = 0.0035  # the in-process probe
# The process probe does the work this many times, so that it takes about
# as long as a short CLI request.
PROCESS_ROUNDS = 12
# Each query has its own in-process probe; a single one is short and noisy,
# so a query is scaled by the median of this many probes on either side.
QUERY_REACH = 5
COMMAND = [sys.executable, "-S", os.path.abspath(__file__)]


def _work():
    lo, hi = workloads.INTERVALS[0]
    anchors.interval_members(lo, hi, workloads.SESSION_GENUS_BOUND)


def in_process_probe():
    """Wall seconds of the probe's work in this process."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def scaled(times, paces, ref=REF_S, reach=2):
    """`times` at the reference pace `ref`.

    paces[i] is the probe taken just before times[i], or None if none was,
    and paces[len(times)] the one after the last.  Each time is scaled by the
    median of the `reach` probes nearest before it and the `reach` nearest
    after it.
    """
    taken = [i for i, p in enumerate(paces) if p]
    out = []
    for i, t in enumerate(times):
        k = bisect.bisect_right(taken, i)  # taken[:k] came before times[i]
        near = [paces[j] for j in taken[max(k - reach, 0):k + reach]]
        out.append(t * ref / statistics.median(near) if near else t)
    return out


if __name__ == "__main__":
    for _ in range(PROCESS_ROUNDS):
        _work()
