"""Host speed probe, used to take the host's drift out of the timings.

On the shared 2-core host the baseline was recorded on, throughput drifts
by a third or more over minutes: ten runs of identical work read up to 2x
apart in samples per second, and thread CPU time rose with the wall time.
The benchmark therefore runs this fixed pure-Python loop before every timed
call and reports each end-to-end value scaled by ``REFERENCE_S`` over the
median probe time of the run.  The scaled value is the time the run would
have taken on a host where the probe takes ``REFERENCE_S``, about its time
on a quiet core of that machine.  A change to qnd does not change the
probe, so it moves the scaled value as it moves the wall time.
"""

import statistics
import time

ITERATIONS = 50_000
REFERENCE_S = 0.0035


def probe():
    """Seconds the fixed loop takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


def factor(probes):
    """Multiplier from wall seconds to reference-host seconds."""
    return REFERENCE_S / statistics.median(probes)
