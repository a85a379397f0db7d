"""Reference-host clock: wall time corrected for the host's current speed.

On a shared machine the same pure-Python work can take 20-40% longer
from one minute to the next, because of what other tenants run.  A
benchmark that reports raw wall time then measures the neighbours as
much as the program.  The ledger therefore runs a fixed probe (integer
arithmetic, dict lookups and calls, the simulator's own mix of work) between
injections and converts each measured interval to *reference-host
time*: the time it would have taken on a host where one probe takes
exactly :data:`REFERENCE_SECONDS`.  On a steady host the conversion is
a constant factor; on a drifting one it removes most of the drift.

The probe is benchmark code and never calls into the simulator, so a
change to the program cannot move it.
"""

from __future__ import annotations

import statistics
import time

#: Duration of one probe on the reference host, which defines the unit.
REFERENCE_SECONDS = 0.004

_TABLE = {key: (key * 2654435761) & 0xFFFF for key in range(1 << 16)}


def _next_key(key: int, step: int) -> int:
    return (key * 1103515245 + 12345 + step) & 0xFFFF


def _probe_work() -> int:
    table = _TABLE
    key = 1
    total = 0
    for step in range(8_000):
        key = _next_key(key, step)
        total += table[key] + step * step % 7
    return total


class HostClock:
    """Interleaved probes and the reference-host scale they imply."""

    def __init__(self) -> None:
        #: duration of every probe run so far, in seconds
        self.samples: list[float] = []

    def probe(self) -> float:
        """Run one probe; returns its wall time in seconds."""
        start = time.perf_counter()
        _probe_work()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def scale(self, since: int = 0, until: int | None = None) -> float:
        """Reference seconds per wall second, from ``samples[since:until]``."""
        return REFERENCE_SECONDS / statistics.median(self.samples[since:until])
