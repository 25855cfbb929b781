"""How fast the host runs Python right now, probed between pieces of work.

The host this benchmark was built on changes speed by itself: a fixed
pure-Python loop ran at 45 to 59 loops/s over twelve 5-second windows,
25-ms pieces of pure-Python work took twice as long in bursts of a few
hundred milliseconds, and sets of runs an hour apart differed by 30% in
set-up time, code unchanged.  Wall-clock figures taken at different
times are then not comparable by themselves.

So a run probes the host's speed between its pieces of work, while no
request is in flight: before and after every set-up and every chunk of
requests (``workloads.CHUNK_SIZE``).  A probe times ``PROBE_CALLS``
calls of a fixed kernel that does the two kinds of work the program
does (pure-Python edit distance over schema-like words, and small
numpy array steps).  The run's factor is ``REFERENCE_S`` over the mean
seconds per kernel call of all its probes, and every duration the run
reports is multiplied by it: the figures read as seconds on the host
at its reference speed.  One factor per run, from dozens of short
probes spread over it, follows the host's drift from minute to minute;
a factor per chunk, from two probes, would add the bursts the probes
happen to meet.  The kernel is the benchmark's own and never calls the
program, so a change to the program cannot move the factor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

#: Mean seconds per kernel call on the reference host (a 2-vCPU
#: Xeon container, Python 3.11, numpy 2.4) at an ordinary moment.
REFERENCE_S = 0.013
PROBE_CALLS = 4
#: Set-ups are few and long, so their probes are longer.
SETUP_PROBE_CALLS = 10

_WORDS = (
    "employees", "salaries", "departmentnumber", "birthdate", "fromdate",
    "checkincount", "business", "reviewcount", "yelpingsince", "titles",
)
_ROWS = np.random.default_rng(0).integers(0, 50, size=(600, 64)).astype(np.int32)


def _edit_distance(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            if ca == cb:
                cur.append(prev[j - 1])
            else:
                cur.append(1 + min(prev[j - 1], prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def kernel() -> int:
    """One call of the probe's fixed work; returns a checksum."""
    total = 0
    for _ in range(3):
        for a in _WORDS:
            for b in _WORDS:
                total += _edit_distance(a, b)
    row = np.zeros(_ROWS.shape[1], np.int32)
    for step in _ROWS:
        row = np.minimum(row + 12, np.minimum.accumulate(step + row) + 11)
    return total + int(row.sum())


@dataclass
class HostSpeed:
    """The probes of one run, and the factor they give."""

    #: Mean seconds per kernel call, one entry per probe.
    probes: list[float] = field(default_factory=list)

    def probe(self, calls: int = PROBE_CALLS) -> None:
        start = time.perf_counter()
        for _ in range(calls):
            kernel()
        self.probes.append((time.perf_counter() - start) / calls)

    def factor(self) -> float:
        """Turns host seconds of this run into reference seconds."""
        return REFERENCE_S / (sum(self.probes) / len(self.probes))
