"""Host-speed probe: the yardstick every benchmark timing is scaled by.

The sandbox this benchmark runs in shares its CPUs with other tenants,
so the same op sequence can run 10-30% faster or slower from one
minute to the next.  :func:`probe` is fixed work that the benchmark
owns and runs between ops all through the timed window: an
interpreter-bound loop of small-integer arithmetic plus a loop of
xor/shift/mask over 16 KiB integers, the two kinds of work the
simulation kernels and their bookkeeping do.  It allocates no object
the garbage collector tracks (ints and the ``range`` iterator are
untracked) and reads the calling thread's CPU clock, so nothing the
program under test does -- heap size, collector settings, background
threads -- can move it; only the host's speed can.

A run's speed factor is ``REFERENCE_PROBE_S / mean(probe samples)``.
Sums and means of timings are multiplied by it (and rates divided),
which expresses the run in *reference-host seconds*: run means, not
medians, and probes spread through the window, not one probe before
or after it.  The host's speed also swings within a run, by up to
1.7x over a second or two, and that moves percentiles more than
means; so for latency percentiles each op is scaled by the local
factor of the two probes around it instead.
"""

from __future__ import annotations

import time
from typing import List

#: Mean probe time on the reference host: a 2-vCPU x86-64 sandbox
#: running CPython 3.11.  A constant, so a run's factor depends on
#: that run's probe samples alone.
REFERENCE_PROBE_S = 0.0020

_LANE_MASK = (1 << 131072) - 1


def probe() -> float:
    """Thread-CPU seconds of one fixed unit of work (~2 ms).

    Only the clock and ``range`` are called, and only untracked ints
    are made, so the loop can neither trigger nor wait for a garbage
    collection.
    """
    clock = time.thread_time
    start = clock()
    x = 0x243F6A8885A308D313198A2E03707344
    for i in range(2000):
        x = (x * 0x9E3779B97F4A7C15F39CC0605CEDC835 + i) \
            % 0x7FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF
    mask = _LANE_MASK
    lane = mask // 3
    for i in range(2600):
        lane = (lane ^ (lane << 1) ^ i) & mask
    return clock() - start


class HostSpeed:
    """Probe samples of one run and the speed factors they give.

    One sample is taken before the first op and one after every op,
    so op ``i`` sits between samples ``i`` and ``i + 1``.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> None:
        self.samples.append(probe())

    def local_factor(self, op: int) -> float:
        """Speed factor of the two probes around op ``op``."""
        return 2 * REFERENCE_PROBE_S \
            / (self.samples[op] + self.samples[op + 1])

    @property
    def probe_s(self) -> float:
        return sum(self.samples) / len(self.samples)

    @property
    def factor(self) -> float:
        """Reference-host seconds per second measured on this host."""
        return REFERENCE_PROBE_S / self.probe_s
