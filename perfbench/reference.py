"""A fixed pure-Python reference loop that measures the host's current speed.

Shared hosts change speed by tens of percent within minutes (another
tenant on the sibling hardware thread, frequency changes), so raw host
times of runs made minutes apart are not comparable.  The benchmark
times this loop many times during a pass, between program calls, and
scales the pass's host time to a host on which the loop takes
:data:`NOMINAL_S` seconds.

The loop uses only the standard library: a speed-up of the program
never speeds up the yardstick.  Its mix follows the simulator's hot
path: heap pushes and pops of tuples, generator resumes, dict and
attribute traffic, small-object allocation.
"""

from __future__ import annotations

import heapq
import time
from contextlib import contextmanager
from typing import Iterator, Optional

#: Host seconds one :func:`reference_loop` takes on the nominal host.
NOMINAL_S = 0.03

_ROUNDS = 24_000


class _Job:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value


def _worker(table: dict[int, float]) -> Iterator[float]:
    total = 0.0
    while True:
        job = yield total
        table[job.key] = table.get(job.key, 0.0) + job.value
        total += job.value


def reference_loop(rounds: int = _ROUNDS) -> float:
    """Run the loop once; returns its host seconds."""
    started = time.perf_counter()
    heap: list[tuple[float, int, _Job]] = []
    table: dict[int, float] = {}
    workers = [_worker(table) for _ in range(8)]
    for gen in workers:
        next(gen)
    seq = 0
    for i in range(rounds):
        seq += 1
        heapq.heappush(heap, ((i * 7919) % 1000 / 1000.0, seq, _Job(i % 97, i * 0.5)))
        if len(heap) > 64:
            _when, _seq, job = heapq.heappop(heap)
            workers[job.key % 8].send(job)
    return time.perf_counter() - started


class Meter:
    """Host time of a pass, raw and scaled to the nominal host.

    ``segment`` times program work; ``sample`` runs one reference loop
    between program calls and is not charged to the segment.  Each
    stretch of program time between two samples is scaled by
    ``NOMINAL_S`` over the mean of those two samples, so the scaled time
    follows the host's speed through the pass.
    """

    def __init__(self, sampling: bool = True) -> None:
        self.raw = 0.0
        self.nominal = 0.0
        self.samples: list[float] = []
        self.sampling = sampling
        self._since = 0.0
        self._open: Optional[float] = None

    def sample(self) -> None:
        if not self.sampling:
            return
        if self._open is not None:
            self._since += time.perf_counter() - self._open
        took = reference_loop()
        if self.samples:
            self.nominal += self._since * NOMINAL_S / ((self.samples[-1] + took) / 2.0)
        self.samples.append(took)
        self._since = 0.0
        if self._open is not None:
            self._open = time.perf_counter()

    @contextmanager
    def segment(self) -> Iterator[None]:
        self.sample()
        self._open = started = time.perf_counter()
        excluded = sum(self.samples)
        try:
            yield
        finally:
            now = time.perf_counter()
            self._since += now - self._open
            self._open = None
            self.raw += now - started - (sum(self.samples) - excluded)
            self.sample()
