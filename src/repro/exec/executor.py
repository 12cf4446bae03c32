"""Process-pool experiment executor with deterministic fan-out.

``run_grid`` takes a declarative list of :class:`RunSpec` cells and
executes them either inline (``workers=1``, the serial fallback) or
across a ``ProcessPoolExecutor``.  Three properties make the parallel
path a drop-in replacement for the serial one:

* **Deterministic seeding** — every run's simulation seed is derived
  from its spec (:func:`repro.exec.spec.derive_seed`), never from
  worker identity or completion order.
* **Spec-order merge** — results are returned in the order the specs
  were given, regardless of which worker finished first, so parallel
  output is bit-identical to serial output.
* **Loud failure** — an exception in any worker aborts the whole grid
  with an :class:`ExperimentError` naming the failing spec and carrying
  the worker's traceback; a worker process dying outright (OOM kill,
  hard crash) is reported the same way.

With a :class:`~repro.cache.ResultCache` attached, every cell is
looked up *before* dispatch — on both the serial and the pooled path —
and computed cells are written through as they complete (not at the
end), so a killed sweep resumes for free: already-completed cells hit,
only the remainder computes; only the advisory ``index.json`` is
written once per grid (see :mod:`repro.cache.store`).  Cached and
computed cells are interchangeable by construction (the cache stores
the canonical cell document and rebuilding it round-trips
byte-identically), so the spec-order merge and the bit-identity
contract are unchanged.

Progress and metrics reporting reuses the simulator's observability
conventions: the executor emits ``exec``-category records into a
:class:`~repro.sim.monitor.TraceLog` driven by a host wall clock, and
aggregates per-cell host seconds in a
:class:`~repro.sim.monitor.Monitor`.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Sequence, cast

from repro.exec.runners import execute_spec
from repro.exec.spec import CellResult, RunSpec
from repro.sim.monitor import Monitor, TraceLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache import ResultCache


class ExperimentError(RuntimeError):
    """A grid cell failed; the message names the spec and the cause."""


class HostClock:
    """Adapter giving :class:`TraceLog` a wall clock instead of sim time."""

    @property
    def now(self) -> float:
        return time.monotonic()  # repro: noqa DET001 - wall-clock provenance


@dataclass(frozen=True)
class ProgressEvent:
    """One completed cell, reported in completion (not spec) order."""

    done: int
    total: int
    index: int
    spec: RunSpec
    seconds: float
    #: True when the cell was served from the result cache.
    cached: bool = False

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        suffix = " (cached)" if self.cached else f" ({self.seconds:.2f}s)"
        return f"[{self.done}/{self.total}] {self.spec.describe()}{suffix}"


ProgressCallback = Callable[[ProgressEvent], None]

#: Per-cell hook invoked with every freshly *computed* cell (cache
#: write-through); never called for cache hits.
CellHook = Callable[[RunSpec, CellResult], None]


def host_trace_log(enabled: bool = True) -> TraceLog:
    """A TraceLog timestamped with host wall time, for executor events."""
    return TraceLog(HostClock(), enabled=enabled)


def run_grid(
    specs: Iterable[RunSpec],
    workers: int = 1,
    progress: Optional[ProgressCallback] = None,
    trace: Optional[TraceLog] = None,
    monitor: Optional[Monitor] = None,
    keep_clusters: bool = False,
    cache: "Optional[ResultCache]" = None,
    refresh: bool = False,
) -> list[CellResult]:
    """Execute every spec and return results in spec order.

    ``workers=1`` runs inline in this process (and may retain live
    clusters on result payloads when ``keep_clusters`` is set);
    ``workers>1`` fans out over a process pool, where payloads are
    stripped to picklable data.  Both paths produce identical
    measurements for identical specs.

    ``cache`` short-circuits cells already on disk and writes computed
    cells through incrementally; ``refresh`` recomputes every cell but
    still writes through (overwriting existing entries).  Cells are
    bypassed — never read or written — when ``keep_clusters`` is set
    or the spec is trace-enabled: both carry process-local state a
    cached document cannot reproduce.
    """
    spec_list = list(specs)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    total = len(spec_list)
    if trace is not None:
        trace.emit("exec", "executor", event="grid_start", cells=total, workers=workers)

    results: list[Optional[CellResult]] = [None] * total
    jobs: list[int] = []
    hits = 0
    if cache is None:
        jobs = list(range(total))
    else:
        for index, spec in enumerate(spec_list):
            cell = None
            if keep_clusters or spec.trace:
                cache.count_bypass()
            elif refresh:
                cache.count_miss()
            else:
                cell = cache.get(spec)
            if cell is None:
                jobs.append(index)
                continue
            hits += 1
            results[index] = cell
            _report_hit(index, spec, hits, total, progress, trace)

    on_cell: Optional[CellHook] = None
    if cache is not None and not keep_clusters:
        store = cache

        def _write_through(spec: RunSpec, cell: CellResult) -> None:
            if not spec.trace:
                store.put(spec, cell)

        on_cell = _write_through

    if jobs:
        # One index.json write for the whole grid, even if a cell fails.
        with cache.batched_index() if cache is not None else nullcontext():
            if workers == 1 or len(jobs) <= 1:
                _run_serial(
                    spec_list, jobs, results, hits, total, progress, trace, monitor,
                    keep_clusters, on_cell,
                )
            else:
                _run_pooled(
                    spec_list, jobs, results, hits, total, workers, progress, trace,
                    monitor, on_cell,
                )
    if trace is not None:
        trace.emit("exec", "executor", event="grid_done", cells=total, cached=hits)
    return cast("list[CellResult]", list(results))


def _run_serial(
    specs: Sequence[RunSpec],
    jobs: Sequence[int],
    results: "list[Optional[CellResult]]",
    done_offset: int,
    total: int,
    progress: Optional[ProgressCallback],
    trace: Optional[TraceLog],
    monitor: Optional[Monitor],
    keep_clusters: bool,
    on_cell: Optional[CellHook],
) -> None:
    done = done_offset
    for index in jobs:
        spec = specs[index]
        started = time.monotonic()  # repro: noqa DET001 - wall-clock provenance
        try:
            cell = execute_spec(spec, keep_cluster=keep_clusters)
        except Exception as exc:
            raise ExperimentError(
                f"spec {index} ({spec.describe()}) failed: {exc!r}\n"
                f"{traceback.format_exc()}"
            ) from exc
        if on_cell is not None:
            on_cell(spec, cell)
        done += 1
        _report(index, spec, started, done, total, progress, trace, monitor)
        results[index] = cell


def _run_pooled(
    specs: Sequence[RunSpec],
    jobs: Sequence[int],
    results: "list[Optional[CellResult]]",
    done_offset: int,
    total: int,
    workers: int,
    progress: Optional[ProgressCallback],
    trace: Optional[TraceLog],
    monitor: Optional[Monitor],
    on_cell: Optional[CellHook],
) -> None:
    done = done_offset
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending = {
            pool.submit(_pool_entry, index, specs[index]): index for index in jobs
        }
        try:
            while pending:
                finished, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in finished:
                    index = pending.pop(future)
                    spec = specs[index]
                    try:
                        status, payload, seconds = future.result()
                    except BrokenProcessPool as exc:
                        raise ExperimentError(
                            f"a worker process died while running the grid "
                            f"(first unfinished spec: {index} — {spec.describe()}): {exc!r}"
                        ) from exc
                    if status == "error":
                        raise ExperimentError(
                            f"spec {index} ({spec.describe()}) failed in worker:\n{payload}"
                        )
                    # Write through before reporting: once a cell is
                    # announced done, a kill must not lose it.
                    if on_cell is not None:
                        on_cell(spec, payload)
                    done += 1
                    started = time.monotonic() - seconds  # repro: noqa DET001 - wall-clock provenance
                    _report(index, spec, started, done, total, progress, trace, monitor)
                    results[index] = payload
        finally:
            for future in pending:
                future.cancel()


def _pool_entry(index: int, spec: RunSpec) -> "tuple[str, Any, float]":
    """Worker-side wrapper: never raises, so no exception must pickle."""
    started = time.monotonic()  # repro: noqa DET001 - wall-clock provenance
    try:
        cell = execute_spec(spec, keep_cluster=False)
    except BaseException:
        return "error", traceback.format_exc(), time.monotonic() - started  # repro: noqa DET001 - wall-clock provenance
    return "ok", cell, time.monotonic() - started  # repro: noqa DET001 - wall-clock provenance


def _report(
    index: int,
    spec: RunSpec,
    started: float,
    done: int,
    total: int,
    progress: Optional[ProgressCallback],
    trace: Optional[TraceLog],
    monitor: Optional[Monitor],
) -> None:
    seconds = time.monotonic() - started  # repro: noqa DET001 - wall-clock provenance
    if monitor is not None:
        monitor.observe(time.monotonic(), seconds)  # repro: noqa DET001 - wall-clock provenance
    if trace is not None:
        trace.emit(
            "exec",
            "executor",
            event="cell_done",
            index=index,
            done=done,
            total=total,
            spec=spec.describe(),
            seconds=seconds,
        )
    if progress is not None:
        progress(ProgressEvent(done=done, total=total, index=index, spec=spec, seconds=seconds))


def _report_hit(
    index: int,
    spec: RunSpec,
    done: int,
    total: int,
    progress: Optional[ProgressCallback],
    trace: Optional[TraceLog],
) -> None:
    """Report a cache hit (no host-seconds observation — nothing ran)."""
    if trace is not None:
        trace.emit(
            "exec",
            "executor",
            event="cell_cached",
            index=index,
            done=done,
            total=total,
            spec=spec.describe(),
        )
    if progress is not None:
        progress(
            ProgressEvent(
                done=done, total=total, index=index, spec=spec, seconds=0.0, cached=True
            )
        )
