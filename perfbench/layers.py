"""The program's layers and the calls the traced run wraps in each.

A layer is one package of ``src/repro`` (``core`` belongs to
``protocols``).  Time in code of no listed layer — the experiment
harness, top-level modules, the benchmark itself — and time outside
every span is ``other``.

Besides the explicit targets below, every generator handed to
``Simulator.process`` is traced per resume step under the layer whose
file defines it, so the kernel's hand-off into each layer is a span
boundary.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from perfbench.spans import (
    CallStats,
    Probe,
    SpanRecorder,
    Target,
    is_traced_generator,
    timed_call,
    traced_generator,
)

LAYERS = (
    "sim",
    "net",
    "storage",
    "locks",
    "fs",
    "mds",
    "protocols",
    "obs",
    "faults",
    "campaign",
    "workloads",
    "analysis",
    "exec",
    "cache",
    "other",
)

_PACKAGE_LAYER = {name: name for name in LAYERS if name != "other"}
_PACKAGE_LAYER["core"] = "protocols"


def layer_of_file(filename: str) -> str:
    """The layer owning a source file of the program (``other`` if none)."""
    parts = filename.replace("\\", "/").split("/")
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro" and i + 1 < len(parts) - 1:
            return _PACKAGE_LAYER.get(parts[i + 1], "other")
    return "other"


@dataclass
class Facts:
    """Simulated-time and outcome facts gathered by the wrappers."""

    events: int = 0
    force_sim: list[float] = field(default_factory=list)
    disk_queue_sim: list[float] = field(default_factory=list)
    disk_bytes: float = 0.0
    lock_waits: int = 0
    lock_wait_sim: list[float] = field(default_factory=list)
    lock_timeouts: int = 0
    stat_sim: list[float] = field(default_factory=list)
    client_timeouts: int = 0
    cache_gets: int = 0
    cache_hits: int = 0
    #: Client latency of every committed transaction (simulated seconds).
    latencies: list[float] = field(default_factory=list)


# -- probes: simulated-time facts of traced generators ------------------------------


class _SimDuration(Probe):
    """Simulated time from first resume to return, into ``sink``."""

    def __init__(self, sim: Any, sink: list[float]) -> None:
        self.sim = sim
        self.sink = sink
        self.t0 = 0.0

    def step(self, index: int) -> None:
        if index == 0:
            self.t0 = self.sim.now

    def finish(self, exc: Optional[BaseException]) -> None:
        if exc is None:
            self.sink.append(self.sim.now - self.t0)


class _DiskQueue(Probe):
    """Simulated wait for the device: first resume to the grant."""

    def __init__(self, sim: Any, sink: list[float]) -> None:
        self.sim = sim
        self.sink = sink
        self.t0 = 0.0

    def step(self, index: int) -> None:
        if index == 0:
            self.t0 = self.sim.now
        elif index == 1:
            self.sink.append(self.sim.now - self.t0)


class _LockWait(Probe):
    """A lock acquire that blocked: its simulated wait, and timeouts."""

    def __init__(self, sim: Any, facts: Facts, timeout_type: type) -> None:
        self.sim = sim
        self.facts = facts
        self.timeout_type = timeout_type
        self.t0 = 0.0
        self.steps = 0

    def step(self, index: int) -> None:
        if index == 0:
            self.t0 = self.sim.now
        self.steps = index + 1

    def finish(self, exc: Optional[BaseException]) -> None:
        if isinstance(exc, self.timeout_type):
            self.facts.lock_timeouts += 1
        if self.steps > 1:
            self.facts.lock_waits += 1
            if exc is None:
                self.facts.lock_wait_sim.append(self.sim.now - self.t0)


class _ClientCall(Probe):
    """Client timeouts, and optionally the simulated call duration."""

    def __init__(
        self, sim: Any, facts: Facts, timeout_type: type, sink: Optional[list[float]]
    ) -> None:
        self.sim = sim
        self.facts = facts
        self.timeout_type = timeout_type
        self.sink = sink
        self.t0 = 0.0

    def step(self, index: int) -> None:
        if index == 0:
            self.t0 = self.sim.now

    def finish(self, exc: Optional[BaseException]) -> None:
        if isinstance(exc, self.timeout_type):
            self.facts.client_timeouts += 1
        elif exc is None and self.sink is not None:
            self.sink.append(self.sim.now - self.t0)


# -- custom wrappers ---------------------------------------------------------------------


def _counting_events(facts: Facts) -> Callable[..., Callable[..., Any]]:
    """``Simulator.run``/``step``: a sim span plus the events processed."""

    def make(fn: Callable, layer_id: int, rec: SpanRecorder, stats: CallStats) -> Callable:
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
            before = self.events_processed
            try:
                return timed_call(rec, layer_id, stats, fn, self, *args, **kwargs)
            finally:
                facts.events += self.events_processed - before

        return wrapper

    return make


def _process_by_layer(fn: Callable, layer_id: int, rec: SpanRecorder,
                      stats: CallStats) -> Callable:
    """``Simulator.process``: trace the process body under its own layer."""
    layer_ids = {name: i for i, name in enumerate(rec.layers)}

    def process(self: Any, generator: Any, name: str = "") -> Any:
        stats.calls += 1
        code = getattr(generator, "gi_code", None)
        if code is not None and not is_traced_generator(generator):
            outer = traced_generator(generator, layer_ids[layer_of_file(code.co_filename)], rec)
            outer.__name__ = generator.__name__
            generator = outer
        return fn(self, generator, name)

    return process


def _cache_get(facts: Facts) -> Callable[..., Callable[..., Any]]:
    def make(fn: Callable, layer_id: int, rec: SpanRecorder, stats: CallStats) -> Callable:
        def get(self: Any, spec: Any) -> Any:
            cell = timed_call(rec, layer_id, stats, fn, self, spec)
            facts.cache_gets += 1
            facts.cache_hits += cell is not None
            return cell

        return get

    return make


def _record_outcome(facts: Facts) -> Callable[..., Callable[..., Any]]:
    """``Cluster.record_outcome``: keep committed client latencies."""

    def make(fn: Callable, layer_id: int, rec: SpanRecorder, stats: CallStats) -> Callable:
        def record_outcome(self: Any, outcome: Any) -> None:
            if outcome.committed:
                facts.latencies.append(outcome.client_latency)
            timed_call(rec, layer_id, stats, fn, self, outcome)

        return record_outcome

    return make


# -- the catalogue -----------------------------------------------------------------------


def _public_methods(cls: type) -> list[str]:
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
    ]


def _subclasses(cls: type) -> list[type]:
    found: list[type] = []
    stack = [cls]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                stack.append(sub)
    return found


def build_targets(facts: Facts) -> list[Target]:
    """Every wrapped call, by layer.  Imports the program's modules."""
    from repro.analysis import metrics as analysis_metrics
    from repro.analysis import serializability
    from repro.analysis.streaming import StreamingStats
    from repro.cache.store import ResultCache
    from repro.campaign import runner as campaign_runner
    from repro.campaign import schedule as campaign_schedule
    from repro.campaign.triggers import TraceTrigger
    from repro.exec import executor, grids, results, runners
    from repro.exec.spec import CellResult
    from repro.faults import injector
    from repro.fs import invariants, operations
    from repro.fs.store import MetadataStore
    from repro.locks import deadlock
    from repro.locks.manager import LockManager, LockTimeout
    from repro.mds.client import Client, ClientTimeout
    from repro.mds.cluster import Cluster
    from repro.mds.server import MDSServer
    from repro.net.endpoint import Endpoint
    from repro.net.network import Network
    from repro.obs.hub import Observability
    from repro.protocols import registry
    from repro.protocols.base import Protocol
    from repro.sim.kernel import Simulator
    from repro.storage.disk import Disk
    from repro.storage.shared import SharedStorage
    from repro.storage.wal import WriteAheadLog
    from repro.workloads import burst, composite

    registry.default_protocols()  # registers (imports) every engine

    def force_probe(args: tuple, kwargs: dict) -> Probe:
        return _SimDuration(args[0].sim, facts.force_sim)

    def disk_probe(args: tuple, kwargs: dict) -> Probe:
        facts.disk_bytes += float(args[1] if len(args) > 1 else kwargs["nbytes"])
        return _DiskQueue(args[0].sim, facts.disk_queue_sim)

    def lock_probe(args: tuple, kwargs: dict) -> Probe:
        return _LockWait(args[0].sim, facts, LockTimeout)

    def run_probe(args: tuple, kwargs: dict) -> Probe:
        return _ClientCall(args[0].cluster.sim, facts, ClientTimeout, None)

    def stat_probe(args: tuple, kwargs: dict) -> Probe:
        return _ClientCall(args[0].cluster.sim, facts, ClientTimeout, facts.stat_sim)

    targets = [
        Target("sim", Simulator, "run", custom=_counting_events(facts)),
        Target("sim", Simulator, "step", custom=_counting_events(facts)),
        Target("sim", Simulator, "process", custom=_process_by_layer),
        Target("sim", Simulator, "timeout", count_only=True),
        Target("sim", Simulator, "call_at"),
    ]
    targets += [Target("net", Network, name) for name in _public_methods(Network)]
    targets += [Target("net", Endpoint, name) for name in _public_methods(Endpoint)]

    targets += [
        Target("storage", WriteAheadLog, "force", probe=force_probe),
        Target("storage", Disk, "write", probe=disk_probe),
    ]
    targets += [
        Target("storage", WriteAheadLog, name)
        for name in _public_methods(WriteAheadLog)
        if name != "force"
    ]
    targets += [Target("storage", Disk, name) for name in ("read", "stall")]
    targets += [Target("storage", SharedStorage, name) for name in _public_methods(SharedStorage)]

    targets.append(Target("locks", LockManager, "acquire", probe=lock_probe))
    targets += [
        Target("locks", LockManager, name)
        for name in ("try_acquire", "release", "release_all", "wait_edges")
    ]
    targets.append(Target("locks", deadlock, "find_deadlock_cycle"))

    targets += [Target("fs", MetadataStore, name) for name in _public_methods(MetadataStore)]
    targets += [
        Target("fs", operations, name)
        for name in ("plan_create", "plan_delete", "plan_rename", "plan_mkdir",
                     "plan_rmdir", "plan_link")
    ]
    targets.append(Target("fs", invariants, "check_invariants"))

    targets += [
        Target("mds", Cluster, "__init__"),
        Target("mds", Cluster, "record_outcome", custom=_record_outcome(facts)),
    ]
    targets += [Target("mds", Cluster, name) for name in _public_methods(Cluster)
                if name not in ("from_params", "record_outcome")]
    targets += [
        Target("mds", Client, "run", probe=run_probe),
        Target("mds", Client, "stat", probe=stat_probe),
    ]
    targets += [Target("mds", Client, name) for name in _public_methods(Client)
                if name not in ("run", "stat")]
    targets += [Target("mds", MDSServer, name) for name in _public_methods(MDSServer)]

    engine_methods = ("coordinate", "worker_session", "recover", "handle_stray", "run_local")
    for cls in [Protocol, *_subclasses(Protocol)]:
        for name in engine_methods:
            if name in vars(cls):
                targets.append(Target("protocols", cls, name))
    targets += [
        Target("protocols", Protocol, name)
        for name in _public_methods(Protocol)
        if name not in engine_methods
    ]

    targets += [Target("obs", Observability, name) for name in _public_methods(Observability)]

    targets.append(Target("faults", injector.FaultPlan, "install"))
    for cls in _subclasses(injector.Fault):
        if "apply" in vars(cls):
            targets.append(Target("faults", cls, "apply"))

    targets += [
        Target("campaign", TraceTrigger, "compile"),
        Target("campaign", campaign_runner, "check_run"),
        Target("campaign", campaign_runner, "run_campaign_cell"),
        Target("campaign", campaign_runner, "run_campaign_spec"),
        Target("campaign", campaign_schedule, "generate_schedule"),
        Target("campaign", campaign_schedule.CampaignSchedule, "build_plan"),
        Target("campaign", campaign_schedule.CampaignSchedule, "from_json"),
    ]

    targets += [
        Target("workloads", composite, name)
        for name in ("run_composite", "setup_group", "finalize_group", "merge_groups",
                     "composite_trace")
    ]
    targets.append(Target("workloads", burst, "run_burst"))

    targets += [
        Target("analysis", StreamingStats, name) for name in ("observe", "merge", "quantile")
    ]
    targets += [
        Target("analysis", analysis_metrics.LatencyStats, name)
        for name in ("from_outcomes", "from_streaming")
    ]
    targets += [
        Target("analysis", serializability, name)
        for name in ("diff_against_serial", "precedence_graph",
                     "committed_plans_in_commit_order")
    ]

    targets += [
        Target("exec", executor, "run_grid"),
        Target("exec", runners, "execute_spec", keep_samples=True),
        Target("exec", results, "run_sweep"),
        Target("exec", results.SweepResults, "to_json"),
        Target("exec", CellResult, "to_dict"),
        Target("exec", CellResult, "from_dict"),
    ]
    targets += [
        Target("exec", grids, name)
        for name in ("figure6_grid", "network_latency_grid", "disk_bandwidth_grid",
                     "burst_size_grid", "abort_rate_grid", "fanout_grid", "campaign_grid")
    ]

    targets += [
        Target("cache", ResultCache, "get", custom=_cache_get(facts)),
        Target("cache", ResultCache, "put"),
    ]
    return targets
