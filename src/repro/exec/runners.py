"""Kind-dispatched experiment runners.

Each runner executes one :class:`~repro.exec.spec.RunSpec` to
completion inside the current process and folds the outcome into a
plain-data :class:`~repro.exec.spec.CellResult`.  Runners are looked up
by ``spec.kind`` in a registry so future experiment families (mixed
workloads, fault storms, migration studies...) can fan out through the
same executor without touching it.

Harness modules are imported lazily inside the runners: the harness
layer routes its sweeps back through :mod:`repro.exec`, and lazy
imports keep that mutual dependency acyclic at import time.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Iterator

from repro.exec.spec import CellResult, RunSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mds.cluster import Cluster
    from repro.sim.kernel import Simulator
    from repro.workloads.composite import CompositeResult

Runner = Callable[[RunSpec, bool], CellResult]

_RUNNERS: dict[str, Runner] = {}


def register_runner(kind: str, runner: Runner) -> None:
    """Register ``runner`` for specs of ``kind`` (last wins)."""
    _RUNNERS[kind] = runner


def get_runner(kind: str) -> Runner:
    """The runner for ``kind``; raises ``KeyError`` listing known kinds."""
    try:
        return _RUNNERS[kind]
    except KeyError:
        raise KeyError(
            f"no runner registered for kind {kind!r} "
            f"(known: {sorted(_RUNNERS)})"
        ) from None


def execute_spec(spec: RunSpec, keep_cluster: bool = False) -> CellResult:
    """Run one spec in-process.

    ``keep_cluster`` retains the live simulated cluster on the result
    payload for post-run inspection; it is forced off when the result
    must cross a process boundary (clusters hold generator-based
    processes and do not pickle).
    """
    return get_runner(spec.kind)(spec, keep_cluster)


def wal_totals(cluster: "Cluster") -> tuple[int, int]:
    """Total (forced, lazy) log appends across the cluster's servers."""
    forced = sum(s.wal.forced_appends for s in cluster.servers.values())
    lazy = sum(s.wal.lazy_appends for s in cluster.servers.values())
    return forced, lazy


def _run_burst_spec(spec: RunSpec, keep_cluster: bool) -> CellResult:
    from repro.workloads.burst import run_burst

    result = run_burst(
        spec.protocol,
        n=spec.n,
        params=spec.seeded_params(),
        op=spec.op,
        trace=spec.trace,
    )
    forced, lazy = wal_totals(result.cluster)
    metrics = result.cluster.obs.metrics.snapshot() if spec.trace else None
    payload = result if keep_cluster else replace(result, cluster=None)
    return CellResult(
        spec=spec,
        derived_seed=result.cluster.params.seed,
        committed=result.committed,
        aborted=result.aborted,
        makespan=result.makespan,
        throughput=result.throughput,
        latency=result.latency,
        forced_writes=forced,
        lazy_writes=lazy,
        metrics=metrics,
        payload=payload,
    )


def _run_abort_burst_spec(spec: RunSpec, keep_cluster: bool) -> CellResult:
    """Burst with a fraction of worker-refused votes (§II-D ablation).

    Vote refusals are injected deterministically via the worker's
    ``fail_next_vote`` hook, spread evenly over the burst — the same
    mechanism the serial harness has always used.
    """
    from repro.analysis.metrics import LatencyStats
    from repro.harness.scenarios import burst_cluster

    rate = spec.abort_rate
    cluster, client = burst_cluster(spec.protocol, params=spec.seeded_params())
    sim = cluster.sim
    worker = cluster.servers["mds2"]
    fail_every = int(1.0 / rate) if rate > 0 else 0
    n = spec.n

    start = sim.now
    for i in range(n):
        client.submit(client.plan_create(f"/dir1/f{i}"))

    # Arm vote failures as transactions reach the worker: flip the hook
    # whenever the counter of started transactions crosses a multiple.
    armed = {"count": 0}

    def arm_failures(sim: "Simulator") -> Iterator[object]:
        while armed["count"] * fail_every < n if fail_every else False:
            target = armed["count"] * fail_every
            while len(cluster.outcomes) < target:
                yield sim.timeout(1e-4)
            worker.fail_next_vote = True
            armed["count"] += 1
        if False:
            yield  # pragma: no cover

    if fail_every:
        sim.process(arm_failures(sim), name="abort-injector")

    cluster.run_until_outcomes(n)
    outcomes = list(cluster.outcomes)
    end = max(o.replied_at for o in outcomes)
    committed = sum(1 for o in outcomes if o.committed)
    makespan = end - start
    forced, lazy = wal_totals(cluster)
    return CellResult(
        spec=spec,
        derived_seed=cluster.params.seed,
        committed=committed,
        aborted=n - committed,
        makespan=makespan,
        throughput=committed / makespan if makespan > 0 else float("inf"),
        latency=LatencyStats.from_outcomes(outcomes),
        forced_writes=forced,
        lazy_writes=lazy,
        payload=cluster if keep_cluster else None,
    )


def _run_scaling_spec(spec: RunSpec, keep_cluster: bool) -> CellResult:
    from repro.harness.scaling import run_scaling_cell

    cell = run_scaling_cell(
        spec.protocol,
        spec.n_pairs,
        ops_per_dir=spec.n,
        params=spec.seeded_params(),
    )
    return CellResult(
        spec=spec,
        derived_seed=cell.seed,
        committed=cell.committed,
        aborted=cell.total - cell.committed,
        makespan=cell.makespan,
        throughput=cell.throughput,
        latency=None,
        forced_writes=cell.forced_writes,
        lazy_writes=cell.lazy_writes,
        payload=None,
    )


def _run_fanout_spec(spec: RunSpec, keep_cluster: bool) -> CellResult:
    from repro.harness.fanout import run_fanout_cell

    if spec.fanout is None:
        raise ValueError(f"fanout spec {spec.describe()!r} has no fanout field")
    cell = run_fanout_cell(
        spec.protocol,
        spec.fanout,
        n_files=spec.n,
        n_shards=spec.n_shards,
        params=spec.seeded_params(),
    )
    return CellResult(
        spec=spec,
        derived_seed=cell.seed,
        committed=cell.committed,
        aborted=cell.batches - cell.committed,
        makespan=cell.makespan,
        throughput=cell.throughput,
        latency=None,
        forced_writes=cell.forced_writes,
        lazy_writes=cell.lazy_writes,
        payload=None,
    )


def composite_cell(spec: RunSpec, result: "CompositeResult") -> CellResult:
    """Fold a merged composite result into a cell document.

    Shared by the single-kernel runner below and the partitioned
    executor (:mod:`repro.exec.partition`): both modes produce their
    :class:`~repro.workloads.composite.CompositeResult` through the
    same canonical group-order merge, so folding through one function
    makes the serialised cells byte-identical by construction.
    """
    from repro.analysis.metrics import LatencyStats
    from repro.exec.spec import derive_seed

    detail: dict[str, object] = {
        "groups": result.config.groups,
        "skipped": result.skipped,
        "reads": result.reads,
        "events": result.events,
    }
    if result.reads:
        reads = LatencyStats.from_streaming(result.read_latency)
        read_doc: dict[str, object] = {
            "count": reads.count,
            "mean": reads.mean,
            "p50": reads.p50,
            "p99": reads.p99,
        }
        if reads.mode != "exact":
            read_doc["mode"] = reads.mode
        detail["read_latency"] = read_doc
    return CellResult(
        spec=spec,
        derived_seed=derive_seed(spec),
        committed=result.committed,
        aborted=result.aborted,
        makespan=result.makespan,
        throughput=result.throughput,
        latency=LatencyStats.from_streaming(result.latency),
        forced_writes=result.forced_writes,
        lazy_writes=result.lazy_writes,
        detail=detail,
    )


def _run_composite_spec(spec: RunSpec, keep_cluster: bool) -> CellResult:
    """Composite mdtest-like cell, single-kernel reference mode.

    The partitioned mode (one DES kernel per shard group, process
    pool) lives in :mod:`repro.exec.partition` and produces
    byte-identical cells; this runner is what sweeps and the result
    cache use.
    """
    from repro.workloads.composite import CompositeConfig, run_composite

    if spec.composite is None:
        raise ValueError(f"composite spec {spec.describe()!r} has no composite field")
    config = CompositeConfig.from_json(spec.composite)
    result = run_composite(spec.protocol, config, params=spec.seeded_params())
    return composite_cell(spec, result)


def _run_campaign_spec(spec: RunSpec, keep_cluster: bool) -> CellResult:
    """Adversarial fault-campaign cell (see :mod:`repro.campaign`).

    Registered here — not in the campaign package — because pool
    workers import only this module; a registration living in
    ``repro.campaign`` would be invisible to them.
    """
    from repro.campaign.runner import run_campaign_spec

    return run_campaign_spec(spec, keep_cluster)


register_runner("burst", _run_burst_spec)
register_runner("abort_burst", _run_abort_burst_spec)
register_runner("scaling", _run_scaling_spec)
register_runner("fanout", _run_fanout_spec)
register_runner("campaign", _run_campaign_spec)
register_runner("composite", _run_composite_spec)
