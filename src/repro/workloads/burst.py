"""The §IV evaluation workload.

    "we have generated a synthetic workload where 100 distributed
    transactions are submitted at the same time to the same acp
    server.  This workload intends to reproduce the behavior of HPC
    applications that create many files in the same directory."

``run_burst`` submits N CREATEs at t=0 into one directory whose parent
lives on the coordinator while all inodes live on the worker, runs the
simulation until all replies arrive, and reports throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.metrics import LatencyStats, throughput
from repro.config import SimulationParams
from repro.harness.scenarios import burst_cluster
from repro.mds.cluster import Cluster
from repro.protocols.base import TxnOutcome


@dataclass(frozen=True)
class BurstResult:
    """Outcome of one burst run."""

    protocol: str
    n: int
    committed: int
    aborted: int
    makespan: float
    throughput: float
    latency: LatencyStats
    cluster: Cluster

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.protocol}: {self.committed}/{self.n} committed, "
            f"{self.throughput:.2f} tx/s (makespan {self.makespan * 1e3:.1f} ms)"
        )


def run_burst(
    protocol: str,
    n: int = 100,
    params: Optional[SimulationParams] = None,
    op: str = "create",
    virtual_time_budget: float = 3600.0,
    trace: bool = False,
) -> BurstResult:
    """Submit ``n`` simultaneous distributed operations, run to completion.

    ``op`` is ``"create"`` or ``"delete"`` (deletes pre-create the
    files quietly first, then measure the burst of deletes).
    ``trace`` turns the observability layer on (spans, metrics, trace
    log — off by default to keep long simulations lean).
    """
    if op not in ("create", "delete"):
        raise ValueError(f"unsupported burst op {op!r}")
    cluster, client = burst_cluster(protocol, params=params, trace=trace)
    sim = cluster.sim
    paths = [f"/dir1/f{i}" for i in range(n)]

    if op == "delete":
        _populate(cluster, client, paths)

    start = sim.now
    if op == "create":
        for path in paths:
            client.submit(client.plan_create(path))
    else:
        for path in paths:
            client.submit(client.plan_delete(path))

    cluster.run_until_outcomes(n, budget=virtual_time_budget)
    # Let trailing protocol activity (decision forwarding, lazy commit
    # flushes, log GC) settle so post-run state inspection sees the
    # hardened image.  Throughput uses reply times, so this does not
    # affect the measurement.
    sim.run(until=sim.now + 30.0)

    outcomes: list[TxnOutcome] = list(cluster.outcomes)
    committed = [o for o in outcomes if o.committed]
    makespan = max(o.replied_at for o in outcomes) - start
    return BurstResult(
        protocol=protocol,
        n=n,
        committed=len(committed),
        aborted=n - len(committed),
        makespan=makespan,
        throughput=throughput(outcomes),
        latency=LatencyStats.from_outcomes(outcomes),
        cluster=cluster,
    )


def run_batched_burst(
    protocol: str,
    n: int = 100,
    batch_size: int = 8,
    params: Optional[SimulationParams] = None,
) -> BurstResult:
    """The §VI future-work aggregation: the burst is grouped into
    batches of ``batch_size`` before submission; each batch commits as
    one transaction."""
    from repro.core.batching import BatchPlanner

    cluster, client = burst_cluster(protocol, params=params)
    sim = cluster.sim
    plans = [client.plan_create(f"/dir1/f{i}") for i in range(n)]
    planner = BatchPlanner(max_batch=batch_size, max_workers=None)
    batches = planner.partition(plans)

    start = sim.now
    for batch in batches:
        client.submit(batch)
    cluster.run_until_outcomes(len(batches))
    sim.run(until=sim.now + 30.0)

    outcomes = list(cluster.outcomes)
    # Outcomes arrive in completion order; key batch sizes by the
    # batch's (unique) first-member path.
    size_of = {b.path: b.detail.get("size", 1) for b in batches}
    files_committed = sum(size_of[o.path] for o in outcomes if o.committed)
    makespan = max(o.replied_at for o in outcomes) - start
    return BurstResult(
        protocol=protocol,
        n=n,
        committed=files_committed,
        aborted=n - files_committed,
        makespan=makespan,
        throughput=files_committed / makespan if makespan > 0 else float("inf"),
        latency=LatencyStats.from_outcomes(outcomes),
        cluster=cluster,
    )


def _populate(cluster: Cluster, client, paths: list[str]) -> None:
    """Create ``paths`` sequentially before the measured phase."""
    sim = cluster.sim

    def seed(sim):
        for path in paths:
            result = yield from client.create(path)
            if not result["committed"]:
                raise RuntimeError(f"seeding create failed for {path}")

    proc = sim.process(seed(sim), name="seed")
    sim.run(until=proc)
    # Settle trailing seed-phase activity, then start fresh.
    sim.run(until=sim.now + 30.0)
    cluster.outcomes.clear()
