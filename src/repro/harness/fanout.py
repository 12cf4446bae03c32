"""Extension — participant fan-out over a sharded namespace.

The paper's transactions touch two MDSs (§I: CREATE and DELETE involve
at most two servers).  Once the namespace is sharded over N metadata
servers and operations are batched (§VI), a single transaction can
span *k* worker shards: one hot directory's dentries live on the
coordinator shard while the files inside it stripe across the worker
shards, so a batch of ``k`` creates is one atomic transaction with
exactly ``k`` workers.

This harness measures that regime.  A cluster of ``1 + n_shards``
servers runs under :class:`~repro.fs.placement.ShardedSubtreePlacement`
with the whole directory tree pinned to ``mds0`` and inodes striped
over ``mds1..mdsN``; the workload batches consecutive creates in one
hot directory with :class:`~repro.core.batching.BatchPlanner` so each
transaction spans exactly ``fanout`` distinct workers (consecutive
inode numbers visit consecutive stripe shards).  Throughput is counted
in *files* per second, not transactions — the interesting trade-off is
how much protocol overhead a wider transaction amortises per file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.config import SimulationParams
from repro.core.batching import BatchPlanner
from repro.fs.placement import ShardedSubtreePlacement
from repro.mds.cluster import Cluster

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache import ResultCache

#: Coordinator shard: owns every directory (the subtree map pins "/").
COORDINATOR = "mds0"
#: The single hot directory all batched creates target.
HOT_DIR = "/hot"


def fanout_cluster(
    protocol: str,
    n_shards: int,
    params: Optional[SimulationParams] = None,
    trace: bool = False,
) -> Cluster:
    """A ``1 + n_shards`` cluster with a sharded hot directory.

    ``mds0`` owns all dentries (it coordinates every transaction);
    inodes stripe across the ``n_shards`` worker shards.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    workers = [f"mds{i}" for i in range(1, n_shards + 1)]
    placement = ShardedSubtreePlacement(
        [COORDINATOR, *workers],
        {"/": COORDINATOR},
        stripe=workers,
    )
    cluster = Cluster(
        protocol=protocol,
        server_names=[COORDINATOR, *workers],
        placement=placement,
        params=params,
        trace=trace,
    )
    cluster.mkdir(HOT_DIR)
    return cluster


@dataclass(frozen=True)
class FanoutCell:
    """Measured outcome of one fanout grid point."""

    protocol: str
    #: Workers per transaction.
    fanout: int
    #: Worker shards in the cluster (>= fanout).
    n_shards: int
    #: Total files created.
    files: int
    #: Transactions submitted (``files / fanout`` batches).
    batches: int
    #: Transactions committed.
    committed: int
    makespan: float
    #: Files (not transactions) per second.
    throughput: float
    forced_writes: int
    lazy_writes: int
    seed: int


def run_fanout_cell(
    protocol: str,
    fanout: int,
    n_files: int = 16,
    n_shards: Optional[int] = None,
    params: Optional[SimulationParams] = None,
) -> FanoutCell:
    """Create ``n_files`` in one hot directory, ``fanout`` per batch.

    Each batch is a single atomic transaction spanning exactly
    ``fanout`` worker shards (``n_shards`` defaults to ``fanout``, the
    tightest cluster that can host the requested width).
    """
    shards = fanout if n_shards is None else n_shards
    if fanout < 1:
        raise ValueError(f"fanout must be >= 1, got {fanout}")
    if fanout > shards:
        raise ValueError(f"fanout {fanout} cannot exceed n_shards {shards}")
    cluster = fanout_cluster(protocol, shards, params=params)
    client = cluster.new_client()
    # Consecutive inode numbers visit consecutive stripe shards, so a
    # window of `fanout` consecutive creates spans `fanout` distinct
    # workers; the greedy partitioner cuts exactly those windows.
    plans = [client.plan_create(f"{HOT_DIR}/f{i}") for i in range(n_files)]
    batches = BatchPlanner(max_batch=fanout, max_workers=None).partition(plans)

    start = cluster.sim.now
    for batch in batches:
        client.submit(batch)
    cluster.run_until_outcomes(len(batches))
    end = max(o.replied_at for o in cluster.outcomes)
    committed = sum(1 for o in cluster.outcomes if o.committed)
    if committed != len(batches):
        raise RuntimeError(
            f"{committed}/{len(batches)} batches committed at fanout={fanout}"
        )
    cluster.sim.run(until=cluster.sim.now + 30.0)
    violations = cluster.check_invariants()
    if violations:
        raise RuntimeError(f"invariant violations at fanout={fanout}: {violations}")
    forced = sum(s.wal.forced_appends for s in cluster.servers.values())
    lazy = sum(s.wal.lazy_appends for s in cluster.servers.values())
    return FanoutCell(
        protocol=protocol,
        fanout=fanout,
        n_shards=shards,
        files=n_files,
        batches=len(batches),
        committed=committed,
        makespan=end - start,
        throughput=n_files / (end - start),
        forced_writes=forced,
        lazy_writes=lazy,
        seed=cluster.params.seed,
    )


def sweep_fanout(
    fanouts: Sequence[int] = (1, 2, 4, 8),
    *,
    protocols: Optional[Sequence[str]] = None,
    n_files: int = 16,
    n_shards: Optional[int] = None,
    params: Optional[SimulationParams] = None,
    workers: int = 1,
    cache: "Optional[ResultCache]" = None,
) -> dict[tuple[str, int], float]:
    """File throughput per ``(protocol, fanout)`` point.

    ``protocols`` defaults to every registered protocol that accepts
    the widest requested transaction (see
    :func:`repro.protocols.registry.fanout_capable`).  Routed through
    the parallel executor; ``workers=1`` is the serial fallback and
    produces identical results to any worker count.
    """
    from repro.exec import fanout_grid, run_grid

    specs = fanout_grid(
        fanouts,
        protocols=protocols,
        n_files=n_files,
        n_shards=n_shards,
        params=params,
    )
    cells = run_grid(specs, workers=workers, cache=cache)
    out: dict[tuple[str, int], float] = {}
    for cell in cells:
        assert cell.spec.fanout is not None
        out[(cell.spec.protocol, cell.spec.fanout)] = cell.throughput
    return out
