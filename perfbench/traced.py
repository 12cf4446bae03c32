"""The traced run: per-layer counts and host-time shares for one workload.

A traced pass runs the same inputs as an untraced pass with the
wrappers of :mod:`perfbench.layers` installed.  The wrappers are
removed before anything else runs, and the benchmark checks that no
wrapper is left anywhere in the program.  The traced pass must
reproduce the untraced pass's fingerprint: tracing observes, it does
not change the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from perfbench.layers import LAYERS, Facts, build_targets
from perfbench.reference import Meter
from perfbench.spans import CallStats, Patcher, SpanRecorder, self_times
from perfbench.stats import nearest_rank, tail_percentile
from perfbench.workloads import PassResult, Workload


@dataclass
class TracedPass:
    result: PassResult
    recorder: SpanRecorder
    patcher: Patcher
    facts: Facts


def traced_pass(workload: Workload, inputs: Any) -> TracedPass:
    """Run one pass with every layer wrapper installed, then remove them."""
    recorder = SpanRecorder(LAYERS)
    facts = Facts()
    patcher = Patcher(recorder)
    try:
        patcher.install(build_targets(facts))
        # No reference samples inside a traced pass: they would sit in spans.
        result = workload.run_pass(inputs, Meter(sampling=False))
    finally:
        patcher.uninstall()
    return TracedPass(result, recorder, patcher, facts)


def _pct(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of simulated seconds, in milliseconds."""
    return nearest_rank(sorted(values), pct)[0] * 1e3 if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: TracedPass, untraced_wall: float) -> dict[str, float]:
    """Every per-layer metric of one traced pass.

    Counts are per committed transaction.  Shares divide a layer's self time by the traced
    pass's wall time; time outside every span counts as ``other``.
    """
    result = traced.result
    rec = traced.recorder
    facts = traced.facts
    stats = traced.patcher.stats
    per = result.committed
    wall = result.wall

    own = dict(zip(LAYERS, self_times(rec.layer, rec.parent, rec.start, rec.end, len(LAYERS))))
    spanned = sum(own.values())
    own["other"] += max(0.0, wall - spanned)

    def share(layer: str) -> float:
        return _ratio(own[layer], wall)

    def calls(*keys: str) -> int:
        return sum(stats.get(key, CallStats()).calls for key in keys)

    def mean_us(key: str) -> float:
        s = stats.get(key, CallStats())
        return _ratio(s.seconds, s.calls) * 1e6

    msgs = calls("Network.send")
    emits = sum(s.calls for key, s in stats.items() if key.startswith("Observability."))
    cells = stats.get("repro.exec.runners.execute_spec", CallStats())
    cell_samples = cells.samples or []
    puts = stats.get("ResultCache.put", CallStats())
    gets = stats.get("ResultCache.get", CallStats())
    observe = stats.get("StreamingStats.observe", CallStats())
    cluster_init = stats.get("Cluster.__init__", CallStats())

    latencies = facts.latencies
    tail = tail_percentile(latencies) if latencies else (99.0, 0.0, 0)
    makespan = result.fingerprint.get("makespan", 0.0)

    metrics = {
        "trace_overhead": _ratio(wall, untraced_wall),
        "sim_tput": _ratio(result.committed, makespan),
        "sim_lat_p50_ms": _pct(latencies, 50.0),
        "sim_lat_p99_ms": tail[1] * 1e3,
        "sim.events_per_txn": _ratio(facts.events, per),
        "sim.timeouts_per_txn": _ratio(calls("Simulator.timeout"), per),
        "sim.self_us_per_txn": _ratio(own["sim"], per) * 1e6,
        "sim.share": share("sim"),
        "net.msgs_per_txn": _ratio(msgs, per),
        "net.self_us_per_msg": _ratio(own["net"], msgs) * 1e6,
        "net.share": share("net"),
        "storage.forces_per_txn": _ratio(calls("WriteAheadLog.force"), per),
        "storage.lazy_per_txn": _ratio(calls("WriteAheadLog.append_lazy"), per),
        "storage.disk_bytes_per_txn": _ratio(facts.disk_bytes, per),
        "storage.force_sim_ms_p50": _pct(facts.force_sim, 50.0),
        "storage.force_sim_ms_p99": _pct(facts.force_sim, 99.0),
        "storage.disk_queue_sim_ms_p99": _pct(facts.disk_queue_sim, 99.0),
        "storage.share": share("storage"),
        "locks.acquires_per_txn": _ratio(calls("LockManager.acquire"), per),
        "locks.waits_per_txn": _ratio(facts.lock_waits, per),
        "locks.wait_sim_ms_p99": _pct(facts.lock_wait_sim, 99.0),
        "locks.timeouts": float(facts.lock_timeouts),
        "locks.share": share("locks"),
        "fs.applies_per_txn": _ratio(calls("MetadataStore.apply"), per),
        "fs.commits_per_txn": _ratio(calls("MetadataStore.commit"), per),
        "fs.hardens_per_txn": _ratio(calls("MetadataStore.harden"), per),
        "fs.commit_us": mean_us("MetadataStore.commit"),
        "fs.harden_us": mean_us("MetadataStore.harden"),
        "fs.share": share("fs"),
        "mds.client_ops": float(calls("Client.submit", "Client.stat")),
        "mds.client_timeouts": float(facts.client_timeouts),
        "mds.stat_sim_ms_p50": _pct(facts.stat_sim, 50.0),
        "mds.cluster_setup_ms": _ratio(cluster_init.seconds, cluster_init.calls) * 1e3,
        "mds.share": share("mds"),
        "protocols.self_us_per_txn": _ratio(own["protocols"], per) * 1e6,
        "protocols.aborts_per_op": _ratio(result.aborted, result.attempted),
        "protocols.share": share("protocols"),
        "obs.emits_per_txn": _ratio(emits, per),
        "obs.self_us_per_txn": _ratio(own["obs"], per) * 1e6,
        "obs.share": share("obs"),
        "faults.share": share("faults"),
        "campaign.share": share("campaign"),
        "workloads.gen_us_per_op": _ratio(own["workloads"], result.attempted) * 1e6,
        "workloads.share": share("workloads"),
        "analysis.observe_us": _ratio(observe.seconds, observe.calls) * 1e6,
        "analysis.observes_per_txn": _ratio(observe.calls, per),
        "analysis.share": share("analysis"),
        "exec.cells": float(cells.calls),
        "exec.cell_ms_p50": _pct(cell_samples, 50.0),
        "exec.serialize_ms": stats.get("SweepResults.to_json", CallStats()).seconds * 1e3,
        "exec.share": share("exec"),
        "cache.put_ms": _ratio(puts.seconds, puts.calls) * 1e3,
        "cache.get_ms": _ratio(gets.seconds, gets.calls) * 1e3,
        "cache.hit_frac": _ratio(facts.cache_hits, facts.cache_gets),
        "cache.share": share("cache"),
        "other.share": share("other"),
    }
    return metrics
