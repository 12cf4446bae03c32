"""The observability hub: one object every subsystem reports into.

:class:`Observability` bundles the three sinks of the instrumentation
API:

* the legacy :class:`~repro.sim.monitor.TraceLog` (flat, queryable
  records — kept byte-compatible so golden traces and existing
  analyses are unaffected);
* the :class:`~repro.obs.span.SpanCollector` (typed per-transaction
  spans — what the Table-I accounting and the exporters fold);
* the :class:`~repro.obs.metrics.MetricsRegistry` (counters and
  simulated-time histograms).

Subsystems call the typed hooks below (``msg_send``, ``log_append``,
``lock_grant``, ``txn_start``...) instead of writing trace strings;
each hook fans out to all three sinks.  Every hook early-outs when the
hub is disabled, and the hottest call sites (message send/receive, log
append/durable, lock grant/release) test :attr:`Observability.enabled`
themselves before building the hook's arguments, so tracing that is off
costs near zero.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.obs.span import (
    PROTOCOL_MSG_KINDS,
    COORDINATOR,
    WORKER,
    ABORTED,
    COMMITTED,
    EventKind,
    Span,
    SpanCollector,
    SpanEvent,
)
from repro.obs.metrics import MetricsRegistry
from repro.sim.monitor import TraceLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator


class Observability:
    """Injected instrumentation hub (see module docstring)."""

    def __init__(
        self,
        sim: "Simulator",
        enabled: bool = True,
        trace: Optional[TraceLog] = None,
        spans: Optional[SpanCollector] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.sim = sim
        self.trace = trace if trace is not None else TraceLog(sim, enabled=enabled)
        self.spans = spans if spans is not None else SpanCollector(sim, enabled=enabled)
        self.metrics = metrics if metrics is not None else MetricsRegistry(enabled=enabled)
        #: Whether any sink records.  Computed once: the sinks are fixed
        #: at construction (no sink is swapped or toggled afterwards),
        #: and hot call sites read this attribute on every hook.
        self.enabled: bool = self.trace.enabled or self.spans.enabled or self.metrics.enabled
        #: (lock-manager name, txn, obj) -> grant time, for hold-time
        #: histograms.
        self._lock_grants: dict[tuple[str, Any, Any], float] = {}

    # -- construction helpers ----------------------------------------------

    @classmethod
    def disabled(cls, sim: "Simulator") -> "Observability":
        return cls(sim, enabled=False)

    @classmethod
    def adopt(
        cls, sim: "Simulator", obs: Optional["Observability"], trace: Optional[TraceLog]
    ) -> "Observability":
        """Normalise a component's ``(obs, trace)`` constructor pair.

        Components historically took a ``trace: TraceLog`` argument;
        they now prefer a full hub.  ``adopt`` keeps both spellings
        working: an explicit hub wins, a bare trace is wrapped (legacy
        records still flow, spans/metrics off), neither yields a
        disabled hub.
        """
        if obs is not None:
            return obs
        if trace is not None:
            return cls(
                sim,
                trace=trace,
                spans=SpanCollector(sim, enabled=False),
                metrics=MetricsRegistry(enabled=False),
            )
        return cls.disabled(sim)

    # -- low-level fan-out --------------------------------------------------

    def _event(self, kind: str, actor: str, txn: Optional[int], attrs: dict) -> None:
        if self.spans.enabled:
            self.spans.record(txn, SpanEvent(self.sim.now, kind, actor, attrs))

    def annotate(self, category: str, actor: str, **detail: Any) -> None:
        """Generic protocol event: legacy record + span annotation.

        Drop-in replacement for ``trace.emit`` at protocol level — the
        legacy record is byte-identical; transactions named by a
        ``txn`` detail also get the event on their span.
        """
        if not self.enabled:
            return
        self.trace.emit(category, actor, **detail)
        txn = detail.get("txn")
        if txn is not None:
            attrs = {k: v for k, v in detail.items() if k != "txn"}
            attrs["category"] = category
            self._event(EventKind.ANNOTATION, actor, txn, attrs)

    # -- transaction lifecycle ----------------------------------------------

    def txn_start(
        self,
        actor: str,
        txn: int,
        *,
        op: str,
        protocol: str,
        submitted_at: float,
        client: str = "",
    ) -> Optional[Span]:
        """A coordinator opened a transaction: root span + legacy record."""
        if not self.enabled:
            return None
        self.trace.emit("txn_start", actor, txn=txn, op=op, protocol=protocol)
        self.metrics.inc("txn.started")
        return self.spans.begin(
            txn,
            name=op,
            role=COORDINATOR,
            actor=actor,
            protocol=protocol,
            submitted_at=submitted_at,
            client=client,
        )

    def txn_fallback(self, actor: str, txn: int, *, op: str, workers: int) -> None:
        if not self.enabled:
            return
        self.trace.emit("fallback_protocol", actor, txn=txn, op=op, workers=workers)
        self.metrics.inc("txn.fallback")
        self._event(
            EventKind.ANNOTATION,
            actor,
            txn,
            {"category": "fallback_protocol", "op": op, "workers": workers},
        )

    def worker_open(self, actor: str, txn: int, *, opener: str, protocol: str = "") -> None:
        """A worker session opened for a remote transaction (span only —
        there has never been a legacy record for this)."""
        if not self.spans.enabled:
            return
        self.spans.begin(
            txn, name=opener, role=WORKER, actor=actor, protocol=protocol
        )

    def worker_close(self, actor: str, txn: int) -> None:
        """A worker session closed; its leg span ends now.

        The leg inherits the transaction's outcome when it is already
        decided; otherwise it just reads "closed" (e.g. a 2PC worker
        ACKs and closes before the coordinator finishes).
        """
        if not self.spans.enabled:
            return
        leg = self.spans.leg_of(txn, actor)
        if leg is not None:
            root = self.spans.span_of(txn)
            status = root.status if root is not None and root.closed else "closed"
            self.spans.close(leg, status)

    def client_reply(self, actor: str, txn: int, *, committed: bool, op: str) -> None:
        if not self.enabled:
            return
        self.trace.emit("client_reply", actor, txn=txn, committed=committed, op=op)
        self._event(
            EventKind.CLIENT_REPLY, actor, txn, {"committed": committed, "op": op}
        )
        root = self.spans.span_of(txn)
        if root is not None:
            root.attrs["replied_at"] = self.sim.now

    def txn_done(
        self,
        actor: str,
        txn: int,
        *,
        committed: bool,
        op: str,
        latency: float,
        replied_at: float,
        reason: str = "",
    ) -> None:
        """A transaction finished at its coordinator: close the root
        span and fold its per-transaction metrics."""
        if not self.enabled:
            return
        self.trace.emit(
            "txn_done", actor, txn=txn, committed=committed, op=op, latency=latency
        )
        self.metrics.inc("txn.committed" if committed else "txn.aborted")
        self.metrics.observe("txn.client_latency", latency)
        root = self.spans.span_of(txn)
        if root is not None:
            self.spans.close(
                root,
                COMMITTED if committed else ABORTED,
                replied_at=replied_at,
                reason=reason,
            )
            if self.metrics.enabled:
                self._fold_span_metrics(root)

    def _fold_span_metrics(self, root: Span) -> None:
        """Per-transaction histograms derived from the closed span."""
        forced = 0
        messages = 0
        for event in root.iter_events():
            if event.kind == EventKind.WAL_APPEND and event.get("sync"):
                forced += 1
            elif (
                event.kind == EventKind.MSG_SEND
                and event.get("kind") in PROTOCOL_MSG_KINDS
            ):
                messages += 1
        self.metrics.observe("txn.forced_writes", float(forced))
        self.metrics.observe("txn.messages", float(messages))

    # -- network -------------------------------------------------------------

    def msg_send(
        self, actor: str, *, kind: str, dst: str, txn: Optional[int], msg_id: int
    ) -> None:
        if not self.enabled:
            return
        self.trace.emit("msg_send", actor, kind=kind, dst=dst, txn=txn, msg_id=msg_id)
        self.metrics.inc("net.sent")
        self._event(
            EventKind.MSG_SEND, actor, txn, {"kind": kind, "dst": dst, "msg_id": msg_id}
        )

    def msg_recv(
        self, actor: str, *, kind: str, src: str, txn: Optional[int], msg_id: int
    ) -> None:
        if not self.enabled:
            return
        self.trace.emit("msg_recv", actor, kind=kind, src=src, txn=txn, msg_id=msg_id)
        self.metrics.inc("net.received")
        self._event(
            EventKind.MSG_RECV, actor, txn, {"kind": kind, "src": src, "msg_id": msg_id}
        )

    def msg_drop(self, actor: str, *, reason: str, kind: str, **detail: Any) -> None:
        if not self.enabled:
            return
        self.trace.emit("msg_drop", actor, reason=reason, kind=kind, **detail)
        self.metrics.inc("net.dropped")
        self._event(
            EventKind.MSG_DROP,
            actor,
            detail.get("txn"),
            {"reason": reason, "kind": kind},
        )

    # -- write-ahead log ------------------------------------------------------

    def log_append(
        self, actor: str, *, kind: str, txn: Optional[int], sync: bool, nbytes: float
    ) -> None:
        if not self.enabled:
            return
        self.trace.emit("log_append", actor, kind=kind, txn=txn, sync=sync, nbytes=nbytes)
        self.metrics.inc("wal.forced_appends" if sync else "wal.lazy_appends")
        self._event(
            EventKind.WAL_APPEND, actor, txn, {"kind": kind, "sync": sync, "nbytes": nbytes}
        )

    def log_durable(
        self, actor: str, *, kind: str, txn: Optional[int], sync: bool, nbytes: float
    ) -> None:
        if not self.enabled:
            return
        self.trace.emit("log_durable", actor, kind=kind, txn=txn, sync=sync, nbytes=nbytes)
        self._event(
            EventKind.WAL_DURABLE, actor, txn, {"kind": kind, "sync": sync, "nbytes": nbytes}
        )

    def log_crash(self, actor: str, *, lost_jobs: int) -> None:
        if not self.enabled:
            return
        self.trace.emit("log_crash", actor, lost_jobs=lost_jobs)
        self.metrics.inc("wal.crashes")

    def log_restart(self, actor: str) -> None:
        if not self.enabled:
            return
        self.trace.emit("log_restart", actor)

    def log_gc(self, actor: str, *, txn: int, removed: int) -> None:
        if not self.enabled:
            return
        self.trace.emit("log_gc", actor, txn=txn, removed=removed)
        self.metrics.inc("wal.gc_records", removed)

    # -- locks ----------------------------------------------------------------

    @staticmethod
    def _lock_node(manager: str) -> str:
        return manager.split(":", 1)[1] if manager.startswith("locks:") else manager

    def lock_grant(self, manager: str, *, txn: Any, obj: Any, mode: str) -> None:
        if not self.enabled:
            return
        self.trace.emit("lock_grant", manager, txn=txn, obj=obj, mode=mode)
        self.metrics.inc("locks.granted")
        self._lock_grants[(manager, txn, obj)] = self.sim.now
        if isinstance(txn, int):
            self._event(
                EventKind.LOCK_GRANT,
                self._lock_node(manager),
                txn,
                {"obj": str(obj), "mode": mode},
            )

    def lock_upgrade(self, manager: str, *, txn: Any, obj: Any) -> None:
        if not self.enabled:
            return
        self.trace.emit("lock_upgrade", manager, txn=txn, obj=obj)

    def lock_wait(self, manager: str, *, txn: Any, obj: Any, mode: str) -> None:
        if not self.enabled:
            return
        self.trace.emit("lock_wait", manager, txn=txn, obj=obj, mode=mode)
        self.metrics.inc("locks.waits")
        if isinstance(txn, int):
            self._event(
                EventKind.LOCK_WAIT,
                self._lock_node(manager),
                txn,
                {"obj": str(obj), "mode": mode},
            )

    def lock_timeout(self, manager: str, *, txn: Any, obj: Any) -> None:
        if not self.enabled:
            return
        self.trace.emit("lock_timeout", manager, txn=txn, obj=obj)
        self.metrics.inc("locks.timeouts")
        if isinstance(txn, int):
            self._event(
                EventKind.LOCK_TIMEOUT, self._lock_node(manager), txn, {"obj": str(obj)}
            )

    def lock_release(self, manager: str, *, txn: Any, obj: Any) -> None:
        if not self.enabled:
            return
        self.trace.emit("lock_release", manager, txn=txn, obj=obj)
        granted = self._lock_grants.pop((manager, txn, obj), None)
        if granted is not None:
            self.metrics.observe("locks.hold_time", self.sim.now - granted)
        if isinstance(txn, int):
            self._event(
                EventKind.LOCK_RELEASE, self._lock_node(manager), txn, {"obj": str(obj)}
            )

    # -- nodes, fencing --------------------------------------------------------

    def node_crash(self, actor: str) -> None:
        if not self.enabled:
            return
        self.trace.emit("crash", actor)
        self.metrics.inc("node.crashes")
        self._event(EventKind.CRASH, actor, None, {})

    def node_restart(self, actor: str) -> None:
        if not self.enabled:
            return
        self.trace.emit("restart", actor)
        self._event(EventKind.RESTART, actor, None, {})

    def node_recovered(self, actor: str) -> None:
        if not self.enabled:
            return
        self.trace.emit("recovered", actor)

    def fence(self, by: str, *, target: str) -> None:
        if not self.enabled:
            return
        self.trace.emit("fence", by, target=target)
        self.metrics.inc("fencing.fences")
        self._event(EventKind.FENCE, by, None, {"target": target})

    def unfence(self, by: str, *, target: str) -> None:
        if not self.enabled:
            return
        self.trace.emit("unfence", by, target=target)
        self._event(EventKind.UNFENCE, by, None, {"target": target})
