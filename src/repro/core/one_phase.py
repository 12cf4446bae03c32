"""The One Phase Commit protocol (§III).

Failure-free flow (Figure 5):

==========  =====================================================
coordinator worker
==========  =====================================================
force STARTED + REDO (one write)
lock, update cache
UPDATE_REQ ->
            lock, update cache
            force UPDATES+COMMITTED, apply, release locks
            <- UPDATED
reply to client, release locks
force UPDATES+COMMITTED (async w.r.t. the client), apply
ACK ->
            lazy ENDED, checkpoint
==========  =====================================================

Key properties reproduced from the paper:

* the voting phase is gone: the worker's forced commit *is* its vote,
  and the redo record guarantees the coordinator can always re-execute
  ("no matter what will happen, the transaction will be committed
  eventually");
* the coordinator releases its locks and answers the client as soon as
  the UPDATED message arrives — its own commit record is written off
  the critical path;
* on a worker timeout the coordinator fences the worker and reads its
  log partition from the central storage (see
  :mod:`repro.core.recovery`) instead of blocking.

The flow itself is :class:`~repro.protocols.base.OnePhaseCore`, shared
with the logless LGL engine; this module states 1PC's durability medium
(WAL forces on the shared log), its worker probe (fence, then read the
worker's log) and its log-scan recovery.

Cost accounting (Table I row 1PC): (3, 1) log writes total, (2, 0) in
the critical path, 1 extra message (ACK), none in the critical path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional, Sequence

from repro.core.recovery import probe_worker_log
from repro.fs.operations import OpPlan
from repro.net.message import Message
from repro.protocols.base import (
    MsgKind,
    OnePhaseCore,
    ProtocolSpec,
    Transaction,
    register_protocol,
)
from repro.protocols.registry import CAP_SHARED_LOG
from repro.storage.fencing import FencedError
from repro.storage.records import LogRecord, RecordKind
from repro.storage.wal import LogLostError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.resources import Store


class OnePhaseCommitProtocol(OnePhaseCore):
    """The paper's tailored one-phase atomic commitment protocol."""

    name = "1PC"
    #: §III: the protocol is designed for namespace operations that
    #: involve exactly two MDSs (one coordinator + one worker).
    max_workers: Optional[int] = 1
    update_flag = "commit"
    vote_lost_note = "worker_fenced_mid_commit"

    # ------------------------------------------------------------------
    # Durability: forces on the shared log
    # ------------------------------------------------------------------

    def _begin(self, txn: Transaction, inbox: "Store") -> Generator:
        # STARTED plus the redo record for the whole namespace
        # operation, forced in a single log write.
        yield from self.wal.force(
            self.state_rec(RecordKind.STARTED, txn.txn_id, op=txn.plan.op, workers=txn.workers),
            self.redo_rec(txn.txn_id, txn.plan),
        )

    def _vote(self, txn_id: int, coordinator: str, inbox: "Store") -> Generator:
        try:
            yield from self.wal.force(
                self.updates_rec(txn_id, self.store.updates_of(txn_id)),
                self.state_rec(RecordKind.COMMITTED, txn_id, coordinator=coordinator),
            )
        except (FencedError, LogLostError):
            return False
        return True

    def _commit_self(self, txn_id: int, workers: Sequence[str], inbox: "Store") -> Generator:
        """Force UPDATES+COMMITTED, then harden the stable image."""
        yield from self.wal.force(
            self.updates_rec(txn_id, self.store.pending_updates(txn_id)),
            self.state_rec(RecordKind.COMMITTED, txn_id),
        )
        self.store.commit_durable(txn_id)
        return True

    def _log_abort(self, txn_id: int, reason: str, inbox: "Store") -> Generator:
        yield from self.wal.force(self.state_rec(RecordKind.ABORTED, txn_id, reason=reason))

    def _finalize(self, txn_id: int) -> None:
        """Lazy ENDED, then garbage-collect once it is durable."""
        flush = self.wal.append_lazy(self.state_rec(RecordKind.ENDED, txn_id))
        flush.callbacks.append(lambda ev, t=txn_id: self.wal.checkpoint(t) if ev.ok else None)

    def _already_committed(self, txn_id: int) -> bool:
        return self.wal.has(RecordKind.COMMITTED, txn_id) or self.store.has_applied(txn_id)

    # ------------------------------------------------------------------
    # Silent workers: heartbeats, then fence and read the shared log
    # ------------------------------------------------------------------

    def _await_vote(
        self, txn_id: int, pending: dict, inbox: "Store", watch_detector: bool
    ) -> Generator:
        """Wait for one outstanding worker's reply, watching the
        failure detector.

        §III-A: the cluster runs a heartbeat failure detector.  When it
        is active, the coordinator gives up as soon as every
        still-silent worker is *suspected* instead of sitting out the
        full protocol timeout — heartbeats accelerate the fencing
        decision (they can never make it wrong: fencing + the shared
        log settle the outcome either way).
        """
        detector = self.server.cluster.failure_detector
        heartbeats_on = watch_detector and bool(self.server.cluster.heartbeat_services)
        deadline = self.sim.now + self.params.failure.reply_timeout
        slice_ = (
            self.params.failure.heartbeat_interval
            if heartbeats_on
            else self.params.failure.reply_timeout
        )
        while True:
            remaining = deadline - self.sim.now
            if remaining <= 0:
                return None
            msg = yield from self.recv(
                inbox,
                kinds=frozenset({MsgKind.UPDATED, MsgKind.NOT_PREPARED}),
                timeout=min(slice_, remaining),
            )
            if msg is not None:
                return msg
            if heartbeats_on and all(detector.suspects(self.me, w) for w in pending):
                for worker in pending:
                    self.obs.annotate(
                        "early_suspicion", self.me, txn=txn_id, worker=worker
                    )
                return None

    def _probe(self, txn_id: int, worker: str, inbox: "Store") -> Generator:
        """Fence the worker and read its shared log (§III-C case 2)."""
        self.obs.annotate("probe_start", self.me, txn=txn_id, worker=worker)
        result = yield from probe_worker_log(self.server.cluster, self.me, worker, txn_id)
        return result.committed

    # ------------------------------------------------------------------
    # Recovery (§III-C)
    # ------------------------------------------------------------------

    def _recover_coordinator(
        self, txn_id: int, state: Optional[RecordKind], records: Sequence[LogRecord]
    ) -> Generator:
        if state == RecordKind.STARTED:
            # "The coordinator restarts the transaction from the
            # beginning" using the redo record.
            plan = self._plan_from_redo(records)
            if plan is None:
                self.obs.annotate("recovery", self.me, txn=txn_id, action="redo-missing")
                return
            yield from self._re_execute(txn_id, plan)
        elif state == RecordKind.COMMITTED:
            # "The transaction is already committed and the coordinator
            # does nothing."  We still fold the updates if the crash hit
            # between the log force and the fold.
            yield from self._restore_committed(txn_id, self._logged_updates(records))
            plan = self._plan_from_redo(records)
            workers = (
                [n for n in plan.participants if n != self.me] if plan is not None else []
            )
            if len(workers) > 1:
                # With one worker, our COMMITTED record proves the
                # worker committed first.  With k > 1 it only proves
                # the decision — a straggler may have missed it, so
                # re-drive everyone; committed workers simply
                # re-acknowledge from their logs.
                inbox = self.server.open_session(txn_id)
                try:
                    yield from self._drive_stragglers(txn_id, plan, workers, inbox)
                finally:
                    self.server.close_session(txn_id)
            self.wal.checkpoint(txn_id)
            self.obs.annotate("recovery", self.me, txn=txn_id, action="already-committed")
        elif state == RecordKind.ABORTED:
            self.wal.checkpoint(txn_id)

    def _recover_worker(
        self, txn_id: int, state: Optional[RecordKind], records: Sequence[LogRecord]
    ) -> Generator:
        if state == RecordKind.COMMITTED:
            yield from self._restore_committed(txn_id, self._logged_updates(records))
            yield from self._reclaim_ack(txn_id, self._coordinator_from(records))
        elif state == RecordKind.ENDED:
            # "The coordinator has committed and it does not need the
            # log anymore."
            self.wal.checkpoint(txn_id)

    @staticmethod
    def _plan_from_redo(records: Sequence[LogRecord]) -> Optional[OpPlan]:
        for record in records:
            if record.kind == RecordKind.REDO:
                return OpPlan.from_description(record.payload["plan"])
        return None

    # ------------------------------------------------------------------
    # Stray messages
    # ------------------------------------------------------------------

    def handle_stray(self, msg: Message) -> Optional[Generator]:
        if msg.kind == MsgKind.ACK_REQ:
            # A recovered worker wants its ACK.  If our log has no entry
            # the transaction was committed and checkpointed; if it has
            # COMMITTED we committed too.  Either way: ACK.
            if self.wal.last_state(msg.txn_id) in (
                None,
                RecordKind.COMMITTED,
                RecordKind.ENDED,
            ):
                return self._stray_reply(msg, MsgKind.ACK)
            return self._stray(lambda: None)  # undecided: nothing to say yet
        if msg.kind == MsgKind.ACK and self.wal.last_state(msg.txn_id) == RecordKind.COMMITTED:
            # Late ACK for a worker whose session is gone.
            return self._stray(lambda: self._finalize(msg.txn_id))
        if self._speaks(msg) and self._already_committed(msg.txn_id):
            # Duplicate commit-carrying request after both sides
            # recovered: answer from the log.
            return self._stray_reply(msg, MsgKind.UPDATED, ok=True)
        return super().handle_stray(msg)


register_protocol(
    ProtocolSpec(
        name="1PC",
        engine=OnePhaseCommitProtocol,
        summary="The paper's One Phase Commit over a shared log (§III)",
        log_records=("STARTED", "REDO", "UPDATES", "COMMITTED", "ABORTED", "ENDED"),
        capabilities=frozenset({CAP_SHARED_LOG}),
        paper_figure6=24.0,
        table1_row=(3, 1, 2, 0, 1, 0),
        citation=(
            "Congiu, Narasimhamurthy, Suess & Brinkmann, 'One Phase Commit: "
            "A Low Overhead Atomic Commitment Protocol for Scalable Metadata "
            "Services' (CLUSTER 2012)"
        ),
        order=3,
    )
)
