"""Logless one-phase commit (Zhu et al.) — extension protocol "LGL".

"To Vote Before Decide: A Logless One-Phase Commit Protocol for
Highly-Available Datastores" removes the write-ahead log from the
commit path entirely: durability comes from *synchronous replication*
to a backup replica in an independent failure domain
(:mod:`repro.mds.replica`), not from forced disk writes.  Like the
paper's 1PC, the worker's commit is its vote; unlike it, nothing is
ever written to a log — a rebooted node refetches its transaction
state from its backup.

Failure-free flow (one coordinator, one worker):

==========  =====================================================
coordinator worker
==========  =====================================================
replicate BEGIN(plan) -> own backup  (the logless redo record)
lock, update cache
UPDATE_REQ(vote) ->
            lock, update cache
            replicate COMMIT(updates) -> own backup
            apply, release locks
            <- UPDATED
reply to client, release locks
replicate COMMIT(updates) -> own backup   (off the client path)
ACK ->
            GC own backup entry
GC own backup entry
==========  =====================================================

The flow is :class:`~repro.protocols.base.OnePhaseCore`, shared with
the paper's 1PC; this module states where LGL differs: every durable
step is a replication to the backup (and "forgetting" a transaction is
the backup GC), the worker probe is a backup seal, and recovery
refetches the backup's entries instead of scanning a log.

Recovery replaces the log scan: on reboot a node fetches a snapshot of
its backup's entries.  A BEGIN without a COMMIT is re-executed from
the replicated plan (the coordinator's redo); a COMMIT facet is
re-applied into the stable image if needed; entries move towards the
outcome they already durably have, then are garbage collected.

When the coordinator times out on a worker it *seals* the transaction
at the worker's backup (``LGL_QUERY(seal=True)``): a sealed
transaction can never accept a commit replication afterwards, so the
coordinator's read of "no commit facet" is final — the logless
equivalent of 1PC's fence-then-read-the-log.

The simulator's :class:`~repro.fs.MetadataStore` stable image models
state that survives the node's crash; this engine calls
``commit_durable`` only once the backup's acknowledgement has made the
commit cluster-durable, so the stable image is exactly the state the
recovery refetch would reconstruct.

Like 1PC, the protocol pairs one coordinator with one worker
(``max_workers = 1``); wider operations fall back to the cluster's
2PC-family fallback engine, which keeps using its log.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional, Sequence

from repro.fs.operations import OpPlan
from repro.mds.replica import backup_name
from repro.net.message import Message
from repro.protocols.base import (
    MsgKind,
    OnePhaseCore,
    ProtocolSpec,
    Transaction,
    TransactionAborted,
    register_protocol,
)
from repro.protocols.registry import CAP_LOGLESS

if TYPE_CHECKING:
    from repro.sim.resources import Store

#: How many times a replication / probe / fetch is retransmitted
#: before the peer backup is declared unreachable.
REPLICATE_RETRIES = 3
#: Session id used for the recovery snapshot fetch (real transaction
#: ids start at 1).
_RECOVERY_SESSION = 0


class LoglessOnePhaseProtocol(OnePhaseCore):
    """One-phase commit with synchronous replication instead of a WAL."""

    name = "LGL"
    #: Like 1PC: one coordinator + one worker.
    max_workers: Optional[int] = 1
    update_flag = "vote"
    vote_lost_note = "worker_sealed_mid_commit"

    # ------------------------------------------------------------------
    # Replication plumbing
    # ------------------------------------------------------------------

    @property
    def backup(self) -> str:
        return backup_name(self.me)

    def _replicate(self, txn_id: int, facet: str, data: Any, inbox: "Store") -> Generator:
        """Synchronously replicate one facet to our backup.

        Returns ``True`` on acknowledgement, ``False`` when the backup
        refused (the transaction was sealed), ``None`` when the backup
        is unreachable.
        """
        for _attempt in range(REPLICATE_RETRIES):
            self.send(self.backup, MsgKind.REPLICATE, txn_id, facet=facet, data=data)
            deadline = self.sim.now + self.params.failure.reply_timeout
            while True:
                remaining = deadline - self.sim.now
                if remaining <= 0:
                    break
                msg = yield from self.recv(
                    inbox,
                    kinds=frozenset({MsgKind.REPLICATED, MsgKind.REPLICATE_REJECTED}),
                    timeout=remaining,
                )
                if msg is None:
                    break
                if msg.payload.get("facet") != facet:
                    continue  # stale ack from an earlier retransmission
                return msg.kind == MsgKind.REPLICATED
        return None

    def _ask(
        self, target: str, kind: str, txn_id: int, reply: str, inbox: "Store", **payload: Any
    ) -> Generator:
        """Send ``kind`` to a backup until it answers with ``reply``;
        ``None`` when it never does."""
        for _attempt in range(REPLICATE_RETRIES):
            self.send(target, kind, txn_id, **payload)
            msg = yield from self.recv(
                inbox, kinds=frozenset({reply}), timeout=self.params.failure.reply_timeout
            )
            if msg is not None:
                return msg
        return None

    def _replicate_updates(
        self, txn_id: int, updates: Sequence[Any], inbox: "Store", **data: Any
    ) -> Generator:
        """Replicate the commit facet; True once the backup holds it."""
        descs = [u.describe() for u in updates]
        ok = yield from self._replicate(txn_id, "commit", {"updates": descs, **data}, inbox)
        return ok is True

    def _forget(self, txn_id: int) -> None:
        self.send(self.backup, MsgKind.LGL_GC, txn_id)

    # ------------------------------------------------------------------
    # Durability: replication to the backup
    # ------------------------------------------------------------------

    def _begin(self, txn: Transaction, inbox: "Store") -> Generator:
        # The logless redo record: the plan must survive our crash
        # before anything else happens.
        ok = yield from self._replicate(
            txn.txn_id, "begin", {"plan": txn.plan.describe()}, inbox
        )
        return None if ok is True else "coordinator backup unreachable"

    def _vote(self, txn_id: int, coordinator: str, inbox: "Store") -> Generator:
        return (
            yield from self._replicate_updates(
                txn_id, self.store.updates_of(txn_id), inbox, coordinator=coordinator
            )
        )

    def _commit_self(self, txn_id: int, workers: Sequence[str], inbox: "Store") -> Generator:
        ok = yield from self._replicate_updates(
            txn_id, self.store.pending_updates(txn_id), inbox, workers=list(workers)
        )
        if ok:
            self.store.commit_durable(txn_id)
        else:
            # Begin facet stays at the backup: a crash now still
            # re-executes towards commit, so the reply was safe.
            self.obs.annotate("commit_unreplicated", self.me, txn=txn_id)
        return ok

    def _commit_redo(self, txn_id: int, workers: Sequence[str], inbox: "Store") -> Generator:
        ok = yield from self._replicate_updates(
            txn_id, self.store.updates_of(txn_id), inbox, workers=list(workers)
        )
        self.store.commit_durable(txn_id)
        self.locks.release_all(txn_id)
        return ok

    def _log_abort(self, txn_id: int, reason: str, inbox: "Store") -> Generator:
        ok = yield from self._replicate(txn_id, "aborted", True, inbox)
        if ok is not True:
            self.obs.annotate("abort_unreplicated", self.me, txn=txn_id)

    def _abandon_redo(self, txn_id: int, reason: str, inbox: "Store") -> Generator:
        # The replicated BEGIN is simply dropped: nothing else of the
        # replay reached the backup.
        self._forget(txn_id)
        yield from ()

    def _probe(self, txn_id: int, worker: str, inbox: "Store") -> Generator:
        """Seal the transaction at the worker's backup and read its fate.

        Sealing first makes the answer final: a commit replication that
        has not landed when the seal does never will.
        """
        self.obs.annotate("probe_start", self.me, txn=txn_id, worker=worker)
        msg = yield from self._ask(
            backup_name(worker), MsgKind.LGL_QUERY, txn_id, MsgKind.LGL_STATE, inbox, seal=True
        )
        if msg is not None:
            return bool(msg.payload.get("has_commit"))
        self.obs.annotate("probe_unreachable", self.me, txn=txn_id, worker=worker)
        return False

    def _await_restart(self) -> Generator:
        # A duplicate request must see the refetched backup state, not
        # the empty post-reboot image: wait out our recovery.
        while self.server.recovering:
            yield self.sim.timeout(self.params.failure.reply_timeout / 20.0)

    # ------------------------------------------------------------------
    # Local (single-MDS) transactions — still logless
    # ------------------------------------------------------------------

    def run_local(self, txn: Transaction) -> Generator:
        txn_id, plan = txn.txn_id, txn.plan
        inbox = self.server.open_session(txn_id)
        try:
            try:
                yield from self.lock_all(txn_id, plan.locks(self.me))
                yield from self.apply_updates(txn_id, plan.updates[self.me])
            except TransactionAborted as aborted:
                reason = aborted.reason
            else:
                if (
                    yield from self._replicate_updates(
                        txn_id, self.store.updates_of(txn_id), inbox, local=True
                    )
                ):
                    self.store.commit_durable(txn_id)
                    self.locks.release_all(txn_id)
                    replied_at = self.reply_to_client(txn, committed=True)
                    self._forget(txn_id)
                    return self.outcome(txn, committed=True, replied_at=replied_at)
                reason = "backup unreachable"
            self.store.abort(txn_id)
            self.locks.release_all(txn_id)
            replied_at = self.reply_to_client(txn, committed=False, reason=reason)
            return self.outcome(txn, committed=False, replied_at=replied_at, reason=reason)
        finally:
            self.server.close_session(txn_id)

    # ------------------------------------------------------------------
    # Recovery: refetch from the backup instead of scanning a log
    # ------------------------------------------------------------------

    def recover(self) -> Generator:
        inbox = self.server.open_session(_RECOVERY_SESSION)
        try:
            msg = yield from self._ask(
                self.backup, MsgKind.LGL_FETCH, _RECOVERY_SESSION, MsgKind.LGL_SNAPSHOT, inbox
            )
        finally:
            self.server.close_session(_RECOVERY_SESSION)
        if msg is None:
            self.obs.annotate("recovery", self.me, action="backup-unreachable")
            return
        entries = msg.payload["entries"]
        for txn_id in sorted(entries):
            yield from self._recover_entry(txn_id, entries[txn_id])

    def _recover_entry(self, txn_id: int, entry: dict) -> Generator:
        if "aborted" in entry:
            self._forget(txn_id)
            self.obs.annotate("recovery", self.me, txn=txn_id, action="aborted")
            return
        commit = entry.get("commit")
        if commit is None:
            # BEGIN without a commit: the coordinator's redo.
            begin = entry.get("begin")
            if not isinstance(begin, dict) or "plan" not in begin:
                self.obs.annotate("recovery", self.me, txn=txn_id, action="begin-unreadable")
                self._forget(txn_id)
                return
            yield from self._re_execute(txn_id, OpPlan.from_description(begin["plan"]))
            return
        yield from self._restore_committed(txn_id, commit.get("updates", []))
        if commit.get("local"):
            self._forget(txn_id)
            self.obs.annotate("recovery", self.me, txn=txn_id, action="local-committed")
        elif "coordinator" in commit:
            yield from self._reclaim_ack(txn_id, commit["coordinator"])
        else:
            # We coordinated: make sure the worker hears the ACK.
            for worker in commit.get("workers", []):
                self.send(worker, MsgKind.ACK, txn_id)
            self._forget(txn_id)
            self.obs.annotate("recovery", self.me, txn=txn_id, action="resend-ack")

    # ------------------------------------------------------------------
    # Stray messages
    # ------------------------------------------------------------------

    def handle_stray(self, msg: Message) -> Optional[Generator]:
        if msg.kind == MsgKind.ACK_REQ:
            # A recovered worker wants its ACK.  A worker only ever
            # commits when its replication landed before any seal — in
            # which case we committed too.  Always acknowledge.
            return self._stray_reply(msg, MsgKind.ACK)
        if msg.kind == MsgKind.ACK:
            # Late ACK for a worker whose session is gone: release the
            # backup entry it was waiting to drop.
            return self._stray(lambda: self._forget(msg.txn_id))
        if msg.kind in (
            MsgKind.REPLICATED,
            MsgKind.REPLICATE_REJECTED,
            MsgKind.LGL_STATE,
            MsgKind.LGL_SNAPSHOT,
        ):
            # Stale replication traffic for a closed session.
            return None
        if self._speaks(msg) and self._already_committed(msg.txn_id):
            return self._stray_reply(msg, MsgKind.UPDATED, ok=True)
        return super().handle_stray(msg)

    def presumed_decision(self) -> str:
        # An absent entry means the transaction ran to completion; the
        # only caller is a 2PC-family DECISION_REQ, which LGL never
        # receives for its own transactions.
        return MsgKind.COMMIT


register_protocol(
    ProtocolSpec(
        name="LGL",
        engine=LoglessOnePhaseProtocol,
        summary="Logless 1PC: backup replication replaces the WAL (extension)",
        log_records=(),
        capabilities=frozenset({CAP_LOGLESS}),
        # Zero log writes (logless); 7 replication/ack messages total,
        # of which 4 (begin + worker-commit REPLICATE/REPLICATED pairs)
        # precede the client reply.
        table1_row=(0, 0, 0, 0, 7, 4),
        citation=(
            "Zhu, Guo, Lu & Chen, 'To Vote Before Decide: A Logless "
            "One-Phase Commit Protocol for Highly-Available Datastores' "
            "(2016)"
        ),
        order=6,
    )
)
