"""The commit/recovery skeleton every protocol engine specialises.

Each MDS owns one protocol engine instance (a subclass of
:class:`Protocol`).  The engine plays both roles:

* **coordinator** -- :meth:`Protocol.coordinate` runs as a process for
  every client request the server receives;
* **worker** -- :meth:`Protocol.worker_session` runs as a process for
  every remote transaction the server participates in; the server's
  dispatcher feeds it messages through a per-transaction inbox.

Recovery hooks: :meth:`Protocol.recover` runs once after reboot;
:meth:`Protocol.handle_stray` deals with protocol messages for
transactions that have no live session (typically retransmissions
arriving after a crash or after checkpointing).

The skeleton fixes the order of the steps; an engine states only the
steps where it differs (Gray & Lamport write 2PC and Paxos Commit as
refinements of one commit specification in the same way):

* :class:`Protocol` -- the coordinator template (worker-limit check,
  session, durable begin, body, abort on :class:`TransactionAborted`),
  the UPDATE_REQ sender, the reply-gathering loop, the worker's
  lock-and-apply step, the reboot-time log scan and the stray-message
  answers.  The 2PC family (:mod:`repro.protocols.prn` and its
  subclasses) builds its vote and decision phases on it.
* :class:`OnePhaseCore` -- the one-phase flow in which the worker's
  durable commit *is* its vote.  1PC (:mod:`repro.core.one_phase`) and
  the logless LGL (:mod:`repro.protocols.lgl`) specialise it by their
  durability medium (WAL forces or backup replication), their worker
  probe (fence plus shared-log read, or a backup seal) and their
  UPDATE_REQ flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional, Sequence

from repro.fs.objects import ObjectId, Update, update_from_description
from repro.fs.operations import OpPlan, UnsupportedOperation, lock_targets
from repro.locks import LockMode, LockTimeout
from repro.net.message import Message
from repro.protocols.registry import ProtocolSpec, register_protocol, reject_fanout
from repro.sim import AnyOf
from repro.storage.records import LogRecord, RecordKind

__all__ = [
    "SESSION_OPENERS",
    "MsgKind",
    "OnePhaseCore",
    "Protocol",
    "ProtocolSpec",
    "Transaction",
    "TransactionAborted",
    "TxnOutcome",
    "register_protocol",
]

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import SimulationParams
    from repro.fs.store import MetadataStore
    from repro.locks.manager import LockManager
    from repro.mds.server import MDSServer
    from repro.obs.hub import Observability
    from repro.sim.kernel import Simulator
    from repro.sim.resources import Store
    from repro.storage.wal import WriteAheadLog


class MsgKind:
    """Protocol message kinds (wire-level constants)."""

    CLIENT_REQUEST = "CLIENT_REQUEST"
    CLIENT_REPLY = "CLIENT_REPLY"
    #: Metadata read (lookup/stat): served locally under a shared lock.
    STAT_REQUEST = "STAT_REQUEST"
    STAT_REPLY = "STAT_REPLY"
    UPDATE_REQ = "UPDATE_REQ"
    UPDATED = "UPDATED"
    PREPARE = "PREPARE"
    PREPARED = "PREPARED"
    NOT_PREPARED = "NOT_PREPARED"
    COMMIT = "COMMIT"
    ABORT = "ABORT"
    ACK = "ACK"
    #: Recovery: a restarted worker asks the coordinator for the outcome.
    DECISION_REQ = "DECISION_REQ"
    #: Recovery (1PC): a restarted worker asks for the ACK to be resent.
    ACK_REQ = "ACK_REQ"
    HEARTBEAT = "HEARTBEAT"
    #: Paxos Commit: a participant announces its prepared vote to the
    #: acceptors; an acceptor reports the accepted ballot to the leader.
    PAXOS_VOTE = "PAXOS_VOTE"
    PAXOS_ACCEPTED = "PAXOS_ACCEPTED"
    #: Paxos Commit housekeeping: the leader releases the acceptors'
    #: ballot records once the outcome is fully acknowledged.
    PAXOS_GC = "PAXOS_GC"
    #: Logless 1PC: synchronous replication to a backup replica (the
    #: logless substitute for a WAL force) and its acknowledgement.
    REPLICATE = "REPLICATE"
    REPLICATED = "REPLICATED"
    #: Logless 1PC: the backup refused a replication for a sealed txn.
    REPLICATE_REJECTED = "REPLICATE_REJECTED"
    #: Logless 1PC recovery: seal-and-query a peer's backup state,
    #: fetch a full snapshot after reboot, release entries when done.
    LGL_QUERY = "LGL_QUERY"
    LGL_STATE = "LGL_STATE"
    LGL_FETCH = "LGL_FETCH"
    LGL_SNAPSHOT = "LGL_SNAPSHOT"
    LGL_GC = "LGL_GC"


#: Message kinds that may open a new worker session.
SESSION_OPENERS = frozenset({MsgKind.UPDATE_REQ, MsgKind.PREPARE})

#: Per awaited reply kind: how a timeout and a refusal read in the
#: abort reason.
_REPLY_WORDING = {
    MsgKind.UPDATED: ("UPDATED", "rejected the updates"),
    MsgKind.PREPARED: ("votes", "voted NOT-PREPARED"),
}

#: How long a one-phase worker waits for the coordinator's ACK before
#: asking for a retransmission, in units of the protocol reply timeout.
ACK_WAIT_FACTOR = 5

#: How many times a one-phase coordinator retransmits a decided commit
#: to a worker that missed the decision (each attempt waits out a
#: rebooting worker for ``ACK_WAIT_FACTOR`` reply timeouts).
COMMIT_DRIVE_RETRIES = 8


class TransactionAborted(Exception):
    """Internal control-flow signal: the transaction must be aborted."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass
class Transaction:
    """A distributed namespace operation in flight at its coordinator."""

    txn_id: int
    plan: OpPlan
    client: str
    submitted_at: float
    #: Client-side request id, echoed in the CLIENT_REPLY.
    req_id: Optional[int] = None

    @property
    def workers(self) -> list[str]:
        return self.plan.workers


@dataclass(frozen=True)
class TxnOutcome:
    """What the coordinator reports when a transaction finishes."""

    txn_id: int
    op: str
    path: str
    committed: bool
    submitted_at: float
    replied_at: float
    finished_at: float
    coordinator: str
    reason: str = ""

    @property
    def client_latency(self) -> float:
        return self.replied_at - self.submitted_at


class Protocol:
    """Base class with the machinery every protocol engine shares."""

    #: Registry name ("PrN", "PrC", "EP", "1PC", ...).
    name = ""
    #: Maximum number of workers the protocol supports (None = any).
    max_workers: Optional[int] = None
    #: Payload flag marking the UPDATE_REQs this engine sends and
    #: answers (``prepare`` for EP, ``commit`` for 1PC, ``vote`` for
    #: LGL); None for a bare request.
    update_flag: Optional[str] = None

    def __init__(self, server: "MDSServer") -> None:
        self.server = server
        # Fixed for the server's lifetime, so plain attributes; wal,
        # store and locks stay properties because a crash replaces them.
        self.sim: "Simulator" = server.sim
        self.me: str = server.name
        self.params: "SimulationParams" = server.params
        self.obs: "Observability" = server.obs

    def claims_worker_message(self, msg: Message) -> bool:
        """Whether this engine speaks ``msg`` on the worker side.

        Servers running a primary + fallback engine pair route each
        sessionless protocol message to the primary only when it claims
        the message; engines whose wire format is distinguishable (1PC
        marks its UPDATE_REQ with ``commit=True``) override this so
        fallback traffic reaches the fallback engine.
        """
        return True

    def _speaks(self, msg: Message) -> bool:
        """Whether ``msg`` is an UPDATE_REQ in this engine's format."""
        if msg.kind != MsgKind.UPDATE_REQ:
            return False
        return self.update_flag is None or bool(msg.payload.get(self.update_flag))

    # -- convenience accessors ------------------------------------------------

    @property
    def wal(self) -> "WriteAheadLog":
        return self.server.wal

    @property
    def locks(self) -> "LockManager":
        return self.server.locks

    @property
    def store(self) -> "MetadataStore":
        return self.server.store

    # -- log-record construction ------------------------------------------------

    def state_rec(self, kind: RecordKind, txn_id: int, **payload: Any) -> LogRecord:
        storage = self.params.storage
        if kind == RecordKind.STARTED:
            size = storage.start_record_size
        elif kind == RecordKind.ENDED:
            size = storage.end_record_size
        elif kind == RecordKind.REDO:
            size = storage.redo_record_size
        else:
            size = storage.state_record_size
        payload.setdefault("proto", self.name)
        return LogRecord(kind=kind, txn_id=txn_id, size=size, payload=payload)

    def updates_rec(self, txn_id: int, updates: Iterable[Update]) -> LogRecord:
        updates = list(updates)
        return LogRecord(
            kind=RecordKind.UPDATES,
            txn_id=txn_id,
            size=self.params.storage.update_record_size * max(1, len(updates)),
            payload={"updates": [u.describe() for u in updates], "proto": self.name},
        )

    def redo_rec(self, txn_id: int, plan: OpPlan) -> LogRecord:
        return LogRecord(
            kind=RecordKind.REDO,
            txn_id=txn_id,
            size=self.params.storage.redo_record_size,
            payload={"plan": plan.describe(), "proto": self.name},
        )

    def owns_txn(self, records: Sequence[LogRecord]) -> bool:
        """Whether this engine wrote the transaction's log records.

        A server may run two engines (primary + fallback); each only
        recovers the transactions it tagged.
        """
        for record in records:
            proto = record.payload.get("proto")
            if proto is not None:
                return proto == self.name
        return True

    # -- execution helpers ----------------------------------------------------------

    def lock_all(self, txn_id: int, objects: Iterable[ObjectId]) -> Generator:
        """Acquire exclusive locks in deterministic order (2PL growing
        phase).  Raises :class:`TransactionAborted` on lock timeout."""
        for obj in objects:
            try:
                yield from self.locks.acquire(
                    txn_id, obj, LockMode.EXCLUSIVE, timeout=self.params.failure.lock_timeout
                )
            except LockTimeout:
                raise TransactionAborted(f"lock timeout on {obj}")

    def apply_updates(self, txn_id: int, updates: Iterable[Update]) -> Generator:
        """Apply ``updates`` to the volatile cache, charging compute time.

        Raises :class:`TransactionAborted` when an update is
        inconsistent (e.g. EEXIST / ENOENT)."""
        from repro.fs.objects import UpdateError

        for update in updates:
            yield self.sim.timeout(self.params.compute.write_latency)
            try:
                self.store.apply(txn_id, update)
            except UpdateError as exc:
                raise TransactionAborted(str(exc))

    def send(self, dst: str, kind: str, txn_id: int, **payload: Any) -> None:
        self.server.endpoint.send_to(dst, kind, txn_id=txn_id, **payload)

    def recv(
        self,
        inbox: "Store",
        kinds: Optional[frozenset] = None,
        timeout: Optional[float] = None,
        from_: Optional[str] = None,
    ) -> Generator:
        """Generator: next matching message from a session inbox.

        Returns ``None`` on timeout (callers decide whether that aborts
        the transaction or triggers recovery).
        """

        def match(msg: Message) -> bool:
            if kinds is not None and msg.kind not in kinds:
                return False
            if from_ is not None and msg.src != from_:
                return False
            return True

        get = inbox.get(match)
        if timeout is None:
            return (yield get)
        deadline = self.sim.timeout(timeout)
        yield AnyOf(self.sim, [get, deadline])
        if get.triggered:
            return get.value
        get.succeed(None)  # withdraw
        return None

    def reply_to_client(self, txn: Transaction, committed: bool, reason: str = "") -> float:
        """Send the CLIENT_REPLY; returns the (virtual) reply time."""
        self.send(
            txn.client,
            MsgKind.CLIENT_REPLY,
            txn.txn_id,
            committed=committed,
            op=txn.plan.op,
            path=txn.plan.path,
            reason=reason,
            req_id=txn.req_id,
        )
        self.obs.client_reply(self.me, txn.txn_id, committed=committed, op=txn.plan.op)
        return self.sim.now

    def decode_updates(self, payload: dict) -> list[Update]:
        return [update_from_description(d) for d in payload.get("updates", [])]

    def outcome(
        self,
        txn: Transaction,
        committed: bool,
        replied_at: float,
        reason: str = "",
    ) -> TxnOutcome:
        out = TxnOutcome(
            txn_id=txn.txn_id,
            op=txn.plan.op,
            path=txn.plan.path,
            committed=committed,
            submitted_at=txn.submitted_at,
            replied_at=replied_at,
            finished_at=self.sim.now,
            coordinator=self.me,
            reason=reason,
        )
        self.obs.txn_done(
            self.me,
            txn.txn_id,
            committed=committed,
            op=txn.plan.op,
            latency=out.client_latency,
            replied_at=replied_at,
            reason=reason,
        )
        return out

    # -- local (single-MDS) transactions ----------------------------------------------

    def run_local(self, txn: Transaction) -> Generator:
        """Commit a transaction whose every update is local.

        No atomic commitment protocol is needed when only one MDS is
        involved (the paper's ACPs exist for *distributed* namespace
        operations): lock, apply, force one UPDATES+COMMITTED record,
        reply.  Shared by every protocol, so placement-locality
        comparisons measure the protocols only where they actually
        differ.
        """
        txn_id, plan = txn.txn_id, txn.plan
        try:
            yield from self.lock_all(txn_id, plan.locks(self.me))
            yield from self.apply_updates(txn_id, plan.updates[self.me])
        except TransactionAborted as aborted:
            self.store.abort(txn_id)
            self.locks.release_all(txn_id)
            replied_at = self.reply_to_client(txn, committed=False, reason=aborted.reason)
            return self.outcome(txn, committed=False, replied_at=replied_at, reason=aborted.reason)
        yield from self.wal.force(
            self.updates_rec(txn_id, self.store.updates_of(txn_id)),
            self.state_rec(RecordKind.COMMITTED, txn_id),
        )
        self.store.commit_durable(txn_id)
        self.locks.release_all(txn_id)
        replied_at = self.reply_to_client(txn, committed=True)
        self.wal.checkpoint(txn_id)
        return self.outcome(txn, committed=True, replied_at=replied_at)

    # -- coordinator skeleton -----------------------------------------------------------

    def coordinate(self, txn: Transaction) -> Generator:
        """Run the transaction as coordinator; returns a TxnOutcome."""
        if self.max_workers is not None and len(txn.workers) > self.max_workers:
            raise UnsupportedOperation(
                reject_fanout(self.name, self.max_workers, len(txn.workers))
            )
        inbox = self.server.open_session(txn.txn_id)
        try:
            unbegun = yield from self._begin(txn, inbox)
            if unbegun is not None:
                # Nothing is durable yet, so there is no abort to record.
                return self._drop(txn, unbegun)
            try:
                return (yield from self._coordinate_body(txn, inbox))
            except TransactionAborted as aborted:
                return (yield from self._abort(txn, inbox, aborted.reason))
        finally:
            self.server.close_session(txn.txn_id)

    def _begin(self, txn: Transaction, inbox: "Store") -> Generator:  # pragma: no cover
        """Make the transaction's start durable.  Returns ``None``, or
        the abort reason when the begin itself could not be made
        durable."""
        raise NotImplementedError

    def _coordinate_body(self, txn: Transaction, inbox: "Store") -> Generator:  # pragma: no cover
        """Execute, vote and decide; raise :class:`TransactionAborted`
        to abort.  Returns the TxnOutcome."""
        raise NotImplementedError

    def _abort(
        self, txn: Transaction, inbox: "Store", reason: str
    ) -> Generator:  # pragma: no cover - abstract
        """Make the abort durable, roll back and answer the client."""
        raise NotImplementedError

    def _drop(self, txn: Transaction, reason: str) -> TxnOutcome:
        """Roll back, release, tell the client and forget the txn."""
        self.store.abort(txn.txn_id)
        self.locks.release_all(txn.txn_id)
        replied_at = self.reply_to_client(txn, committed=False, reason=reason)
        self._forget(txn.txn_id)
        return self.outcome(txn, committed=False, replied_at=replied_at, reason=reason)

    def _forget(self, txn_id: int) -> None:
        """Drop the settled transaction's durable state."""
        self.wal.checkpoint(txn_id)

    def _send_update_req(self, worker: str, txn_id: int, plan: OpPlan, **extra: Any) -> None:
        """Ship ``worker`` its share of the plan, in this engine's format."""
        if self.update_flag is not None:
            extra = {self.update_flag: True, **extra}
        self.send(
            worker,
            MsgKind.UPDATE_REQ,
            txn_id,
            updates=[u.describe() for u in plan.updates[worker]],
            op=plan.op,
            **extra,
        )

    def _gather_replies(self, inbox: "Store", workers: Sequence[str], kind: str) -> Generator:
        """Wait for a ``kind`` reply from every worker; a refusal
        (NOT_PREPARED, or ``ok=False``) or a silent worker aborts."""
        awaited, refused = _REPLY_WORDING[kind]
        pending = set(workers)
        while pending:
            msg = yield from self.recv(
                inbox,
                kinds=frozenset({kind, MsgKind.NOT_PREPARED}),
                timeout=self.params.failure.reply_timeout,
            )
            if msg is None:
                raise TransactionAborted(f"timeout waiting for {awaited} from {sorted(pending)}")
            if msg.kind == MsgKind.NOT_PREPARED or not msg.payload.get("ok", True):
                raise TransactionAborted(
                    f"worker {msg.src} {refused}: "
                    f"{msg.payload.get('reason', 'no reason given')}"
                )
            pending.discard(msg.src)

    # -- worker skeleton ----------------------------------------------------------------

    def worker_session(self, first: Message, inbox: "Store") -> Generator:  # pragma: no cover
        """Participate in a remote transaction; ``first`` opened it."""
        raise NotImplementedError

    def _worker_execute(self, first: Message) -> Generator:
        """Lock and apply the shipped updates.

        Returns ``False`` after rolling back and answering NOT_PREPARED
        when that fails (or the server's test hook refuses the vote).
        """
        txn_id, coordinator = first.txn_id, first.src
        updates = self.decode_updates(first.payload)
        try:
            # A ``decided`` retransmission means the global outcome is
            # already COMMIT (some sibling's forced commit is durable):
            # our vote no longer exists to refuse.
            if self.server.fail_next_vote and not first.payload.get("decided"):
                self.server.fail_next_vote = False
                raise TransactionAborted("injected vote failure")
            yield from self.lock_all(txn_id, lock_targets(updates))
            yield from self.apply_updates(txn_id, updates)
        except TransactionAborted as aborted:
            self.store.abort(txn_id)
            self.locks.release_all(txn_id)
            self.send(coordinator, MsgKind.NOT_PREPARED, txn_id, reason=aborted.reason)
            return False
        return True

    # -- recovery skeleton --------------------------------------------------------------

    def recover(self) -> Generator:
        """Reboot-time log scan: resume every open transaction this
        engine logged, as its coordinator (it wrote STARTED) or as a
        worker."""
        for txn_id in self.wal.open_transactions():
            records = self.wal.records_for(txn_id)
            if not self.owns_txn(records):
                continue
            state = self.wal.last_state(txn_id)
            if any(r.kind == RecordKind.STARTED for r in records):
                yield from self._recover_coordinator(txn_id, state, records)
            else:
                yield from self._recover_worker(txn_id, state, records)

    def _recover_coordinator(
        self, txn_id: int, state: Optional[RecordKind], records: Sequence[LogRecord]
    ) -> Generator:  # pragma: no cover - abstract
        raise NotImplementedError

    def _recover_worker(
        self, txn_id: int, state: Optional[RecordKind], records: Sequence[LogRecord]
    ) -> Generator:  # pragma: no cover - abstract
        raise NotImplementedError

    @staticmethod
    def _logged_updates(records: Sequence[LogRecord]) -> list[dict]:
        """Update descriptions of a transaction's UPDATES records."""
        return [
            desc
            for record in records
            if record.kind == RecordKind.UPDATES
            for desc in record.payload.get("updates", [])
        ]

    @staticmethod
    def _coordinator_from(records: Sequence[LogRecord]) -> Optional[str]:
        for record in records:
            if "coordinator" in record.payload:
                return record.payload["coordinator"]
        return None

    def _reapply(self, txn_id: int, descs: Sequence[dict]) -> Generator:
        """Re-install durable updates into the transaction's overlay."""
        for desc in descs:
            yield self.sim.timeout(self.params.compute.write_latency)
            self.store.apply(txn_id, update_from_description(desc))

    def _restore_committed(self, txn_id: int, descs: Sequence[dict]) -> Generator:
        """Fold a durably committed transaction into the stable image,
        unless the crash came after the fold."""
        if not self.store.has_applied(txn_id):
            yield from self._reapply(txn_id, descs)
            self.store.commit_durable(txn_id)

    # -- stray messages -----------------------------------------------------------------

    def handle_stray(self, msg: Message) -> Optional[Generator]:
        """React to a protocol message with no live session.

        Returns a generator to run, or ``None`` to ignore the message.
        The default handles the cases common to the 2PC family (§II-C
        "no entry in the log"); subclasses extend it.
        """
        if msg.kind == MsgKind.PREPARE:
            # Rebooted before preparing: vote no.
            return self._stray_reply(msg, MsgKind.NOT_PREPARED)
        if msg.kind == MsgKind.COMMIT:
            # Already committed and checkpointed; the coordinator just
            # never saw the ACK.
            return self._stray_reply(msg, MsgKind.ACK)
        if msg.kind == MsgKind.ABORT:
            return self._stray_reply(msg, MsgKind.ACK)
        if msg.kind == MsgKind.ACK and self.wal.last_state(msg.txn_id) == RecordKind.ABORTED:
            # A worker finally acknowledged an abort whose session is
            # long gone: the abort information may now be forgotten.
            return self._stray(lambda: self.wal.checkpoint(msg.txn_id))
        if msg.kind == MsgKind.DECISION_REQ:
            return self._stray(lambda: self._answer_decision(msg))
        return None

    @staticmethod
    def _stray(action: Callable[[], Any]) -> Generator:
        """A process body that runs ``action`` and ends.

        The server runs every stray answer as a process of its own, so
        an answer that needs no waiting still takes its kernel step.
        """
        yield from ()
        action()

    def _stray_reply(self, msg: Message, kind: str, **payload: Any) -> Generator:
        return self._stray(lambda: self.send(msg.src, kind, msg.txn_id, **payload))

    def _answer_decision(self, msg: Message) -> None:
        """Coordinator-side: a restarted worker asks for the outcome."""
        state = self.wal.last_state(msg.txn_id)
        if state in (RecordKind.COMMITTED, RecordKind.ENDED):
            self.send(msg.src, MsgKind.COMMIT, msg.txn_id)
        elif state == RecordKind.ABORTED:
            self.send(msg.src, MsgKind.ABORT, msg.txn_id)
        elif state is None:
            # Log already checkpointed: apply the protocol's
            # presumption.
            self.send(msg.src, self.presumed_decision(), msg.txn_id)
        # STARTED / PREPARED: no decision yet; the coordinator's own
        # recovery or timeout path will drive the outcome.  Telling the
        # worker to abort is not known to be safe, so stay silent and
        # let it retry.

    def presumed_decision(self) -> str:
        """Decision implied by an absent coordinator log entry."""
        return MsgKind.COMMIT


class OnePhaseCore(Protocol):
    """The one-phase skeleton (§III): the worker's commit is its vote.

    No voting phase: the coordinator ships the updates, each worker
    makes its commit durable and answers UPDATED, and the coordinator's
    durable begin (its redo) guarantees it can always re-execute.  A
    silent worker is *probed* instead of waited for.  Engines state:

    * the durability medium -- :meth:`_begin`, :meth:`_vote`,
      :meth:`_commit_self`, :meth:`_log_abort`, :meth:`_forget` and
      :meth:`_finalize` (WAL forces for 1PC, backup replication for
      LGL), plus :meth:`_commit_redo` / :meth:`_abandon_redo` where a
      replay's durable steps differ from a live transaction's, and
      :meth:`_await_restart` / :meth:`_already_committed` for how a
      worker recognises a duplicate request;
    * the worker probe -- :meth:`_probe` (and :meth:`_await_vote` for
      how long to wait before probing);
    * the UPDATE_REQ flag -- :attr:`update_flag`.
    """

    #: Trace annotation for a worker whose vote never became durable.
    vote_lost_note = ""

    def claims_worker_message(self, msg: Message) -> bool:
        """A bare UPDATE_REQ or a PREPARE belongs to the 2PC-family
        fallback."""
        return msg.kind not in SESSION_OPENERS or self._speaks(msg)

    # -- coordinator ------------------------------------------------------------------

    def _coordinate_body(self, txn: Transaction, inbox: "Store") -> Generator:
        plan, txn_id = txn.plan, txn.txn_id
        yield from self.lock_all(txn_id, plan.locks(self.me))
        yield from self.apply_updates(txn_id, plan.updates[self.me])

        workers = list(txn.workers)
        committed, outstanding, reason = yield from self._collect_votes(
            txn_id, plan, workers, inbox
        )
        if workers and not committed:
            # Nobody's commit is durable: refusers rolled back, crashed
            # workers lost their volatile state, fenced or sealed
            # workers can never commit -- aborting is safe and unanimous.
            raise TransactionAborted(reason or "no worker committed")
        if outstanding:
            # Partial failure (§III-C generalised to k workers): at
            # least one worker's commit is durable, so the only atomic
            # outcome is COMMIT -- the remaining workers must be driven
            # to it, never rolled back.
            self.obs.annotate(
                "partial_commit_resolution",
                self.me,
                txn=txn_id,
                committed=list(committed),
                outstanding=list(outstanding),
            )

        # Decision reached: every worker has committed (or there is no
        # worker).  The updates become visible in the cache, the client
        # gets its reply and the locks drop *before* our own commit
        # becomes durable.
        self.store.commit(txn_id)
        replied_at = self.reply_to_client(txn, committed=True)
        self.locks.release_all(txn_id)
        durable = yield from self._commit_self(txn_id, workers, inbox)
        yield from self._settle(txn_id, plan, committed, outstanding, durable, inbox)
        return self.outcome(txn, committed=True, replied_at=replied_at)

    def _collect_votes(
        self,
        txn_id: int,
        plan: OpPlan,
        workers: Sequence[str],
        inbox: "Store",
        watch_detector: bool = True,
    ) -> Generator:
        """Ship the updates and collect every worker's vote: its durable
        commit (UPDATED), a refusal (NOT_PREPARED), or -- once it goes
        silent -- the verdict of its probe (§III-C, per participant).

        Returns ``(committed, outstanding, reason)``: the workers whose
        commit is known durable, the failed workers that must be
        driven to commit if the global outcome is COMMIT, and an abort
        reason naming every failed worker (``None`` when all
        committed).
        """
        for worker in workers:
            self._send_update_req(worker, txn_id, plan)
        pending = dict.fromkeys(workers)
        committed: list[str] = []
        failed: dict[str, str] = {}
        while pending:
            msg = yield from self._await_vote(txn_id, pending, inbox, watch_detector)
            if msg is None:
                break
            if msg.src not in pending:
                continue  # duplicate reply from an already-counted worker
            del pending[msg.src]
            if msg.kind == MsgKind.NOT_PREPARED:
                failed[msg.src] = (
                    f"worker {msg.src} rejected the updates: "
                    f"{msg.payload.get('reason', 'no reason given')}"
                )
            else:
                committed.append(msg.src)
        for worker in list(pending):
            if (yield from self._probe(txn_id, worker, inbox)):
                committed.append(worker)
            else:
                failed[worker] = f"worker {worker} crashed before committing"
        outstanding = [w for w in workers if w in failed]
        reason = "; ".join(failed[w] for w in outstanding) or None
        return committed, outstanding, reason

    def _await_vote(
        self, txn_id: int, pending: dict, inbox: "Store", watch_detector: bool
    ) -> Generator:
        """One outstanding worker's UPDATED or NOT_PREPARED, or ``None``
        after the reply timeout."""
        return (
            yield from self.recv(
                inbox,
                kinds=frozenset({MsgKind.UPDATED, MsgKind.NOT_PREPARED}),
                timeout=self.params.failure.reply_timeout,
            )
        )

    def _settle(
        self,
        txn_id: int,
        plan: OpPlan,
        committed: Sequence[str],
        outstanding: Sequence[str],
        durable: bool,
        inbox: "Store",
    ) -> Generator:
        """After our own commit: acknowledge the committed workers,
        drive the stragglers, and forget the transaction once our
        commit is durable."""
        for worker in committed:
            self.send(worker, MsgKind.ACK, txn_id)
        if outstanding:
            yield from self._drive_stragglers(txn_id, plan, outstanding, inbox)
        if durable:
            self._forget(txn_id)

    def _drive_stragglers(
        self, txn_id: int, plan: OpPlan, stragglers: Sequence[str], inbox: "Store"
    ) -> Generator:
        """Drive workers that missed a COMMIT decision to apply it.

        The decision is durable (our commit plus at least one worker's),
        so each straggler is retransmitted the commit-carrying
        UPDATE_REQ marked ``decided`` until it confirms: a rebooted
        worker runs the session from scratch, a worker that already
        committed re-acknowledges from its log, and a worker that
        refused earlier applies the updates it rolled back -- with one
        worker a refusal aborts the transaction, which is exactly why
        the paper's two-party 1PC never overrides a vote (§III); see
        :mod:`repro.core.fanout`.
        """
        for worker in stragglers:
            for _ in range(COMMIT_DRIVE_RETRIES):
                self._send_update_req(worker, txn_id, plan, decided=True)
                msg = yield from self._await_commit_confirmation(txn_id, worker, inbox)
                if msg is not None and msg.kind == MsgKind.UPDATED:
                    self.send(worker, MsgKind.ACK, txn_id)
                    break
            else:
                self.obs.annotate(
                    "commit_drive_exhausted", self.me, txn=txn_id, worker=worker
                )

    def _await_commit_confirmation(self, txn_id: int, worker: str, inbox: "Store") -> Generator:
        """One retransmission round: wait out even a rebooting worker,
        answering ACK_REQs from already-committed peers meanwhile."""
        deadline = self.sim.now + self.params.failure.reply_timeout * ACK_WAIT_FACTOR
        while True:
            remaining = deadline - self.sim.now
            if remaining <= 0:
                return None
            msg = yield from self.recv(
                inbox,
                kinds=frozenset(
                    {MsgKind.UPDATED, MsgKind.NOT_PREPARED, MsgKind.ACK_REQ}
                ),
                timeout=remaining,
            )
            if msg is None:
                return None
            if msg.kind == MsgKind.ACK_REQ:
                self.send(msg.src, MsgKind.ACK, msg.txn_id)
                continue
            if msg.src != worker:
                continue
            return msg

    def _abort(self, txn: Transaction, inbox: "Store", reason: str) -> Generator:
        """Make the abort durable *before* the client hears it, so a
        crash cannot re-execute the redo into a commit."""
        yield from self._log_abort(txn.txn_id, reason, inbox)
        return self._drop(txn, reason)

    # -- durability steps (engine-specific) ---------------------------------------------

    def _probe(self, txn_id: int, worker: str, inbox: "Store") -> Generator:  # pragma: no cover
        """Settle a silent worker's vote for good: True if it committed."""
        raise NotImplementedError

    def _vote(self, txn_id: int, coordinator: str, inbox: "Store") -> Generator:  # pragma: no cover
        """Worker: make the commit durable; False if it never became so."""
        raise NotImplementedError

    def _commit_self(
        self, txn_id: int, workers: Sequence[str], inbox: "Store"
    ) -> Generator:  # pragma: no cover
        """Coordinator: make our own commit durable and harden the
        stable image; returns whether it became durable."""
        raise NotImplementedError

    def _log_abort(self, txn_id: int, reason: str, inbox: "Store") -> Generator:  # pragma: no cover
        """Coordinator: make the abort durable."""
        raise NotImplementedError

    def _finalize(self, txn_id: int) -> None:
        """Worker: the coordinator's ACK arrived."""
        self._forget(txn_id)

    # -- worker -----------------------------------------------------------------------

    def worker_session(self, first: Message, inbox: "Store") -> Generator:
        txn_id, coordinator = first.txn_id, first.src
        try:
            if not self._speaks(first):
                self.send(coordinator, MsgKind.NOT_PREPARED, txn_id)
                return None
            yield from self._await_restart()
            if self._already_committed(txn_id):
                # Duplicate request (the coordinator re-executed after a
                # crash): we already committed -- just re-acknowledge.
                self.send(coordinator, MsgKind.UPDATED, txn_id, ok=True)
                yield from self._await_ack_and_finalize(txn_id, coordinator, inbox)
                return None
            if not (yield from self._worker_execute(first)):
                return None
            # The worker's commit *is* its vote.
            if not (yield from self._vote(txn_id, coordinator, inbox)):
                # Fenced or sealed mid-commit (the coordinator gave up on
                # us) or log lost: the commit never became durable, so
                # the coordinator reads "no commit" and aborts.  Drop
                # everything locally.
                self.store.abort(txn_id)
                self.locks.release_all(txn_id)
                self.obs.annotate(self.vote_lost_note, self.me, txn=txn_id)
                return None
            self.store.commit_durable(txn_id)
            self.locks.release_all(txn_id)
            self.send(coordinator, MsgKind.UPDATED, txn_id, ok=True)
            yield from self._await_ack_and_finalize(txn_id, coordinator, inbox)
            return None
        finally:
            self.server.close_session(txn_id)

    def _await_restart(self) -> Generator:
        """Wait until local state can answer a duplicate request."""
        yield from ()

    def _already_committed(self, txn_id: int) -> bool:
        return self.store.has_applied(txn_id)

    def _await_ack_and_finalize(self, txn_id: int, coordinator: str, inbox: "Store") -> Generator:
        """Wait for the coordinator's ACK, then finalise.

        A duplicate UPDATE_REQ in the meantime means the coordinator
        crashed and is re-executing from its redo: re-acknowledge with
        UPDATED (we already committed).
        """
        asked = False
        while True:
            msg = yield from self.recv(
                inbox,
                kinds=frozenset({MsgKind.ACK, MsgKind.UPDATE_REQ}),
                timeout=self.params.failure.reply_timeout * ACK_WAIT_FACTOR,
            )
            if msg is None:
                if asked:
                    self.obs.annotate("worker_unfinalized", self.me, txn=txn_id)
                    return
                # §III-C: ask the coordinator to resend the ACKNOWLEDGE.
                self.send(coordinator, MsgKind.ACK_REQ, txn_id)
                asked = True
                continue
            if msg.kind == MsgKind.UPDATE_REQ:
                self.send(msg.src, MsgKind.UPDATED, txn_id, ok=True)
                continue
            break
        self._finalize(txn_id)

    # -- recovery ---------------------------------------------------------------------

    def _reclaim_ack(self, txn_id: int, coordinator: Optional[str]) -> Generator:
        """Recovered committed worker: "The worker asks the coordinator
        to resend the ACKNOWLEDGE message" (§III-C)."""
        inbox = self.server.open_session(txn_id)
        try:
            if coordinator is None:
                return
            self.send(coordinator, MsgKind.ACK_REQ, txn_id)
            msg = yield from self.recv(
                inbox,
                kinds=frozenset({MsgKind.ACK}),
                timeout=self.params.failure.reply_timeout * ACK_WAIT_FACTOR,
            )
            if msg is not None:
                self._finalize(txn_id)
            self.obs.annotate("recovery", self.me, txn=txn_id, action="ack-requested")
        finally:
            self.server.close_session(txn_id)

    def _re_execute(self, txn_id: int, plan: OpPlan) -> Generator:
        """Redo replay: run the transaction again end to end.

        No client is waiting (the reply died with the crash); "no
        matter what will happen, the transaction will be committed
        eventually" unless no worker commits.
        """
        self.obs.annotate("recovery", self.me, txn=txn_id, action="redo")
        inbox = self.server.open_session(txn_id)
        try:
            try:
                yield from self.lock_all(txn_id, plan.locks(self.me))
                yield from self.apply_updates(txn_id, plan.updates[self.me])
            except TransactionAborted as aborted:
                # Replay of our own logged operation cannot conflict
                # unless the transaction already committed once.
                self.store.abort(txn_id)
                self.locks.release_all(txn_id)
                yield from self._abandon_redo(txn_id, aborted.reason, inbox)
                return
            workers = [n for n in plan.participants if n != self.me]
            committed, outstanding, _ = yield from self._collect_votes(
                txn_id, plan, workers, inbox, watch_detector=False
            )
            if workers and not committed:
                self.store.abort(txn_id)
                self.locks.release_all(txn_id)
                yield from self._abandon_redo(txn_id, "redo failed", inbox)
                self.obs.annotate("recovery", self.me, txn=txn_id, action="redo-aborted")
                return
            durable = yield from self._commit_redo(txn_id, workers, inbox)
            yield from self._settle(txn_id, plan, committed, outstanding, durable, inbox)
            self.obs.annotate("recovery", self.me, txn=txn_id, action="redo-committed")
        finally:
            self.server.close_session(txn_id)

    def _abandon_redo(self, txn_id: int, reason: str, inbox: "Store") -> Generator:
        """Record a failed replay's abort and forget the transaction."""
        yield from self._log_abort(txn_id, reason, inbox)
        self._forget(txn_id)

    def _commit_redo(self, txn_id: int, workers: Sequence[str], inbox: "Store") -> Generator:
        """Commit a replayed transaction (no client waits on it)."""
        self.locks.release_all(txn_id)
        return (yield from self._commit_self(txn_id, workers, inbox))
