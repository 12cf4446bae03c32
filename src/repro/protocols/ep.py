"""Early Prepare optimisation (§II-E, Figure 4).

EP builds on PrC and piggybacks the voting phase onto the transaction
execution: the worker "autonomously prepares as soon as the last
metadata update has been completed".  The UPDATE_REQ carries a
``prepare`` flag; the worker applies the updates, forces
UPDATES+PREPARED, and its single reply is both the UPDATED response and
the PREPARED vote.

Failure-free flow:

==========  =====================================================
coordinator worker
==========  =====================================================
force STARTED
lock, update cache             (coordinator prepares concurrently)
UPDATE_REQ(prepare) ->
            lock, update cache
            force UPDATES+PREPARED
            <- PREPARED
force COMMITTED, release locks, reply to client
COMMIT ->
            lazy COMMITTED, apply, release locks
==========  =====================================================

Cost accounting (Table I row EP): (4, 1) log writes total, (3, 0) in
the critical path, only 1 extra message (COMMIT) and none in the
critical path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.protocols.base import (
    MsgKind,
    ProtocolSpec,
    Transaction,
    register_protocol,
)
from repro.protocols.prc import PresumeCommitProtocol

if TYPE_CHECKING:
    from repro.sim.resources import Store


class EarlyPrepareProtocol(PresumeCommitProtocol):
    """PrC with the execution piggybacked into the voting phase."""

    name = "EP"
    #: EP workers only ever see prepare-carrying requests; a bare
    #: PREPARE means the worker's session state is gone.
    update_flag = "prepare"

    def _vote_phase(self, txn: Transaction, inbox: "Store") -> Generator:
        """Single round: ship the updates with the prepare flag set and
        prepare ourselves concurrently; the commit phase is PrC's."""
        own_prepare = self._start_own_prepare(txn.txn_id)
        for worker in txn.workers:
            self._send_update_req(worker, txn.txn_id, txn.plan)
        yield from self._await_votes(
            own_prepare, self._gather_replies(inbox, txn.workers, MsgKind.PREPARED)
        )

    def _await_prepare(self, txn_id: int, coordinator: str, inbox: "Store") -> Generator:
        """Autonomous prepare: the combined UPDATED+PREPARED reply
        follows the worker's own prepare."""
        yield from ()
        return True


register_protocol(
    ProtocolSpec(
        name="EP",
        engine=EarlyPrepareProtocol,
        summary="Early Prepare: voting piggybacked on execution (§II-E)",
        log_records=("STARTED", "UPDATES", "PREPARED", "COMMITTED", "ABORTED", "ENDED"),
        paper_figure6=16.0,
        table1_row=(4, 1, 3, 0, 1, 0),
        citation=(
            "Stamos & Cristian, 'Coordinator Log Transaction Execution "
            "Protocol' (Distributed and Parallel Databases, 1993)"
        ),
        order=2,
    )
)
