"""Per-node network endpoint with a mailbox and timeout-aware receive."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Optional

from repro.net.message import Message
from repro.sim import AnyOf, Event, Simulator, Store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.network import Network


class ReceiveTimeout(Exception):
    """Raised by :meth:`Endpoint.receive_wait` when the deadline passes."""


class Endpoint:
    """A node's attachment to the network.

    Incoming messages land in ``mailbox``; processes consume them with
    ``receive`` (an event) or the generator helper ``receive_wait``
    which adds a timeout.
    """

    def __init__(self, sim: Simulator, node: str, network: "Network"):
        self.sim = sim
        self.node = node
        self.network = network
        self.attached = True
        self.mailbox: Store = Store(sim, name=f"mailbox:{node}")

    # -- sending ---------------------------------------------------------------

    def send(self, message: Message) -> None:
        """Transmit ``message`` (must originate from this node)."""
        if message.src != self.node:
            raise ValueError(f"endpoint {self.node} cannot send as {message.src}")
        self.network.send(message)

    def send_to(self, dst: str, kind: str, txn_id: Optional[int] = None, **payload) -> Message:
        """Build and transmit a message; returns it (msg_id assigned
        by the network at send time)."""
        # Built positionally and handed straight to the network: the
        # source check of send() holds by construction.
        msg = Message(self.node, dst, kind, txn_id, payload)
        self.network.send(msg)
        return msg

    # -- receiving ---------------------------------------------------------------

    def receive(self, predicate: Optional[Callable[[Message], bool]] = None) -> Event:
        """Event triggering with the next (matching) message."""
        return self.mailbox.get(predicate)

    def receive_wait(
        self,
        predicate: Optional[Callable[[Message], bool]] = None,
        timeout: Optional[float] = None,
    ) -> Generator:
        """Generator helper: ``msg = yield from ep.receive_wait(...)``.

        Raises :class:`ReceiveTimeout` if no matching message arrives
        within ``timeout`` seconds.
        """
        get = self.receive(predicate)
        if timeout is None:
            return (yield get)
        deadline = self.sim.timeout(timeout)
        yield AnyOf(self.sim, [get, deadline])
        if get.triggered:
            return get.value
        # Withdraw the outstanding get so a late message is not consumed
        # by a waiter that has already given up.
        get.succeed(None)
        raise ReceiveTimeout(f"{self.node}: no message within {timeout}s")

    def flush(self) -> None:
        """Drop all queued messages and pending receivers (crash
        semantics: the processes waiting on the mailbox die with the
        node, and their stale getters must not swallow post-restart
        traffic)."""
        self.mailbox.items.clear()
        self.mailbox.cancel_getters()
