"""Generator-coroutine processes.

A :class:`Process` drives a generator: every value the generator yields
must be an :class:`~repro.sim.events.Event`; the process sleeps until
the event triggers and is resumed with the event's value (or has the
event's exception thrown into it on failure).

A process is itself an event that triggers when the generator returns
(succeeding with its return value) or raises (failing with the
exception), so processes can wait on each other.

Hot-path notes
--------------
Kick-starts, relays of already-processed targets and interrupt wakeups
used to allocate a named ``Event`` (plus f-string and callback list)
per occurrence; they now go through the kernel's pooled trigger-event
freelist (:meth:`Simulator._trigger_pooled`).  That is safe precisely
because ``_resume`` never retains the event it is called with — it only
reads the outcome and possibly marks the failure defused.  Scheduling
order is unchanged: the pooled path assigns its heap sequence number at
the same program point the old ``succeed()``/``fail()`` calls did.

The bound ``_resume`` method is created once per process and kept in a
slot, so waits and relays append the same callback object instead of
binding a fresh method each time.  Plain generators skip the
duck-typing checks of the constructor.
"""

from __future__ import annotations

from types import GeneratorType
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.sim.errors import Interrupt, SimulationError
from repro.sim.events import PENDING, PROCESSED, Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator


class Process(Event):
    """A running simulation actor wrapping a generator."""

    __slots__ = ("_generator", "_waiting_on", "_resume_cb")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if type(generator) is not GeneratorType and (
            not hasattr(generator, "send") or not hasattr(generator, "throw")
        ):
            raise TypeError(f"Process requires a generator, got {type(generator).__name__}")
        super().__init__(sim, name or getattr(generator, "__name__", "process"))
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        #: ``self._resume``, bound once (see the module docstring).
        self._resume_cb: Callable[[Event], None] = self._resume
        # Kick-start: resume at the current instant with a pooled
        # initialisation event, so process bodies begin executing in
        # creation order.
        sim._trigger_pooled(self._resume_cb, None)

    # -- state ---------------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._state == PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process currently waits on, if any."""
        return self._waiting_on

    # -- control --------------------------------------------------------------

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process.

        The process is detached from whatever event it was waiting on
        (the event itself is unaffected and may still trigger later).
        Interrupting a dead process is a no-op so that crash injection
        does not have to care about races with normal completion.
        """
        if self._state != PENDING:
            return
        if self is self.sim.active_process:
            raise SimulationError("a process cannot interrupt itself")
        # Detach from the waited-on event.
        self._detach()
        # The interrupt itself is always considered observed (defused).
        self.sim._trigger_pooled(self._resume_cb, Interrupt(cause), ok=False, defused=True)

    def kill(self, cause: Any = None) -> None:
        """Terminate the process immediately without running it further.

        Unlike :meth:`interrupt`, the generator gets no chance to handle
        the event — this models a hard crash where volatile execution
        state is simply lost.  The process event *succeeds* with
        ``None`` so that waiters are not poisoned; crash semantics are
        the responsibility of higher layers.
        """
        if self._state != PENDING:
            return
        self._detach()
        self._generator.close()
        self.succeed(None)

    def _detach(self) -> None:
        """Stop waiting on the current target (which may still trigger)."""
        if self._waiting_on is not None:
            cbs = self._waiting_on._callbacks
            if cbs is not None and self._resume_cb in cbs:
                cbs.remove(self._resume_cb)
        self._waiting_on = None

    # -- kernel callback --------------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        if self._state != PENDING:
            # Already finished (e.g. kill() raced with a pending
            # kick-start or relay event): ignore stale wakeups.
            if not event._ok:
                event.defused = True
            return
        sim = self.sim
        sim._active_process = self
        self._waiting_on = None
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                event.defused = True
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):  # pragma: no cover
                raise
            self.fail(exc)
            return
        finally:
            sim._active_process = None

        if not isinstance(target, Event):
            exc = SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield events"
            )
            try:
                self._generator.throw(exc)
            except BaseException:
                pass
            self.fail(exc)
            return
        if target.sim is not sim:
            self.fail(SimulationError("yielded an event belonging to another simulator"))
            return

        self._waiting_on = target
        state = target._state
        if state > PROCESSED:  # a retired timer: re-arm it (or see it as past)
            state = sim._revive(target)
        if state == PROCESSED:
            # Already-processed events resume the process immediately
            # (still via the scheduler, to preserve determinism).
            sim._trigger_pooled(
                self._resume_cb, target._value, ok=target._ok, defused=not target._ok
            )
        else:
            cbs = target._callbacks
            if cbs is None:
                target._callbacks = [self._resume_cb]
            else:
                cbs.append(self._resume_cb)
