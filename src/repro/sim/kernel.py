"""The simulator event loop.

The kernel is a classic calendar-queue DES core: a binary heap of
``(time, priority, sequence, event)`` entries.  ``sequence`` is a
monotonically increasing integer that makes scheduling fully
deterministic: two events scheduled for the same instant always fire in
the order they were scheduled.

Hot-path notes
--------------
``run()`` is the innermost loop of every experiment, so it is written
as a tight inline loop rather than composed from ``peek()``/``step()``:
the queues and their pop methods are bound to locals, the callback
dispatch of :meth:`~repro.sim.events.Event._run_callbacks` is inlined
(no event subclass overrides it), and the processed-event counter is
accumulated locally and flushed once.  ``step()`` stays the
one-event-at-a-time public API with identical semantics.

The kernel also keeps a small **freelist of trigger events**: process
kick-starts, relays of already-processed targets, interrupt wakeups
and network-delivery timers are all single-callback events that the
rest of the simulation never retains, so the kernel recycles them via
:meth:`_trigger_pooled` instead of allocating a fresh ``Event`` (plus
name string and callback list) per occurrence.  A pooled event is
returned to the freelist immediately after its callbacks ran.

Everything above is *mechanical*: event order, virtual timestamps and
process semantics are byte-identical to the straightforward kernel.

The same-instant lane
---------------------
More than half of all schedules are due at the current instant
(zero-delay ``succeed``/``fail``, kick-starts, relays).  Such an entry
— computed time ``== now``, scheduled while the clock is at ``now`` —
goes onto a FIFO ``deque`` of ``(sequence, event)`` instead of the
heap.  The pop rule is: first any heap entry due at or before ``now``
(this includes the :meth:`Simulator.stop` sentinel), then the lane,
then advance the clock to the heap's top.

The order is exactly the single heap's.  Every heap entry due at
``now`` was pushed before the clock reached ``now`` (one pushed at
``now`` for ``now`` would have gone onto the lane), so its sequence
number is smaller than that of every lane entry; lane entries share the
time and priority and are appended in sequence order.  Sequence numbers
are taken at the same program points as before, so every event keeps
its ``(time, priority, sequence)`` key; lane entries report priority
:data:`PRIORITY_NORMAL`.  The lane drains before the clock moves.

Retired timers
--------------
The one place this kernel does *less* than the straightforward one: a
:class:`~repro.sim.events.Timeout` whose every waiter has gone (the
deadline of an ``AnyOf`` that resolved some other way — see
:mod:`repro.sim.events`) is *retired*.  The contract:

* A retired timer leaves the schedule: its entry is skipped when it
  reaches the front of the heap or of the lane (lazy deletion), and the
  heap is compacted once retired entries make up more than half of the
  schedule.  Compaction never evicts lane entries (the lane drains
  within the instant anyway).
* It is never popped, never counted in ``events_processed`` and never
  advances ``now``.  In particular ``now`` after a draining ``run()``
  is the time of the last *live* event, not of a trailing dead timer.
* If it gains a waiter again it is re-armed at its original
  ``(time, priority, sequence)`` when that point is still ahead of the
  clock, and otherwise behaves as an already-processed event — so no
  result depends on whether compaction ran.  An entry still queued is
  simply live again; an evicted one goes back onto the heap (never the
  lane: an evicted lane entry was at the lane's front, so the heap-first
  pop rule puts it back exactly in sequence order).
* Every other event pops at exactly the same ``(time, priority,
  sequence)`` as in the straightforward kernel, and every process sees
  the same values at the same instants.

``tests/sim/test_differential_kernel.py`` pins this against the frozen
reference implementation (identical pops apart from the dead timers,
identical process outcomes), and the golden traces pin it end to end.

:meth:`Simulator.stop` ends a ``run()`` right after the current event
without a per-event check in the loop: it queues a heap sentinel that
sorts before everything else at the current instant (lane included),
takes no sequence number and is not counted.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.sim.errors import SimulationError, StopSimulation
from repro.sim.events import (
    EVICTED,
    PENDING,
    PROCESSED,
    RETIRED,
    TRIGGERED,
    Event,
    Timeout,
)
from repro.sim.process import Process

#: Priority of every scheduled event (lane entries report it too).
PRIORITY_NORMAL = 1
#: Priority of the stop sentinel: ahead of everything at its instant.
_PRIORITY_STOP = -1

_INF = float("inf")

#: Freelist size cap — beyond this, trigger events are simply dropped
#: for the garbage collector (a bound, not a tuning knob).
_POOL_MAX = 4096


class _TriggerEvent(Event):
    """A pool-recycled, single-shot trigger event (kernel-internal).

    Only ever created by :meth:`Simulator._trigger_pooled`; never
    exposed to simulation code beyond the one callback it carries, and
    recycled the moment its callbacks have run.
    """

    __slots__ = ()

    _pooled = True

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.name = ""
        self._callbacks = None
        self._state = TRIGGERED
        self._ok = True
        self._value = None
        self.defused = False


class Simulator:
    """Deterministic discrete-event simulator.

    Typical use::

        sim = Simulator()

        def producer(sim):
            yield Timeout(sim, 1.0)
            return "done"

        proc = sim.process(producer(sim))
        sim.run()
        assert sim.now == 1.0
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._heap: list[tuple[float, int, int, Event]] = []
        #: The same-instant lane: ``(sequence, event)`` entries due at
        #: ``_now`` (see the module docstring).
        self._lane: deque[tuple[int, Event]] = deque()
        self._sequence = 0
        self._active_process: Optional[Process] = None
        self._pool: list[_TriggerEvent] = []
        #: Sequence number of the last live event popped: with ``_now``
        #: it is the clock's position among same-instant events.
        self._seq_now = 0
        #: Heap and lane entries whose event is RETIRED (lazily deleted).
        self._retired = 0
        #: The pending stop sentinel's heap entry, if any.
        self._stop_entry: Optional[tuple[float, int, int, Event]] = None
        #: Number of events processed so far (exposed for statistics).
        self.events_processed = 0

    # -- clock --------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    # -- scheduling ----------------------------------------------------------

    def _schedule(self, event: Event, delay: float) -> None:
        """Insert a triggered event into the calendar queue: the lane
        when it is due now, the heap otherwise.

        The single owner of negative-delay validation: every scheduling
        path that carries a delay (``Timeout``, ``succeed``/``fail`` and
        pooled trigger events with a non-zero delay) funnels through
        here; the zero-delay ones append to the lane themselves.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self._sequence += 1
        now = self._now
        time = now + delay
        if time == now:
            self._lane.append((self._sequence, event))
        else:
            heappush(self._heap, (time, PRIORITY_NORMAL, self._sequence, event))

    def _trigger_pooled(
        self,
        callback: Callable[[Event], None],
        value: Any,
        delay: float = 0.0,
        ok: bool = True,
        defused: bool = False,
    ) -> None:
        """Schedule a single-callback trigger event from the freelist.

        Kernel-internal fast path for events that (a) are born
        triggered, (b) carry exactly one callback, and (c) are retained
        by nobody — process kick-starts/relays/interrupt wakeups and
        network delivery timers.  The event is recycled right after its
        callbacks run, so the callback must not stash a reference.
        """
        pool = self._pool
        if pool:
            event = pool.pop()
            event._state = TRIGGERED
        else:
            event = _TriggerEvent(self)
        event._ok = ok
        event._value = value
        event.defused = defused
        event._callbacks = [callback]
        if delay:
            self._schedule(event, delay)
        else:
            self._sequence += 1
            self._lane.append((self._sequence, event))

    # -- retired timers (see module docstring) -------------------------------

    def _retire(self, event: Event) -> None:
        """Drop a scheduled timeout nobody waits on any more."""
        event._callbacks = None
        event._state = RETIRED
        self._retired += 1
        if self._retired * 2 > len(self._heap) + len(self._lane):
            self._compact()

    def _drop(self, time: float, seq: int, event: Event) -> None:
        """Forget a retired entry taken off the schedule, keeping its slot."""
        event._state = EVICTED
        event._key = (time, seq)  # type: ignore[attr-defined]
        self._retired -= 1

    def _compact(self) -> None:
        """Rebuild the heap without its retired entries (in place: the
        run() loop holds a reference to the list).  Lane entries stay."""
        heap = self._heap
        live = []
        for entry in heap:
            if entry[3]._state == RETIRED:
                self._drop(entry[0], entry[2], entry[3])
            else:
                live.append(entry)
        heap[:] = live
        heapify(heap)

    def _is_behind(self, event: Event) -> bool:
        """Whether the clock has passed a retired timer's slot."""
        if event._state == RETIRED:  # its entry is still queued ahead
            return False
        time, seq = event._key  # type: ignore[attr-defined]
        return time < self._now or (time == self._now and seq < self._seq_now)

    def _revive(self, event: Event) -> int:
        """Re-arm a retired timer that gained a waiter; returns its new
        state (TRIGGERED, or PROCESSED when its slot is already past)."""
        if event._state == RETIRED:
            self._retired -= 1
        elif self._is_behind(event):
            event._state = PROCESSED
            return PROCESSED
        else:
            time, seq = event._key  # type: ignore[attr-defined]
            heappush(self._heap, (time, PRIORITY_NORMAL, seq, event))
        event._state = TRIGGERED
        return TRIGGERED

    def stop(self) -> None:
        """Make the running ``run()`` return right after the current event.

        The remaining callbacks of the current event still run; the
        next pop is a heap sentinel that sorts before every other entry
        at this instant (the lane's too), reuses the current sequence
        number (so it consumes none) and is not counted in
        ``events_processed``.
        Meant for ``run()`` (``step()`` would surface the request as a
        :class:`StopSimulation`); a second request before the first is
        reached is a no-op.
        """
        if self._stop_entry is not None:
            return
        sentinel = Event(self, "stop")
        sentinel._state = TRIGGERED
        sentinel._callbacks = [self._halt]
        self._stop_entry = (self._now, _PRIORITY_STOP, self._seq_now, sentinel)
        heappush(self._heap, self._stop_entry)

    def _halt(self, _event: Event) -> None:
        self._stop_entry = None
        self.events_processed -= 1  # the sentinel is not an event
        raise StopSimulation()

    # -- factories -----------------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a fresh, untriggered event."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Wrap ``generator`` as a process and start it immediately."""
        return Process(self, generator, name=name)

    # -- execution -----------------------------------------------------------

    def _next_live(self) -> Optional[tuple[float, int, int, Event]]:
        """The next live entry in heap form (a lane entry is reported
        as ``(now, PRIORITY_NORMAL, sequence, event)``), dropping the
        retired entries ahead of it; ``None`` when idle."""
        heap = self._heap
        lane = self._lane
        while True:
            if heap and heap[0][0] <= self._now or not lane:
                if not heap:
                    return None
                entry = heap[0]
                if entry[3]._state == RETIRED:
                    heappop(heap)
                    self._drop(entry[0], entry[2], entry[3])
                    continue
                return entry
            seq, event = lane[0]
            if event._state == RETIRED:
                lane.popleft()
                self._drop(self._now, seq, event)
                continue
            return (self._now, PRIORITY_NORMAL, seq, event)

    def next_key(self) -> Optional[tuple[float, int, int]]:
        """``(time, priority, sequence)`` of the next live event, or
        ``None`` when idle (for differential tests and diagnostics)."""
        entry = self._next_live()
        return None if entry is None else entry[:3]

    def peek(self) -> float:
        """Time of the next live scheduled event, or ``inf`` when idle."""
        entry = self._next_live()
        return _INF if entry is None else entry[0]

    def step(self) -> None:
        """Process exactly one (live) event."""
        entry = self._next_live()
        if entry is None:
            raise SimulationError("step() on an empty schedule")
        heap = self._heap
        if heap and heap[0] is entry:
            heappop(heap)
        else:
            self._lane.popleft()
        time, _priority, seq, event = entry
        if time < self._now:
            raise SimulationError("event scheduled in the past")
        self._now = time
        self._seq_now = seq
        self.events_processed += 1
        event._run_callbacks()
        if not event._ok and not event.defused:
            # A failure nobody waited on: surface it instead of silently
            # swallowing a broken process.
            raise event._value
        if event._pooled and len(self._pool) < _POOL_MAX:
            self._pool.append(event)  # type: ignore[arg-type]

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run until the schedule drains, ``until`` time passes, or an
        ``until`` event triggers.

        Returns the value of the ``until`` event when one is given.
        """
        stop_event: Optional[Event] = None
        deadline = _INF
        if isinstance(until, Event):
            stop_event = until
            if stop_event._state > PROCESSED:
                self._revive(stop_event)
            if stop_event._state == PROCESSED:
                return stop_event.value
            stop_event.callbacks.append(self._stop_on_event)
        elif until is not None:
            deadline = float(until)
            if deadline < self._now:
                raise ValueError(f"until={deadline} is in the past (now={self._now})")

        # The loop below is step() inlined: locals for the queues and
        # their pops, Event._run_callbacks unrolled (no subclass
        # overrides it), counter flushed once in the finally.
        # Scheduling in the past is impossible through _schedule
        # (delay >= 0), so the defensive check step() keeps is skipped
        # here.  Retired entries are dropped as they surface, uncounted.
        # Pop rule (module docstring): a heap entry due by now, else the
        # lane, else the heap's top when it is within the deadline.
        heap = self._heap
        lane = self._lane
        popleft = lane.popleft
        pool = self._pool
        processed = 0
        try:
            while True:
                if heap and heap[0][0] <= self._now or not lane:
                    if not heap or heap[0][0] > deadline:
                        break
                    entry = heappop(heap)
                    event = entry[3]
                    if event._state == RETIRED:
                        self._drop(entry[0], entry[2], event)
                        continue
                    self._now = entry[0]
                    self._seq_now = entry[2]
                else:
                    seq, event = popleft()
                    if event._state == RETIRED:
                        self._drop(self._now, seq, event)
                        continue
                    self._seq_now = seq
                processed += 1
                event._state = PROCESSED
                callbacks = event._callbacks
                if callbacks is not None:
                    event._callbacks = None
                    for callback in callbacks:
                        callback(event)
                if not event._ok and not event.defused:
                    raise event._value
                if event._pooled and len(pool) < _POOL_MAX:
                    pool.append(event)  # type: ignore[arg-type]
        except StopSimulation as stop:
            return stop.value
        finally:
            self.events_processed += processed
            if self._stop_entry is not None:
                # Requested but never reached: the run ended otherwise.
                heap.remove(self._stop_entry)
                heapify(heap)
                self._stop_entry = None
            if stop_event is not None:
                cbs = stop_event._callbacks
                if cbs is not None and self._stop_on_event in cbs:
                    cbs.remove(self._stop_on_event)

        if stop_event is not None:
            if stop_event._state != PENDING:
                if not stop_event.ok:
                    raise stop_event.value
                return stop_event.value
            raise SimulationError(
                f"schedule drained at t={self._now} before {stop_event!r} triggered"
            )
        if deadline != _INF:
            # Everything scheduled so far at or before the deadline is
            # behind the clock now (the lane is empty).
            self._now = deadline
            self._seq_now = self._sequence
        return None

    @staticmethod
    def _stop_on_event(event: Event) -> None:
        if event._ok:
            raise StopSimulation(event._value)
        event.defused = True
        raise event._value

    # -- convenience ----------------------------------------------------------

    def run_all(self, processes: Iterable[Process]) -> list[Any]:
        """Run until all ``processes`` finish; return their values in order."""
        processes = list(processes)
        from repro.sim.events import AllOf

        self.run(until=AllOf(self, processes))
        return [p.value for p in processes]

    def call_at(self, time: float, func: Callable[[], None]) -> Event:
        """Invoke ``func`` at absolute virtual time ``time``."""
        if time < self._now:
            raise ValueError(f"call_at({time}) is in the past (now={self._now})")
        event = Timeout(self, time - self._now, name=f"call_at({time})")
        event.callbacks.append(lambda _e: func())
        return event
