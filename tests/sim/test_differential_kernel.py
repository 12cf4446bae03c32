"""Differential testing: optimized kernel vs the frozen reference.

The optimized ``repro.sim`` kernel retires *dead timers*: a timeout
whose every waiter is a condition that has already resolved (the
losing deadline of an ``AnyOf``).  The frozen pre-overhaul reference
kernel (``reference_kernel.py``) still pops and dispatches them.  The
contract checked here, on hundreds of seeded random schedules (timeout
storms, already-processed relays, AllOf/AnyOf fan-ins, caught failures,
cross-process waits, interrupts, re-armed deadlines):

* every reference pop that is *not* a dead timer happens in the
  optimized kernel at exactly the same ``(time, priority, sequence)``,
  in the same order, and no other pop happens;
* every process finishes with exactly the same return value;
* ``events_processed`` is the reference count minus the dead pops, and
  ``now`` ends at the last live pop;
* the inlined ``run()`` loop agrees with a ``step()``-wise drive.

The same-instant programs aim at the kernel's lane of zero-delay
entries: heap entries due at an instant racing zero-delay chains
created at that instant, zero-delay timers retired (and re-armed) in
the lane, compaction while retired entries wait in the lane, and
``stop()`` requested with lane entries pending before ``run()`` resumes.

A dead pop is classified on the reference side, at pop time: a
``RefTimeout`` that has callbacks, every one of them the trigger hook
of a condition that has already triggered.

If this test fails, a hot-path "optimization" changed event ordering:
that is a semantic change, never a cleanup.
"""

from __future__ import annotations

import random
from typing import Any

import pytest

from repro.sim import AllOf, AnyOf, Interrupt, Simulator
from repro.sim.events import RETIRED
from tests.sim.reference_kernel import (
    RefAllOf,
    RefAnyOf,
    RefCondition,
    RefInterrupt,
    RefSimulator,
    RefTimeout,
)

N_SCHEDULES = 200
N_STORMS = 40
N_INSTANTS = 60
N_LANE_STORMS = 20
N_STOPS = 30

# -- program generation -------------------------------------------------------
#
# A program spec is pure data (nested tuples/lists), generated once per
# seed and interpreted against both kernels — sharing the spec, not the
# RNG, guarantees the two kernels see the same program.


def make_program(rng: random.Random) -> list[list[tuple]]:
    """Random per-process op lists.  Delays are exact binary fractions
    scaled by small ints, so float arithmetic is bit-stable."""

    def delay() -> float:
        return rng.randrange(1, 64) * 0.0009765625  # k / 1024

    n_procs = rng.randrange(2, 7)
    program: list[list[tuple]] = []
    for i in range(n_procs):
        ops: list[tuple] = []
        for _ in range(rng.randrange(3, 9)):
            kind = rng.randrange(8)
            if kind <= 2:
                ops.append(("timeout", delay(), rng.randrange(1000)))
            elif kind == 3:
                # Yield an immediately-succeeded (triggered, not yet
                # processed) event.
                ops.append(("ready", rng.randrange(1000)))
            elif kind == 4:
                # Yield an event that is already *processed* — the
                # relay fast path.
                ops.append(("stale", delay(), rng.randrange(1000)))
            elif kind == 5:
                n = rng.randrange(2, 5)
                which = rng.choice(("allof", "anyof"))
                ops.append((which, [delay() for _ in range(n)]))
            elif kind == 6:
                # A failure the process catches (defused by _resume).
                ops.append(("fail_caught", delay()))
            else:
                # Wait on a peer process (may already be finished).
                ops.append(("wait_peer", rng.randrange(n_procs)))
        program.append(ops)
    # Sometimes add an interrupter poking a random worker mid-flight.
    if rng.random() < 0.5:
        program.append([("interrupt", rng.randrange(n_procs), delay())])
    return program


def make_storm_program(rng: random.Random) -> list[list[tuple]]:
    """Timer storms: many processes racing short timers against long
    deadlines, so retired entries pile up past half the heap (forcing
    compaction), plus re-armed deadlines that may be ahead of or
    behind the clock when they gain a waiter again."""

    def short() -> float:
        return rng.randrange(1, 16) * 0.0009765625

    def long() -> float:
        return rng.randrange(32, 2048) * 0.0009765625

    program: list[list[tuple]] = []
    for _ in range(rng.randrange(8, 24)):
        ops: list[tuple] = []
        for _ in range(rng.randrange(1, 4)):
            kind = rng.randrange(4)
            if kind <= 1:
                ops.append(("storm", [(short(), long()) for _ in range(rng.randrange(3, 12))]))
            elif kind == 2:
                # The pause is often long enough to pass the deadline.
                pause = rng.randrange(0, 3) * 0.5
                ops.append(("shared_deadline", long(), [short() for _ in range(3)], pause))
            else:
                ops.append(("rearm_append", long(), short()))
        program.append(ops)
    return program


def make_instant_program(rng: random.Random, stops: bool = False) -> list[list[tuple]]:
    """Same-instant programs: a coarse delay grid makes heap entries of
    several processes coincide, and each process waking at an instant
    creates zero-delay chains, children and retired zero-delay timers
    there.  ``stops`` adds ``stop()`` requests (the first process always
    makes one first thing, before any wait that could deadlock)."""

    def coarse() -> float:
        return rng.randrange(1, 4) * 0.0009765625

    n_procs = rng.randrange(3, 9)
    program: list[list[tuple]] = []
    for _ in range(n_procs):
        ops: list[tuple] = []
        for _ in range(rng.randrange(2, 7)):
            kind = rng.randrange(8 if stops else 7)
            if kind <= 1:
                ops.append(("timeout", coarse(), rng.randrange(1000)))
            elif kind == 2:
                ops.append(("zero_chain", rng.randrange(1, 5)))
            elif kind == 3:
                ops.append(("spawn_zero", rng.randrange(1, 4)))
            elif kind == 4:
                ops.append(("zero_rearm", rng.random() < 0.5))
            elif kind == 5:
                ops.append(("zero_storm", [coarse() for _ in range(rng.randrange(1, 4))]))
            elif kind == 6:
                ops.append(("wait_peer", rng.randrange(n_procs)))
            else:
                ops.append(("stop",))
        program.append(ops)
    if stops:
        program[0].insert(0, ("stop",))
    return program


def make_lane_storm_program(rng: random.Random) -> list[list[tuple]]:
    """Timer storms whose losers include zero-delay timers, so retired
    entries wait in the lane while compaction runs."""

    def long() -> float:
        return rng.randrange(32, 2048) * 0.0009765625

    program: list[list[tuple]] = []
    for _ in range(rng.randrange(8, 24)):
        ops: list[tuple] = []
        for _ in range(rng.randrange(1, 4)):
            ops.append(("zero_storm", [long() for _ in range(rng.randrange(3, 12))]))
            ops.append(("timeout", rng.randrange(1, 4) * 0.0009765625, 0))
        program.append(ops)
    return program


def build(sim: Any, api: dict[str, Any], program: list[list[tuple]]) -> list[Any]:
    """Instantiate ``program`` against a kernel; returns the processes.
    ``api["stop"]`` (optional) serves the ``stop`` op."""
    allof, anyof, interrupt_exc = api["AllOf"], api["AnyOf"], api["Interrupt"]
    stop = api.get("stop", lambda: None)
    procs: list[Any] = []

    def worker(ops: list[tuple]):
        digest: list[Any] = []
        for op in ops:
            try:
                if op[0] == "timeout":
                    digest.append((yield sim.timeout(op[1], op[2])))
                elif op[0] == "ready":
                    event = sim.event()
                    event.succeed(op[1])
                    digest.append((yield event))
                elif op[0] == "stale":
                    event = sim.event()
                    event.succeed(op[2])
                    yield sim.timeout(op[1])
                    digest.append((yield event))
                elif op[0] in ("allof", "anyof"):
                    cond = allof if op[0] == "allof" else anyof
                    result = yield cond(sim, [sim.timeout(d, j) for j, d in enumerate(op[1])])
                    digest.append(sorted(result.values()))
                elif op[0] == "fail_caught":
                    event = sim.event()
                    event.fail(RuntimeError("boom"), delay=op[1])
                    # Pre-defused: if an interrupt detaches us before the
                    # failure fires, the orphaned failure must not crash
                    # the kernel (identically in both implementations).
                    event.defused = True
                    try:
                        yield event
                    except RuntimeError as exc:
                        digest.append(str(exc))
                elif op[0] == "wait_peer":
                    target = procs[op[1]]
                    if target is not None:
                        digest.append((yield target))
                elif op[0] == "interrupt":
                    yield sim.timeout(op[2])
                    procs[op[1]].interrupt("poke")
                    digest.append("poked")
                elif op[0] == "storm":
                    # Race short timers against long deadlines that lose.
                    for short, long in op[1]:
                        result = yield anyof(sim, [sim.timeout(short, 1), sim.timeout(long, 2)])
                        digest.append(sorted(result.values()))
                elif op[0] == "shared_deadline":
                    # One deadline raced in several rounds (retired and
                    # re-armed each round), then waited on directly
                    # after a pause that may carry the clock past it.
                    _, long, shorts, pause = op
                    deadline = sim.timeout(long, "deadline")
                    for short in shorts:
                        result = yield anyof(sim, [sim.timeout(short, "tick"), deadline])
                        digest.append(sorted(map(str, result.values())))
                    yield sim.timeout(pause)
                    digest.append((yield deadline))
                elif op[0] == "anyof_after_stale":
                    # A condition that resolves while being built (on an
                    # already-processed event): its fresh deadline is
                    # dead from the start.
                    event = sim.event()
                    event.succeed("stale")
                    yield event
                    result = yield anyof(sim, [event, sim.timeout(op[1], "late")])
                    digest.append(sorted(map(str, result.values())))
                elif op[0] == "rearm_append":
                    # Re-arm a retired deadline through callbacks.append.
                    _, long, short = op
                    deadline = sim.timeout(long, "late")
                    yield anyof(sim, [sim.timeout(short), deadline])
                    seen: list[Any] = []
                    deadline.callbacks.append(lambda e: seen.append(e.value))
                    yield sim.timeout(long)
                    digest.append(list(seen))
                elif op[0] == "zero_chain":
                    # Zero-delay timeouts and ready events: all due now.
                    for j in range(op[1]):
                        if j % 2:
                            event = sim.event()
                            event.succeed(j)
                            digest.append(((yield event), sim.now))
                        else:
                            digest.append(((yield sim.timeout(0.0, j)), sim.now))
                elif op[0] == "spawn_zero":
                    child = sim.process(worker([("zero_chain", op[1])]), name="child")
                    digest.append((yield child))
                elif op[0] == "zero_rearm":
                    # A zero-delay timer loses to an earlier ready event
                    # and is retired in the lane; with op[1] a later
                    # callback of the winner re-arms it while it is still
                    # queued, otherwise yielding it re-arms it after it
                    # was dropped (as already processed).
                    event = sim.event()
                    event.succeed("ready")
                    zero = sim.timeout(0.0, "zero")
                    seen = []
                    cond = anyof(sim, [event, zero])
                    if op[1]:
                        event.callbacks.append(
                            lambda _e, z=zero, s=seen: z.callbacks.append(
                                lambda t: s.append(t.value)
                            )
                        )
                    result = yield cond
                    digest.append(sorted(map(str, result.values())))
                    digest.append(((yield zero), sim.now))
                    digest.append(list(seen))
                elif op[0] == "zero_storm":
                    # Per round, a zero-delay and a long timer both lose.
                    for long in op[1]:
                        event = sim.event()
                        event.succeed("ready")
                        result = yield anyof(
                            sim, [event, sim.timeout(0.0, "zero"), sim.timeout(long, "late")]
                        )
                        digest.append(sorted(map(str, result.values())))
                elif op[0] == "stop":
                    event = sim.event()
                    event.succeed("after-stop")
                    stop()
                    digest.append(((yield event), sim.now))
            except interrupt_exc as exc:
                digest.append(("interrupted", str(exc.cause)))
        return digest

    for i, ops in enumerate(program):
        procs.append(None)
        procs[i] = sim.process(worker(ops), name=f"w{i}")
    return procs


# -- the differential run -----------------------------------------------------


def outcomes(procs: list[Any]) -> list[Any]:
    # Self- or circular waits deadlock (identically in both kernels):
    # such processes stay pending and have no value.
    return [p.value if p.triggered else "pending" for p in procs]


def is_dead_timer(event: Any) -> bool:
    """A reference timeout only resolved conditions still wait on."""
    return (
        isinstance(event, RefTimeout)
        and bool(event.callbacks)
        and all(
            isinstance(getattr(cb, "__self__", None), RefCondition) and cb.__self__.triggered
            for cb in event.callbacks
        )
    )


def run_reference(program: list[list[tuple]]):
    """Drive the reference one step() at a time; returns the live pops,
    outcomes, the time of the last live pop, the reference's own event
    count and the number of dead-timer pops."""
    sim = RefSimulator()
    api = {"AllOf": RefAllOf, "AnyOf": RefAnyOf, "Interrupt": RefInterrupt}
    procs = build(sim, api, program)
    live_log: list[tuple[float, int, int]] = []
    dead = 0
    while sim._heap:
        time, priority, seq, event = sim._heap[0]
        if is_dead_timer(event):
            dead += 1
        else:
            live_log.append((time, priority, seq))
        sim.step()
    last_live = live_log[-1][0] if live_log else 0.0
    return live_log, outcomes(procs), last_live, sim.events_processed, dead


def run_optimized_stepwise(program: list[list[tuple]]):
    """Drive the optimized kernel one step() at a time, logging pops."""
    sim = Simulator()
    api = {"AllOf": AllOf, "AnyOf": AnyOf, "Interrupt": Interrupt}
    procs = build(sim, api, program)
    pop_log: list[tuple[float, int, int]] = []
    while (key := sim.next_key()) is not None:
        pop_log.append(key)
        sim.step()
    return pop_log, outcomes(procs), sim.now, sim.events_processed


def run_optimized_inline(program: list[list[tuple]]):
    """Drive the optimized kernel through the inlined run() loop."""
    sim = Simulator()
    api = {"AllOf": AllOf, "AnyOf": AnyOf, "Interrupt": Interrupt}
    procs = build(sim, api, program)
    sim.run()
    return outcomes(procs), sim.now, sim.events_processed


def run_optimized_resumed(program: list[list[tuple]]):
    """Drive the optimized kernel through run(), resumed after every
    ``stop()``; also returns the runs made and the lane's length at each
    stop request."""
    sim = Simulator()
    lane_at_stop: list[int] = []

    def stop() -> None:
        lane_at_stop.append(len(sim._lane))
        sim.stop()

    api = {"AllOf": AllOf, "AnyOf": AnyOf, "Interrupt": Interrupt, "stop": stop}
    procs = build(sim, api, program)
    runs = 0
    while sim.peek() != float("inf"):
        sim.run()
        runs += 1
    return outcomes(procs), sim.now, sim.events_processed, runs, lane_at_stop


def assert_matches_reference(program: list[list[tuple]], label: str) -> int:
    """The retirement contract for one program; returns the dead pops."""
    ref_log, ref_values, ref_now, ref_count, dead = run_reference(program)
    opt_log, opt_values, opt_now, opt_count = run_optimized_stepwise(program)

    assert opt_log == ref_log, f"live pop order diverged ({label})"
    assert opt_values == ref_values, f"process outcomes diverged ({label})"
    assert opt_now == ref_now, f"clock after the last live pop diverged ({label})"
    assert opt_count == ref_count - dead == len(ref_log)

    # The inlined run() loop must agree with its own step()-wise drive.
    inl_values, inl_now, inl_count = run_optimized_inline(program)
    assert inl_values == opt_values
    assert inl_now == opt_now
    assert inl_count == opt_count
    return dead


@pytest.mark.parametrize("seed", range(N_SCHEDULES))
def test_differential_schedules(seed):
    assert_matches_reference(make_program(random.Random(seed)), f"seed {seed}")


@pytest.mark.parametrize("seed", range(N_STORMS))
def test_differential_timer_storms(seed):
    dead = assert_matches_reference(make_storm_program(random.Random(seed)), f"storm {seed}")
    assert dead > 0


def test_timer_storms_force_compaction(monkeypatch):
    """Meta-check: the storm programs really pile retired entries past
    half the heap, in both drives."""
    calls = {"n": 0}
    real = Simulator._compact

    def counting(self):
        calls["n"] += 1
        real(self)

    monkeypatch.setattr(Simulator, "_compact", counting)
    program = make_storm_program(random.Random(0))
    run_optimized_stepwise(program)
    stepped = calls["n"]
    run_optimized_inline(program)
    assert stepped > 0 and calls["n"] > stepped


def test_retired_timer_rearms_ahead_and_behind_the_clock():
    """A deadline retired by a lost race, re-armed by yielding it: once
    while its slot is still ahead (it then fires at its own time), and
    once after the clock passed it at the same instant but a later
    sequence number (it then behaves as already processed)."""

    def program(sim: Any, anyof: Any, log: list) -> Any:
        ahead = sim.timeout(1.0, "ahead")
        yield anyof(sim, [sim.timeout(0.25), ahead])
        log.append(("ahead", (yield ahead), sim.now))
        behind = sim.timeout(1.0, "behind")  # due at 2.0
        yield anyof(sim, [sim.timeout(0.25), behind])
        yield sim.timeout(0.75)  # wakes at 2.0, after `behind`'s slot
        log.append(("behind", (yield behind), sim.now))

    results = []
    for sim, anyof in ((RefSimulator(), RefAnyOf), (Simulator(), AnyOf)):
        log: list = []
        sim.process(program(sim, anyof, log))
        sim.run()
        results.append((log, sim.now))
    assert results[0] == results[1]
    assert results[1][0] == [("ahead", "ahead", 1.0), ("behind", "behind", 2.0)]


def test_condition_resolved_while_built_retires_its_fresh_deadline():
    program = [[("anyof_after_stale", 0.5)], [("timeout", 0.25, 7)]]
    assert assert_matches_reference(program, "resolved while built") == 1


def test_retired_timer_is_not_counted_and_keeps_the_clock():
    sim = Simulator()
    loser = sim.timeout(5.0)

    def racer():
        yield AnyOf(sim, [sim.timeout(1.0), loser])

    sim.process(racer())
    sim.run()
    assert sim.now == 1.0  # the dead 5.0 deadline never advanced the clock
    # kick-start, the winning timer, the condition and the process end
    assert sim.events_processed == 4
    assert loser.triggered and not loser.processed
    sim.run(until=6.0)
    assert loser.processed  # the clock has now passed its slot


def test_differential_pop_log_nonempty():
    """Meta-check: the generator actually produces work."""
    program = make_program(random.Random(0))
    ref_log, _, _, count, dead = run_reference(program)
    assert len(ref_log) == count - dead > 0


# -- the same-instant lane ------------------------------------------------------


@pytest.mark.parametrize("seed", range(N_INSTANTS))
def test_differential_same_instant(seed):
    assert_matches_reference(make_instant_program(random.Random(seed)), f"instant {seed}")


def test_same_instant_programs_race_heap_and_lane():
    """Meta-check: the same-instant programs really have heap entries
    due at an instant while zero-delay entries created at that instant
    wait in the lane, and retire zero-delay timers in the lane."""
    races = retired_in_lane = 0
    for seed in range(N_INSTANTS):
        sim = Simulator()
        api = {"AllOf": AllOf, "AnyOf": AnyOf, "Interrupt": Interrupt}
        build(sim, api, make_instant_program(random.Random(seed)))
        while sim.next_key() is not None:
            if sim._lane and sim._heap and sim._heap[0][0] == sim.now:
                races += 1
            sim.step()
            retired_in_lane += sum(1 for _, e in sim._lane if e._state == RETIRED)
    assert races > 0 and retired_in_lane > 0


@pytest.mark.parametrize("seed", range(N_LANE_STORMS))
def test_differential_lane_storms(seed):
    program = make_lane_storm_program(random.Random(seed))
    assert assert_matches_reference(program, f"lane storm {seed}") > 0


def test_compaction_keeps_lane_entries(monkeypatch):
    """Compaction runs while retired entries wait in the lane, and
    leaves the lane as it was, in both drives."""
    lanes: list[tuple[int, int]] = []
    real = Simulator._compact

    def recording(self):
        before = list(self._lane)
        real(self)
        assert list(self._lane) == before
        lanes.append((len(before), sum(1 for _, e in before if e._state == RETIRED)))

    monkeypatch.setattr(Simulator, "_compact", recording)
    program = make_lane_storm_program(random.Random(0))
    run_optimized_stepwise(program)
    run_optimized_inline(program)
    assert any(retired > 0 for _, retired in lanes)
    assert all(length > 0 for length, _ in lanes)


@pytest.mark.parametrize("seed", range(N_STOPS))
def test_stop_with_lane_pending_then_resumed(seed):
    """stop() with zero-delay entries still in the lane ends run() at
    the sentinel; resuming run() finishes exactly as the reference
    (which has no stop) does, with the sentinels uncounted."""
    program = make_instant_program(random.Random(seed), stops=True)
    _, ref_values, ref_now, ref_count, dead = run_reference(program)
    values, now, count, runs, lane_at_stop = run_optimized_resumed(program)
    assert values == ref_values
    assert now == ref_now
    assert count == ref_count - dead
    assert lane_at_stop and all(length > 0 for length in lane_at_stop)
    assert runs >= 2


def test_evicted_lane_entry_rearmed_ahead_returns_to_the_heap():
    """peek() drops a retired zero-delay timer from the front of the
    lane; re-armed before the clock passes its slot, it goes back onto
    the heap and still fires before the lane entries behind it."""
    results = []
    for sim, anyof in ((RefSimulator(), RefAnyOf), (Simulator(), AnyOf)):
        log: list[str] = []
        ready = sim.event()
        ready.succeed()
        zero = sim.timeout(0.0, "zero")
        anyof(sim, [ready, zero])
        after = sim.event()
        after.succeed()
        after.callbacks.append(lambda _e, log=log: log.append("after"))
        sim.step()  # ready: the condition resolves and zero loses
        assert sim.peek() == 0.0
        zero.callbacks.append(lambda e, log=log: log.append(e.value))
        sim.run()
        results.append(log)
    assert results[0] == results[1] == ["zero", "after"]
