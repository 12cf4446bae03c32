"""Unit tests for resources, stores and queues."""

import pytest

from repro.sim import PriorityResource, Queue, Resource, Simulator, Store


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_grants_immediately_when_free():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    grabbed = []

    def proc(sim):
        req = res.request()
        yield req
        grabbed.append(sim.now)
        res.release(req)

    sim.process(proc(sim))
    sim.run()
    assert grabbed == [0.0]


def test_resource_serializes_users_fifo():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def proc(sim, tag, hold):
        req = res.request()
        yield req
        order.append((tag, sim.now))
        yield sim.timeout(hold)
        res.release(req)

    sim.process(proc(sim, "a", 2.0))
    sim.process(proc(sim, "b", 1.0))
    sim.process(proc(sim, "c", 1.0))
    sim.run()
    assert order == [("a", 0.0), ("b", 2.0), ("c", 3.0)]


def test_resource_capacity_two_allows_parallelism():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    order = []

    def proc(sim, tag):
        req = res.request()
        yield req
        order.append((tag, sim.now))
        yield sim.timeout(1.0)
        res.release(req)

    for tag in "abc":
        sim.process(proc(sim, tag))
    sim.run()
    assert order == [("a", 0.0), ("b", 0.0), ("c", 1.0)]


def test_resource_context_manager_releases():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def proc(sim, tag):
        with res.request() as req:
            yield req
            order.append((tag, sim.now))
            yield sim.timeout(1.0)

    sim.process(proc(sim, "a"))
    sim.process(proc(sim, "b"))
    sim.run()
    assert order == [("a", 0.0), ("b", 1.0)]


def test_resource_cancel_waiting_request():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def holder(sim):
        req = res.request()
        yield req
        yield sim.timeout(5.0)
        res.release(req)

    def impatient(sim):
        req = res.request()
        yield sim.timeout(1.0)
        req.cancel()
        order.append("gave up")

    def patient(sim):
        req = res.request()
        yield req
        order.append(("patient", sim.now))
        res.release(req)

    sim.process(holder(sim))
    sim.process(impatient(sim))
    sim.process(patient(sim))
    sim.run()
    assert order == ["gave up", ("patient", 5.0)]


def test_resource_introspection():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def holder(sim):
        req = res.request()
        yield req
        yield sim.timeout(2.0)
        res.release(req)

    def waiter(sim):
        req = res.request()
        yield req
        res.release(req)

    sim.process(holder(sim))
    sim.process(waiter(sim))
    sim.run(until=1.0)
    assert res.in_use == 1
    assert res.queue_length == 1
    sim.run()
    assert res.in_use == 0
    assert res.queue_length == 0


def test_priority_resource_orders_by_priority():
    sim = Simulator()
    res = PriorityResource(sim, capacity=1)
    order = []

    def holder(sim):
        req = res.request()
        yield req
        yield sim.timeout(1.0)
        res.release(req)

    def proc(sim, tag, prio):
        yield sim.timeout(0.1)
        req = res.request(priority=prio)
        yield req
        order.append(tag)
        res.release(req)

    sim.process(holder(sim))
    sim.process(proc(sim, "low", 10))
    sim.process(proc(sim, "high", 1))
    sim.run()
    assert order == ["high", "low"]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim):
        item = yield store.get()
        got.append((item, sim.now))

    def producer(sim):
        yield sim.timeout(2.0)
        store.put("x")

    sim.process(consumer(sim))
    sim.process(producer(sim))
    sim.run()
    assert got == [("x", 2.0)]


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    store.put(1)
    store.put(2)
    got = []

    def consumer(sim):
        got.append((yield store.get()))
        got.append((yield store.get()))

    sim.process(consumer(sim))
    sim.run()
    assert got == [1, 2]


def test_store_predicate_filters_items():
    sim = Simulator()
    store = Store(sim)
    store.put("skip")
    store.put("take")
    got = []

    def consumer(sim):
        item = yield store.get(lambda x: x == "take")
        got.append(item)

    sim.process(consumer(sim))
    sim.run()
    assert got == ["take"]
    assert list(store.items) == ["skip"]


def test_store_multiple_getters_served_in_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim, tag):
        item = yield store.get()
        got.append((tag, item))

    sim.process(consumer(sim, "first"))
    sim.process(consumer(sim, "second"))
    store.put("a")
    store.put("b")
    sim.run()
    assert got == [("first", "a"), ("second", "b")]


def test_queue_send_receive_aliases():
    sim = Simulator()
    q = Queue(sim)
    got = []

    def consumer(sim):
        got.append((yield q.receive()))

    sim.process(consumer(sim))
    q.send("msg")
    sim.run()
    assert got == ["msg"]


def test_store_len():
    sim = Simulator()
    store = Store(sim)
    assert len(store) == 0
    store.put(1)
    store.put(2)
    assert len(store) == 2


# -- Store._dispatch fast paths: each must equal the general first-match scan --


def test_store_lone_filtered_getter_takes_matching_head():
    sim = Simulator()
    store = Store(sim)
    store.put("a1")
    store.put("a2")
    got = store.get(lambda x: x.startswith("a"))
    sim.run()
    assert got.value == "a1"
    assert list(store.items) == ["a2"]


def test_store_lone_filtered_getter_skips_unmatched_head():
    sim = Simulator()
    store = Store(sim)
    got = store.get(lambda x: x == "b")
    store.put("a")  # head does not match: stays queued
    assert not got.triggered
    store.put("b")
    store.put("c")
    sim.run()
    assert got.value == "b"
    assert list(store.items) == ["a", "c"]


def test_store_two_filtered_getters_keep_scan_order():
    sim = Simulator()
    store = Store(sim)
    wants_b = store.get(lambda x: x.startswith("b"))
    wants_a = store.get(lambda x: x.startswith("a"))
    either_1 = store.get(lambda x: x.endswith("1"))
    store.put("a1")  # the first getter skips it; the second takes it
    store.put("b1")  # the first getter (registered first) wins over the third
    store.put("c1")
    sim.run()
    assert (wants_b.value, wants_a.value, either_1.value) == ("b1", "a1", "c1")
    assert not store.items


def test_store_cancelled_head_getter_is_dropped():
    sim = Simulator()
    store = Store(sim)
    cancelled = store.get(lambda x: True)
    cancelled.succeed(None)  # withdrawn, as a timed-out receive does
    waiting = store.get(lambda x: x == "k")
    store.put("k")
    sim.run()
    assert cancelled.value is None
    assert waiting.value == "k"
    assert not store._getters and not store.items


def test_store_cancelled_lone_getter_leaves_the_item():
    sim = Simulator()
    store = Store(sim)
    store.get().succeed(None)
    store.put("kept")
    assert list(store.items) == ["kept"]
    assert not store._getters
