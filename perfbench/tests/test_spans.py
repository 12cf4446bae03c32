"""Span arithmetic, traced generators and wrapper removal."""

import types

import pytest

from perfbench.spans import (
    WRAPPED,
    Patcher,
    SpanRecorder,
    Target,
    leftover_wrappers,
    self_times,
    traced_generator,
)

LAYERS = ("a", "b", "c")


def test_self_time_subtracts_direct_children_only():
    # root a [0, 10] -> b [1, 4] -> c [2, 3];  root a -> c [5, 9];  a [11, 12]
    layer = [0, 1, 2, 2, 0]
    parent = [-1, 0, 1, 0, -1]
    start = [0.0, 1.0, 2.0, 5.0, 11.0]
    end = [10.0, 4.0, 3.0, 9.0, 12.0]
    a, b, c = self_times(layer, parent, start, end, 3)
    assert a == pytest.approx((10 - 3 - 4) + 1)
    assert b == pytest.approx(3 - 1)
    assert c == pytest.approx(1 + 4)
    # Self times partition the top-level span time exactly.
    assert a + b + c == pytest.approx(10 + 1)


def test_same_layer_nesting_is_not_double_counted():
    layer = [0, 0, 0]
    parent = [-1, 0, 1]
    start = [0.0, 2.0, 3.0]
    end = [8.0, 6.0, 4.0]
    assert self_times(layer, parent, start, end, 1) == [pytest.approx(8.0)]


def test_recorder_links_parents_and_unwinds():
    rec = SpanRecorder(LAYERS)
    outer = rec.enter(0)
    inner = rec.enter(1)
    rec.exit(inner)
    rec.exit(outer)
    sibling = rec.enter(2)
    rec.exit(sibling)
    assert list(rec.parent) == [-1, outer, -1]
    assert rec.depth == 0
    assert all(e >= s for s, e in zip(rec.start, rec.end))


def _echo():
    total = 0
    while True:
        try:
            got = yield total
        except KeyError:
            total = -1
            continue
        if got is None:
            return total
        total += got


def test_traced_generator_is_transparent_per_resume():
    rec = SpanRecorder(LAYERS)
    gen = traced_generator(_echo(), 0, rec)
    assert next(gen) == 0
    assert gen.send(2) == 2
    assert gen.throw(KeyError("x")) == -1
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    assert stop.value.value == -1
    # One span per resume step: first next, send, throw, final send.
    assert len(rec) == 4
    assert rec.depth == 0


def test_yield_from_chain_nests_spans():
    rec = SpanRecorder(LAYERS)

    def child():
        yield "c"
        return "done"

    def parent():
        result = yield from traced_generator(child(), 2, rec)
        yield result

    gen = traced_generator(parent(), 1, rec)
    assert next(gen) == "c"
    assert next(gen) == "done"
    assert [rec.layer[i] for i in range(len(rec))] == [1, 2, 1, 2]
    assert rec.parent[1] == 0 and rec.parent[3] == 2


def test_close_reaches_the_inner_generator():
    rec = SpanRecorder(LAYERS)
    closed = []

    def body():
        try:
            yield 1
        finally:
            closed.append(True)

    gen = traced_generator(body(), 0, rec)
    next(gen)
    gen.close()
    assert closed == [True]


def test_patcher_restores_class_and_module_bindings(monkeypatch):
    module = types.ModuleType("repro_fake")
    other = types.ModuleType("repro_fake.user")

    def helper(x):
        return x + 1

    class Thing:
        def method(self):
            return "m"

        @staticmethod
        def static(x):
            return x * 2

    module.helper = helper
    other.helper = helper  # a ``from repro_fake import helper`` binding
    monkeypatch.setitem(__import__("sys").modules, "repro_fake", module)
    monkeypatch.setitem(__import__("sys").modules, "repro_fake.user", other)

    rec = SpanRecorder(LAYERS)
    patcher = Patcher(rec, module_prefix="repro_fake")
    patcher.install([
        Target("a", module, "helper"),
        Target("b", Thing, "method"),
        Target("c", Thing, "static"),
    ])
    assert getattr(other.helper, WRAPPED) is helper
    assert other.helper(1) == 2 and Thing().method() == "m" and Thing.static(3) == 6
    assert patcher.stats["repro_fake.helper"].calls == 1
    assert len(rec) == 3

    patcher.uninstall()
    assert module.helper is helper and other.helper is helper
    assert vars(Thing)["method"].__name__ == "method"
    assert not hasattr(vars(Thing)["method"], WRAPPED)
    assert not hasattr(vars(Thing)["static"].__func__, WRAPPED)
    assert leftover_wrappers("repro_fake") == []
