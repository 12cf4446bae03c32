"""``OpPlan.describe`` / ``OpPlan.from_description`` round trips.

Redo recovery (1PC's REDO record, LGL's replicated BEGIN) rebuilds the
plan from its description, so every plan builder's output must survive
the trip unchanged.
"""

import inspect

import pytest

from repro.fs import operations
from repro.fs.operations import InodeAllocator, OpPlan, lock_targets
from repro.fs.placement import HashPlacement

NODES = ["mds1", "mds2", "mds3", "mds4"]


def _builders():
    placement = HashPlacement(NODES)
    alloc = InodeAllocator()
    return {
        "plan_create": lambda: operations.plan_create("/a/f", placement, alloc),
        "plan_mkdir": lambda: operations.plan_mkdir("/a/d", placement, alloc),
        "plan_rmdir": lambda: operations.plan_rmdir("/a/d", 77, placement),
        "plan_delete": lambda: operations.plan_delete("/a/f", 78, placement),
        "plan_link": lambda: operations.plan_link("/a/f", "/b/g", 78, placement),
        "plan_migrate": lambda: operations.plan_migrate(
            "/a", {"x": 5, "y": 6}, "mds1", "mds3"
        ),
        "plan_rename": lambda: operations.plan_rename(
            "/a/f", "/b/g", 78, placement, replaced_ino=79
        ),
    }


def test_every_plan_builder_is_covered():
    builders = {
        name
        for name, fn in inspect.getmembers(operations, inspect.isfunction)
        if name.startswith("plan_")
    }
    assert builders == set(_builders())


@pytest.mark.parametrize("builder", sorted(_builders()))
def test_description_round_trips(builder):
    plan = _builders()[builder]()
    rebuilt = OpPlan.from_description(plan.describe())
    assert rebuilt == plan
    assert rebuilt.describe() == plan.describe()


@pytest.mark.parametrize("builder", sorted(_builders()))
def test_plan_locks_use_the_shared_lock_order(builder):
    plan = _builders()[builder]()
    for node, updates in plan.updates.items():
        assert plan.locks(node) == lock_targets(updates)
