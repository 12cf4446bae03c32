"""Cluster.run_until_outcomes: the one run()-driven cell driver."""

from __future__ import annotations

import json

import pytest

from repro.exec import RunSpec, execute_spec
from repro.harness.scenarios import burst_cluster
from repro.mds.cluster import Cluster, OutcomeStall


def _step_loop(self: Cluster, count: int, budget: float = 3600.0) -> None:
    """The drive the helper replaced: one step() at a time."""
    while len(self.outcomes) < count:
        self.sim.step()


def _submitted_burst(n: int, heartbeats: bool = False) -> Cluster:
    cluster = Cluster(protocol="1PC", heartbeats=heartbeats, trace=False)
    cluster.mkdir("/dir1", owner="mds1")
    client = cluster.new_client()
    for i in range(n):
        client.submit(client.plan_create(f"/dir1/f{i}"))
    return cluster


def test_stops_right_after_the_counted_outcome():
    # Same stopping point as the step loop: same clock, same events
    # processed, same outcomes, nothing extra run.
    stepped, _ = burst_cluster("PrN")
    ran, _ = burst_cluster("PrN")
    for cluster in (stepped, ran):
        client = cluster.new_client()
        for i in range(12):
            client.submit(client.plan_create(f"/dir1/f{i}"))
    _step_loop(stepped, 7)
    ran.run_until_outcomes(7)
    assert len(ran.outcomes) == 7
    assert ran.sim.now == stepped.sim.now
    assert ran.sim.events_processed == stepped.sim.events_processed
    assert [o.txn_id for o in ran.outcomes] == [o.txn_id for o in stepped.outcomes]
    # The remaining transactions still finish afterwards.
    ran.run_until_outcomes(12)
    assert len(ran.outcomes) == 12


def test_already_reached_count_runs_nothing():
    cluster = _submitted_burst(2)
    cluster.run_until_outcomes(2)
    events = cluster.sim.events_processed
    cluster.run_until_outcomes(1)
    cluster.run_until_outcomes(2)
    assert cluster.sim.events_processed == events


@pytest.mark.parametrize("heartbeats", [False, True])
def test_asking_for_more_outcomes_than_submitted_stalls(heartbeats):
    # Without heartbeats the schedule drains; with them it never does
    # and the virtual-time budget ends the run instead.
    cluster = _submitted_burst(3, heartbeats=heartbeats)
    with pytest.raises(OutcomeStall, match=r"stalled at 3/5 outcomes"):
        cluster.run_until_outcomes(5, budget=2.0)
    assert len(cluster.outcomes) == 3


def test_counts_outcomes_routed_to_a_sink():
    sunk = []
    cluster = Cluster(protocol="1PC", trace=False, outcome_sink=sunk.append)
    cluster.mkdir("/dir1", owner="mds1")
    client = cluster.new_client()
    for i in range(4):
        client.submit(client.plan_create(f"/dir1/f{i}"))
    cluster.run_until_outcomes(3)
    assert len(sunk) == 3 and cluster.outcomes == []
    with pytest.raises(OutcomeStall, match=r"4/6 outcomes"):
        cluster.run_until_outcomes(6)


@pytest.mark.parametrize(
    "spec",
    [
        RunSpec(kind="abort_burst", protocol="PrN", n=30, abort_rate=0.25, seed=3, point=0.25),
        RunSpec(kind="fanout", protocol="PrN", n=16, fanout=4, n_shards=4, seed=3, point=4),
    ],
    ids=["abort_burst", "fanout"],
)
def test_cells_are_byte_identical_to_the_step_loop(spec, monkeypatch):
    # The abort-burst runner reads WAL totals with no settle phase, so
    # this pins the exact stopping point, not just the outcomes.
    ran = json.dumps(execute_spec(spec).to_dict(), sort_keys=True)
    monkeypatch.setattr(Cluster, "run_until_outcomes", _step_loop)
    stepped = json.dumps(execute_spec(spec).to_dict(), sort_keys=True)
    assert ran == stepped
