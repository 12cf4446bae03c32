"""Tier-1 smoke for the ``repro perf`` cell builders.

Each builder runs in well under a second, is deterministic, and its
event and transaction counts are pinned here: a change that moves them
(a kernel that does more or less work per transaction, a protocol that
sends another message) must update these numbers and say why.
"""

from __future__ import annotations

import pytest

from repro.exec.perf import _run_figure6_cell, _run_torture_cell

# name -> (builder, events, committed transactions, simulated seconds)
PINNED = {
    "figure6-cell": (_run_figure6_cell, 3898, 100, 30.438269078124996),
    "torture-cell": (_run_torture_cell, 445, 5, 300.0),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_perf_cell_is_deterministic_and_pinned(name):
    builder, events, txns, sim_time = PINNED[name]
    first, second = builder()(), builder()()
    assert first.name == name
    assert (first.events, first.txns, first.sim_time) == (
        second.events,
        second.txns,
        second.sim_time,
    )
    assert (first.events, first.txns, first.sim_time) == (events, txns, sim_time)
