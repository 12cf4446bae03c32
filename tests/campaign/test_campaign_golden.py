"""Campaign goldens: the recovery paths under seeded fault schedules.

The Figure-6 and trace goldens are failure-free, so nothing there
reaches a recovery branch.  These goldens pin one seeded campaign
block per registered protocol (``repro campaign run --runs 10 --seed 7``),
summarised per cell: committed and aborted counts, forced and lazy log
writes, makespan and the full verdict.  A refactor of the coordinator,
worker or recovery machinery that changes any outcome, any log write
or any virtual timestamp under crashes, partitions and refusals shows
up as a diff here.  Regenerate deliberately with::

    PYTHONPATH=src python -c "
    from tests.campaign.test_campaign_golden import golden_path, summarise
    from repro.protocols.registry import default_protocols
    for proto in default_protocols():
        golden_path(proto).write_text(summarise(proto))
    "
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.exec import campaign_grid, execute_spec
from repro.protocols.registry import default_protocols

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"
GOLDEN_RUNS = 10
GOLDEN_SEED = 7


def golden_path(protocol: str) -> Path:
    return GOLDEN_DIR / f"campaign_cells_{protocol.lower()}.json"


def summarise(protocol: str) -> str:
    """The canonical per-cell summary of the protocol's golden block."""
    rows = []
    for spec in campaign_grid(protocol, runs=GOLDEN_RUNS, seed=GOLDEN_SEED):
        cell = execute_spec(spec)
        rows.append(
            {
                "point": spec.point,
                "committed": cell.committed,
                "aborted": cell.aborted,
                "forced_writes": cell.forced_writes,
                "lazy_writes": cell.lazy_writes,
                "makespan": cell.makespan,
                "verdict": cell.verdict,
            }
        )
    return json.dumps(rows, sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("protocol", default_protocols())
def test_campaign_block_matches_golden(protocol):
    assert summarise(protocol) == golden_path(protocol).read_text(), (
        f"{protocol}'s seeded campaign block diverged from its golden "
        "summary — a change moved an outcome, a log write or a virtual "
        "timestamp on a failure path; if intentional, regenerate (see "
        "module docstring)"
    )


def test_campaign_goldens_reach_faults():
    for protocol in default_protocols():
        rows = json.loads(golden_path(protocol).read_text())
        assert len(rows) == GOLDEN_RUNS
        assert sum(row["verdict"]["faults_fired"] for row in rows) > 0
        assert all(row["verdict"]["ok"] for row in rows)
