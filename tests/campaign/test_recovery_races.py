"""Campaign blocks that once broke recovery, pinned in-process.

Seed 448's PrN block crashes ``mds2`` while transaction 5 is PREPARED
there.  On reboot, the coordinator's retransmitted COMMIT reaches
``mds2`` at the same simulated instant as its own recovery of that
transaction.  Both used to re-apply the logged updates into one
overlay, and the second ``CreateInode`` raised ``UpdateError`` out of
the run.  A recovering worker now leaves stray decisions for PREPARED
transactions to its recovery, which asks the coordinator itself.
"""

from repro.exec import campaign_grid, execute_spec


def test_prn_seed_448_block_recovers_without_violations():
    cells = [execute_spec(spec) for spec in campaign_grid("PrN", runs=2, seed=448)]
    assert [cell.verdict["violations"] for cell in cells] == [[], []]
    assert sum(cell.verdict["faults_fired"] for cell in cells) > 0
