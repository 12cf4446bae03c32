"""Every registered protocol must pass the conformance kit."""

import pytest

from repro.protocols import default_protocols, get_spec
from repro.protocols.conformance import ConformanceReport, check_protocol


@pytest.mark.parametrize("name", sorted(default_protocols()))
def test_registered_protocol_conforms(name):
    report = check_protocol(name)
    assert report.ok, f"{name} failed conformance: {report.failures}"
    # Every engine runs liveness, abort hygiene, the crash-point sweep,
    # the named fault scenarios and isolation: 37 checks.  Engines
    # without a worker limit also survive a batched four-worker
    # transaction crashing mid-commit at every crash point: 45.
    expected = 45 if get_spec(name).engine.max_workers is None else 37
    assert report.checks_run == expected


def test_report_records_failures():
    report = ConformanceReport("X")
    report.record(True, "fine")
    report.record(False, "broken")
    assert not report.ok
    assert report.failures == ["broken"]
    assert report.checks_run == 2
