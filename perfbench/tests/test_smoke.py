"""Reduced-size runs of every workload, with their output checks."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.spans import leftover_wrappers
from perfbench.traced import layer_metrics, traced_pass
from perfbench.workloads import Composite, PaperSweeps

ROOT = Path(__file__).resolve().parents[2]


def _small(name):
    if name == "composite":
        return Composite(ROOT, ops=300)
    return PaperSweeps(ROOT, scale=0.1)


@pytest.mark.parametrize("name", ["composite", "paper-sweeps"])
def test_workload_passes_repeat_and_trace_cleanly(name):
    workload = _small(name)
    inputs = workload.build(0)
    first = workload.run_pass(inputs)
    assert first.attempted > 0 and first.runs > 0 and first.wall > 0
    assert first.failed == 0, first.problems
    second = workload.run_pass(inputs)
    assert second.fingerprint == first.fingerprint

    traced = traced_pass(workload, inputs)
    assert traced.result.fingerprint == first.fingerprint
    assert len(traced.recorder) > 0 and traced.recorder.depth == 0
    assert leftover_wrappers() == []

    metrics = layer_metrics(traced, first.wall)
    assert metrics["sim.events_per_txn"] > 0
    shares = [v for k, v in metrics.items() if k.endswith(".share")]
    assert sum(shares) == pytest.approx(1.0, abs=1e-6)
    if name == "paper-sweeps":
        assert metrics["cache.hit_frac"] == pytest.approx(0.5)
        assert metrics["exec.cells"] == len(inputs[0])


def test_untraced_pass_after_tracing_runs_the_programs_own_code():
    from repro.mds.client import Client
    from repro.sim.kernel import Simulator
    from repro.storage.wal import WriteAheadLog

    before = (Simulator.run, WriteAheadLog.force, Client.run)
    workload = _small("composite")
    inputs = workload.build(1)
    traced_pass(workload, inputs)
    assert (Simulator.run, WriteAheadLog.force, Client.run) == before
    assert leftover_wrappers() == []


def test_a_failed_check_counts_as_failed_operations():
    workload = _small("paper-sweeps")
    specs, goldens = workload.build(0)
    tampered = dict(goldens)
    tampered["1PC"] = dict(goldens["1PC"], throughput=goldens["1PC"]["throughput"] + 1.0)
    result = workload.run_pass((specs, tampered))
    assert result.failed == 100
    assert any("golden" in problem for problem in result.problems)


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "composite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_benchmark_file_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    workload = _small("composite")
    inputs = workload.build(0)
    first = workload.run_pass(inputs)
    metrics = layer_metrics(traced_pass(workload, inputs), first.wall)
    reported = {k for k in metrics if not k.startswith("_")}
    reported |= {f"prof.{k[:-len('.share')]}.share" for k in metrics if k.endswith(".share")}
    assert reported == {m["name"] for m in spec["per_layer"]}
