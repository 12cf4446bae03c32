"""The benchmark's workloads: inputs from a seed, one measured pass, checks.

Each workload builds its inputs (run specs and configs) from the seed
once, then runs passes over the same inputs.  A pass returns a
:class:`PassResult` whose ``fingerprint`` holds the deterministic facts
of the pass; every pass of one run must reproduce it exactly.

* ``composite`` — the mdtest-like composite trace on 1PC: two shard
  groups co-hosted on one kernel, each a closed loop of 16 clients.
* ``paper-sweeps`` — the paper's section IV grids for every registered
  protocol through the executor, cold against a fresh result cache and
  then warm.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from perfbench.reference import Meter

#: Where runs keep scratch files (result caches), under the checkout.
WORK_DIR = ".perfbench"


@dataclass
class PassResult:
    """One pass: host time, outcome accounting and checks."""

    #: Host seconds of the pass's program work.
    wall: float
    #: The same on the nominal host (see :mod:`perfbench.reference`).
    nominal: float
    #: Operations submitted (transactions and reads).
    attempted: int
    #: Operations with a missing or wrong outcome, or hit by a failed check.
    failed: int
    committed: int
    aborted: int
    #: Cells executed and checked.
    runs: int
    fingerprint: dict[str, Any]
    problems: list[str] = field(default_factory=list)


def _fail(result: PassResult, count: int, problem: str) -> None:
    result.failed = min(result.attempted, result.failed + count)
    result.problems.append(problem)


class Workload:
    name = ""

    def __init__(self, root: Path) -> None:
        self.root = root

    def build(self, seed: int) -> Any:
        """The generated inputs for ``seed`` (what the program receives)."""
        raise NotImplementedError

    def run_pass(self, inputs: Any, meter: Optional[Meter] = None) -> PassResult:
        """One measured pass; ``meter`` defaults to a sampling one."""
        raise NotImplementedError

    def wire_first(self, inputs: Any) -> None:
        """Wire the first cluster, stopping before its first simulated event."""
        raise NotImplementedError


# -- composite -------------------------------------------------------------------------


class Composite(Workload):
    name = "composite"

    PROTOCOL = "1PC"
    OPS = 2000
    GROUPS = 2

    def __init__(self, root: Path, ops: Optional[int] = None) -> None:
        super().__init__(root)
        self.ops = ops or self.OPS

    def build(self, seed: int) -> Any:
        from repro.exec.spec import RunSpec
        from repro.workloads.composite import CompositeConfig

        config = CompositeConfig(
            ops=self.ops,
            groups=self.GROUPS,
            window=16,
            working_set=256,
            mean_gap=5e-4,
            mix=(("create", 0.55), ("delete", 0.2), ("rename", 0.1), ("stat", 0.15)),
            hot_fraction=0.8,
        )
        spec = RunSpec(
            kind="composite",
            protocol=self.PROTOCOL,
            n=config.ops,
            seed=seed,
            point=config.ops,
            composite=config.to_json(),
        )
        return spec, config, spec.seeded_params()

    def run_pass(self, inputs: Any, meter: Optional[Meter] = None) -> PassResult:
        from repro.workloads.composite import run_composite

        _spec, config, params = inputs
        meter = meter or Meter()
        try:
            with meter.segment():
                result = run_composite(self.PROTOCOL, config, params=params)
        except Exception as exc:  # the pass failed as a whole
            out = PassResult(meter.raw, meter.nominal, config.ops, 0, 0, 0, 1, {})
            _fail(out, config.ops, f"composite raised {exc!r}")
            return out
        out = PassResult(
            wall=meter.raw,
            nominal=meter.nominal,
            attempted=config.ops,
            failed=0,
            committed=result.committed,
            aborted=result.aborted,
            runs=1,
            fingerprint={
                "events": result.events,
                "committed": result.committed,
                "aborted": result.aborted,
                "skipped": result.skipped,
                "reads": result.reads,
                "forced_writes": result.forced_writes,
                "lazy_writes": result.lazy_writes,
                "makespan": result.makespan,
            },
        )
        # run_composite raises when check_invariants finds a violation,
        # so reaching here means every group's namespace is consistent.
        accounted = result.committed + result.aborted + result.skipped + result.reads
        if accounted != config.ops:
            _fail(
                out,
                abs(config.ops - accounted),
                f"composite accounted {accounted} outcomes for {config.ops} operations",
            )
        return out

    def wire_first(self, inputs: Any) -> None:
        from repro.sim import Simulator
        from repro.workloads.composite import setup_group

        _spec, config, params = inputs
        sim = Simulator()
        for group in range(config.groups):
            setup_group(sim, self.PROTOCOL, config, params, group)


# -- paper-sweeps ----------------------------------------------------------------------


GOLDEN_POINT = "golden-figure6"


class PaperSweeps(Workload):
    name = "paper-sweeps"

    #: Cells between reference-loop samples.
    SAMPLE_EVERY = 12

    def __init__(self, root: Path, scale: float = 1.0) -> None:
        super().__init__(root)
        #: Smoke tests shrink the swept grids' burst sizes (never the
        #: golden Figure-6 cells); 1.0 is the benchmark.
        self.scale = scale

    def _n(self, n: int) -> int:
        return max(1, round(n * self.scale))

    def build(self, seed: int) -> Any:
        from repro.config import KB
        from repro.exec import grids
        from repro.exec.spec import RunSpec
        from repro.protocols.registry import default_protocols

        protocols = default_protocols()
        n = self._n(40)
        # Figure 6 exactly as the golden files record it, so the
        # benchmark's cells are tied to the suite's goldens.
        specs = [
            RunSpec(kind="burst", protocol=p, n=100, seed=0, point=GOLDEN_POINT)
            for p in protocols
        ]
        specs += grids.network_latency_grid([10e-6, 100e-6, 1e-3, 5e-3], n=n, seed=seed)
        specs += grids.disk_bandwidth_grid([100 * KB, 400 * KB, 4000 * KB], n=n, seed=seed)
        specs += grids.burst_size_grid([self._n(s) for s in (1, 10, 50, 150)], seed=seed)
        specs += grids.abort_rate_grid([0.0, 0.1, 0.25], n=n, seed=seed)
        specs += grids.fanout_grid((1, 2, 4, 8), n_files=n, seed=seed)
        goldens = {
            p: json.loads(
                (self.root / "tests" / "golden" / f"figure6_cell_{p.lower()}.json").read_text()
            )
            for p in protocols
        }
        return specs, goldens

    @staticmethod
    def expected_txns(spec: Any) -> int:
        if spec.kind == "fanout":
            return math.ceil(spec.n / spec.fanout)
        return spec.n

    def run_pass(self, inputs: Any, meter: Optional[Meter] = None) -> PassResult:
        from repro.cache import ResultCache
        from repro.exec import run_sweep

        specs, goldens = inputs
        meter = meter or Meter()

        def progress(event: Any) -> None:
            if event.done % self.SAMPLE_EVERY == 0:
                meter.sample()

        attempted = sum(self.expected_txns(s) for s in specs)
        work = self.root / WORK_DIR
        work.mkdir(exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="cache-", dir=work)
        try:
            with meter.segment():
                cache = ResultCache(root=tmp)
                cold = run_sweep(specs, kind=self.name, cache=cache, progress=progress)
                cold_doc = cold.to_json(canonical=True)
                before = cache.stats
                warm = run_sweep(specs, kind=self.name, cache=cache, progress=progress)
                warm_doc = warm.to_json(canonical=True)
                hits = (cache.stats - before).hits
        except Exception as exc:
            out = PassResult(meter.raw, meter.nominal, attempted, 0, 0, 0, len(specs), {})
            _fail(out, attempted, f"paper-sweeps raised {exc!r}")
            return out
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

        cells = cold.cells
        out = PassResult(
            wall=meter.raw,
            nominal=meter.nominal,
            attempted=attempted,
            failed=0,
            committed=sum(c.committed for c in cells),
            aborted=sum(c.aborted for c in cells),
            runs=len(cells),
            fingerprint={
                "cells_sha256": hashlib.sha256(cold_doc.encode()).hexdigest(),
                "committed": sum(c.committed for c in cells),
                "forced_writes": sum(c.forced_writes for c in cells),
                "makespan": sum(c.makespan for c in cells),
            },
        )
        # Checked against the serialised canonical document, the form a
        # user compares, so no program code runs outside the timed segment.
        docs = json.loads(cold_doc)["cells"]
        for spec, cell, doc in zip(specs, cells, docs):
            expected = self.expected_txns(spec)
            if cell.committed + cell.aborted != expected or cell.committed == 0:
                _fail(
                    out,
                    max(1, abs(expected - cell.committed - cell.aborted)),
                    f"{spec.describe()}: {cell.committed} committed + {cell.aborted} "
                    f"aborted for {expected} transactions",
                )
            if spec.point == GOLDEN_POINT:
                golden = goldens[spec.protocol]
                for key in ("throughput", "latency", "committed"):
                    if doc[key] != golden[key]:
                        _fail(out, expected, f"{spec.protocol} Figure-6 {key} differs from golden")
        if warm_doc != cold_doc:
            _fail(out, attempted, "warm-cache sweep is not byte-identical to the cold pass")
        if hits != len(specs):
            _fail(out, len(specs) - hits, f"warm pass hit {hits} of {len(specs)} cells")
        return out

    def wire_first(self, inputs: Any) -> None:
        from repro.cache import ResultCache
        from repro.harness.scenarios import burst_cluster

        specs, _goldens = inputs
        work = self.root / WORK_DIR
        work.mkdir(exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="cache-", dir=work)
        try:
            ResultCache(root=tmp)
            burst_cluster(specs[0].protocol, params=specs[0].seeded_params())
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (Composite, PaperSweeps)}


def make(name: str, root: Path) -> Workload:
    """The workload named ``name``, reading its goldens under ``root``."""
    return WORKLOADS[name](root)
