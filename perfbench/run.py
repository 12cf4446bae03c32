"""The repository benchmark: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload composite --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``:
set-up time (median over fresh processes), then untraced passes over
the seed's inputs until ``--seconds`` are used, reporting medians over
the passes.  Host times are scaled to a nominal host by a reference
loop timed between program calls (:mod:`perfbench.reference`).
``--trace 1`` runs one untraced pass, one traced pass (layer wrappers
installed at runtime and removed again) and one profiled pass in a
fresh process, and reports the per-layer metrics.

Every pass's outputs are checked and every pass must reproduce the
first one's deterministic fingerprint.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the exit status is 0 whenever that line is printed,
with check failures reported through ``correct`` and ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 150
#: A layer whose span share and profiled share differ by more than
#: this is reported: the spans miss some of its entry points.
SHARE_GAP = 0.05


def _probe(mode: str, workload: str, seed: int) -> dict[str, Any]:
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "probe.py"), mode,
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=False,
    )
    if out.returncode != 0:
        raise RuntimeError(f"probe {mode} failed ({out.returncode}):\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def host_calibration() -> dict[str, Any]:
    """Host facts recorded beside every run (a record, never a gate)."""
    from repro.exec.perf import run_perf

    churn = run_perf(["kernel-churn"], repeats=1).workloads[0]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "kernel_churn_events_per_s": churn.events_per_s,
    }


def _metric_units(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _emit(correct: bool, attempted: int, failed: int, values: dict[str, float],
          section: str) -> None:
    units = _metric_units(section)
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    for name, unit in units.items():
        print(f"  {name:<34} {values[name]:>16.6g} {unit}")
    doc = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(doc))


def _record(name: str, doc: dict[str, Any]) -> None:
    from perfbench.workloads import WORK_DIR

    work = ROOT / WORK_DIR
    work.mkdir(exist_ok=True)
    with open(work / "runs.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(dict(doc, workload=name)) + "\n")


def _check_repeats(passes: list[Any]) -> list[str]:
    first = passes[0].fingerprint
    return [
        f"pass {i} fingerprint {p.fingerprint} differs from pass 0 {first}"
        for i, p in enumerate(passes[1:], start=1)
        if p.fingerprint != first
    ]


def untraced_run(workload: Any, seed: int, seconds: float) -> int:
    from perfbench.stats import median
    from repro.exec.perf import peak_rss_kb

    setup = [_probe("setup", workload.name, seed)["nominal_s"] for _ in range(SETUP_PROBES)]
    inputs = workload.build(seed)
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(workload.run_pass(inputs))
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(passes) > seconds:
            break
    rss_mib = peak_rss_kb()["self"] / 1024.0
    problems = [problem for p in passes for problem in p.problems]
    repeat_problems = _check_repeats(passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if repeat_problems:
        failed = max(failed, attempted // len(passes))
    problems += repeat_problems
    calibration = host_calibration()

    # Host times are reported on the nominal host (see perfbench.reference).
    values = {
        "setup_s": median(setup),
        "wall_s": median([p.nominal for p in passes]),
        "txn_per_s": median([p.committed / p.nominal for p in passes]),
        "peak_rss_mib": rss_mib,
    }
    print(f"{workload.name} seed={seed}: {len(passes)} passes, "
          f"{passes[0].runs} runs and {passes[0].attempted} operations per pass")
    print("host seconds per pass: " + " ".join(f"{p.wall:.3f}" for p in passes)
          + "; on the nominal host: " + " ".join(f"{p.nominal:.3f}" for p in passes))
    print(f"host: nproc={calibration['nproc']} python={calibration['python']} "
          f"kernel-churn={calibration['kernel_churn_events_per_s']:.0f} events/s")
    print(f"fingerprint: {json.dumps(passes[0].fingerprint, sort_keys=True)}")
    print(f"  {'fail_frac':<34} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} operations)")
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    correct = not problems
    _record(workload.name, {"seed": seed, "trace": 0, "metrics": values,
                            "attempted": attempted, "failed": failed,
                            "host": calibration, "problems": problems[:20]})
    _emit(correct, attempted, failed, values, "end_to_end")
    return 0


def traced_run(workload: Any, seed: int) -> int:
    from perfbench.layers import LAYERS
    from perfbench.spans import leftover_wrappers
    from perfbench.stats import tail_percentile
    from perfbench.traced import layer_metrics, traced_pass
    from perfbench.workloads import WORK_DIR

    inputs = workload.build(seed)
    problems = [f"wrapper present before tracing: {w}" for w in leftover_wrappers()]
    untraced = workload.run_pass(inputs)
    traced = traced_pass(workload, inputs)
    problems += [f"wrapper left after tracing: {w}" for w in leftover_wrappers()]
    profiled = _probe("profile", workload.name, seed)
    problems += untraced.problems
    problems += [p for p in traced.result.problems if p not in untraced.problems]
    for label, fingerprint in (("traced", traced.result.fingerprint),
                               ("profiled", profiled["fingerprint"])):
        if fingerprint != untraced.fingerprint:
            problems.append(f"{label} pass fingerprint {fingerprint} differs from "
                            f"untraced {untraced.fingerprint}")
    calibration = host_calibration()

    values = layer_metrics(traced, untraced.wall)
    latencies = traced.facts.latencies
    tail_pct, _value, tail_beyond = tail_percentile(latencies) if latencies else (0.0, 0.0, 0)
    for layer in LAYERS:
        values[f"prof.{layer}.share"] = profiled["shares"][layer]

    print(f"{workload.name} seed={seed}: traced {traced.result.wall:.3f} s, "
          f"untraced {untraced.wall:.3f} s, {len(traced.recorder)} spans")
    print(f"host: nproc={calibration['nproc']} python={calibration['python']} "
          f"kernel-churn={calibration['kernel_churn_events_per_s']:.0f} events/s")
    print(f"sim_lat_p99_ms is the p{tail_pct:g} of {len(latencies)} committed latencies "
          f"({tail_beyond} beyond it)")
    for layer in LAYERS:
        span_share = values[f"{layer}.share"]
        prof_share = values[f"prof.{layer}.share"]
        if abs(span_share - prof_share) > SHARE_GAP:
            print(f"share gap: {layer} spans {span_share:.3f} vs profile {prof_share:.3f}")
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    traced.recorder.write(
        ROOT / WORK_DIR / f"spans-{workload.name}.bin",
        {"workload": workload.name, "seed": seed, "wall_s": traced.result.wall},
    )
    correct = not problems
    failed = untraced.failed + traced.result.failed
    attempted = untraced.attempted + traced.result.attempted
    if problems and not failed:
        failed = 1
    _record(workload.name, {"seed": seed, "trace": 1, "metrics": values,
                            "host": calibration, "problems": problems[:20]})
    _emit(correct, attempted, failed, values, "per_layer")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS, make

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = make(args.workload, ROOT)
    if args.trace:
        return traced_run(workload, args.seed)
    return untraced_run(workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
