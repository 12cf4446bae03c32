"""Run the benchmark over several seeds and report each metric's spread.

For every metric: the median over the seeds and the distance between
the first and third quartiles as a share of the median (Python's
``statistics.quantiles(values, n=4)``), next to the metric's bound.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --workload composite --seeds 1-10
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import median, quartile_spread  # noqa: E402


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    runs = []
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        doc = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append(doc)
        print(f"seed {seed}: correct={doc['correct']} failed={doc['failed']}", flush=True)
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        mid = median(values)
        spread = quartile_spread(values) if len(values) > 1 and mid else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None or spread <= bound / 3 else "  above a third of the bound"
        print(f"{name:<34} median {mid:>14.6g}  spread {spread:8.4f}  bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
