"""Out-of-process measurements the main run starts one at a time.

``setup``: time from interpreter start-up to the workload's first
cluster being wired (imports, input building, wiring), raw and scaled
to the nominal host, printed as JSON.  Imports happen once per
process, so set-up is measured in fresh processes.

``profile``: one untraced pass of the traced run's inputs under
cProfile, folded by layer.

Usage (from the root of a checkout)::

    python3 perfbench/probe.py setup --workload composite --seed 1
    python3 perfbench/probe.py profile --workload composite --seed 1
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "profile"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import make

    workload = make(args.workload, ROOT)
    inputs = workload.build(args.seed)
    if args.mode == "setup":
        workload.wire_first(inputs)
        setup_s = time.perf_counter() - _T0
        # The host's speed right now, measured in this same process.
        from perfbench.reference import NOMINAL_S, reference_loop

        loops = sorted(reference_loop() for _ in range(3))
        print(json.dumps({"setup_s": setup_s, "nominal_s": setup_s * NOMINAL_S / loops[1]}))
        return 0

    from perfbench.profile_fold import profile_shares
    from perfbench.reference import Meter

    outcome = {}

    def run() -> None:
        outcome["result"] = workload.run_pass(inputs, Meter(sampling=False))

    shares = profile_shares(run)
    result = outcome["result"]
    print(json.dumps({"shares": shares, "fingerprint": result.fingerprint,
                      "failed": result.failed}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
