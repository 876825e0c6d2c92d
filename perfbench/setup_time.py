"""One cold set-up of a workload, timed: import, reference, op inputs, warm-up.

    python3 perfbench/setup_time.py --workload mc-grid --seed 1

Prints {"raw_s": ..., "factor": ...} as its last line; raw_s * factor is the
time on the reference machine (speed.py). run.py starts this in a fresh
process SETUP_REPEATS times and reports the median as setup_s.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness
import speed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)

    def cold():
        harness.load_lglift()
        from workloads import WORKLOADS, prepare

        workload = WORKLOADS[args.workload]
        prepare(workload, workload.pool(args.seed))

    try:
        _, raw, factor = speed.timed(cold)
    except harness.CheckoutError as exc:
        print(f"setup_time: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"raw_s": raw, "factor": factor}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
