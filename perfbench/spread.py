"""Run-to-run spread of the benchmark over several seeds.

    python3 perfbench/spread.py --workload nlt-flow --seeds 1-10

Runs perfbench/run.py untraced once per seed, one process at a time, for
run_seconds of BENCHMARK.json, and prints per metric the median and the
distance between the first and third quartiles (statistics.quantiles, n=4)
as a share of the median, next to the metric's bound in BENCHMARK.json and a
third of it (the target when tuning). setup_s is bounded only in the shift of its median
between two sets, so its spread is printed without a verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from harness import BENCH_DIR, ROOT


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    args = p.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    status = 0
    for workload in args.workload:
        values = {}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect\n{proc.stderr}", file=sys.stderr)
                status = 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        for name, vals in values.items():
            med = statistics.median(vals)
            line = f"{workload:12s} {name:45s} n={len(vals):2d} median={med:.6g}"
            if len(vals) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / abs(med)
                line += f" iqr/median={spread:.4f}"
                bound = bounds[name]
                if name == "setup_s":
                    # the acceptance rule bounds only the shift of setup_s's
                    # median between two sets, not its spread within one
                    line += f" bound={bound} (median shift only)"
                else:
                    ok = spread < bound / 3
                    line += f" bound={bound} third={bound / 3:.4f} {'ok' if ok else 'WIDE'}"
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
