"""Record the reference outputs and exact counts of every universe input.

    python3 perfbench/record_reference.py [--workload NAME ...]

Runs each input once with spans on, checks the reference-free conditions,
and writes perfbench/reference.json (replacing the named workloads' entries
and keeping the others). Record at a commit whose outputs are trusted; every
benchmark op is later compared against these values.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", help="default: all workloads")
    args = p.parse_args(argv)
    try:
        harness.load_lglift()
    except harness.CheckoutError as exc:
        print(f"record_reference: {exc}", file=sys.stderr)
        return 2

    from run import environment
    from spans import Counts, TracedRunner
    from workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    reference = {}
    if harness.REFERENCE.is_file():
        with open(harness.REFERENCE) as fh:
            reference = json.load(fh)
    runner = TracedRunner()
    for name in names:
        workload = WORKLOADS[name]
        keys = workload.universe()
        inputs = workload.setup(keys)
        workload.warm_up()
        entries = {}
        for key, inp in zip(keys, inputs):
            counts = Counts()
            out, seconds, _ = runner.run(workload, inp, op=None, counts=counts)
            summary = workload.summary(inp, out)
            problems = workload.self_check(summary)
            if problems:
                print(f"record_reference: {name} input {key}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            entries[key] = {"out": summary, "counts": counts.exact()}
            print(f"{name} {key}: {seconds * 1e3:.1f} ms", flush=True)
        reference[name] = entries
        runner.tracer.spans.clear()

    env = environment(argparse.Namespace(workload=",".join(names), seed=None, seconds=None, trace=1))
    reference.setdefault("recorded_with", {})
    reference["recorded_with"].update({name: env for name in names})
    # one line per input, so that a re-recording diffs by input
    blocks = []
    for section in sorted(reference):
        rows = [f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in reference[section].items()]
        blocks.append(f"{json.dumps(section)}: {{\n" + ",\n".join(rows) + "\n}")
    with open(harness.REFERENCE, "w") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
