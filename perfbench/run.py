"""lglift benchmark: one workload per process, a closed loop with one caller.

    python3 perfbench/run.py --workload mc-grid --seed 1 --seconds 15 --trace 0

With --trace 0 the run times SETUP_REPEATS cold set-ups in fresh processes,
sets up once more itself, then runs ops back to back for --seconds (and at
least once over its input pool) and reports the end-to-end metrics. With
--trace 1 it alternates untraced and traced ops on the same inputs and
reports the per-layer metrics from the spans, plus the scaling exponents of
free-order `forward`. Times are rescaled to the reference machine speed
(speed.py); the raw ones are kept in the result file. Every op's output is
checked against reference.json. The last line of stdout is the result as
JSON; a fuller record (environment, amse, error rate, tail latency) is
written to perfbench/results/, and with --trace 1 the spans beside it.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import harness
import speed

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 150
#: free-order forward sizes (m) for the log-log scaling fit
SCALING_SIZES = {"LG-Sid-p": (249, 499, 999), "LG-Aid-c": (249, 499, 999, 1999)}
#: per-call medians of these spans become <label>.ms
TIMED_LABELS = (
    "simulation.sample_network",
    "graph.build_line_graph",
    "graph.shortest_path_distance",
    "simulation.add_noise",
    "simulation.generate_flow_fixture",
    "lifting.forward",
    "lifting.forward_fixed",
    "lifting.inverse",
    "shrinkage.denoise",
    "shrinkage.detail_gains",
    "shrinkage.estimate_sigma_mad",
    "shrinkage.ebayes_threshold",
    "shrinkage.weight_from_data",
    "shrinkage.post_med_cauchy",
    "shrinkage.nlt_denoise",
    "analysis.build_matrices",
    "analysis.condition_number",
    "analysis.sparsity_curve_single",
)
#: calls per op of these spans become <label>.calls
COUNTED_LABELS = (
    "graph.shortest_path_distance",
    "lifting.forward",
    "lifting.forward_fixed",
    "lifting.inverse",
    "shrinkage.detail_gains",
)
MAX_REPORTED_PROBLEMS = 20


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


class Ledger:
    """Ops attempted and failed, latencies, completed outputs and losses."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.outputs = 0
        self.raw_s = []
        self.scaled_s = []
        self.losses = {}
        self.problems = []

    def run(self, key, inp, call):
        """Run one op through `call(inp) -> (output, raw seconds, factor)`
        and check it; returns its rescaled seconds, or None if it failed."""
        self.attempted += 1
        try:
            out, raw, factor = call(inp)
        except Exception:
            self.fail(key, "raised:\n" + traceback.format_exc())
            return None
        self.raw_s.append(raw)
        self.scaled_s.append(raw * factor)
        summary, problems = self.workload.check(inp, out, self.reference[key]["out"])
        if problems:
            self.fail(key, "; ".join(problems))
            return None
        self.outputs += self.workload.outputs_per_op
        loss = self.workload.loss(summary)
        if loss is not None:
            self.losses.setdefault(key, loss)
        return raw * factor

    def fail(self, key, message):
        self.failed += 1
        if len(self.problems) < MAX_REPORTED_PROBLEMS:
            self.problems.append(f"op on input {key}: {message}")


def tail(latencies_ms):
    """Highest whole percentile with at least ten samples above it."""
    n = len(latencies_ms)
    if n <= 10:
        return None
    pct = math.floor(100 * (n - 10) / n)
    ordered = sorted(latencies_ms)
    value = ordered[max(0, math.ceil(pct / 100 * n) - 1)]
    beyond = sum(1 for v in ordered if v > value)
    return {"value": value, "percentile": pct, "samples_beyond": beyond, "samples": n}


def cold_setup(args):
    """One timed set-up in a fresh process; returns (raw seconds, factor)."""
    proc = subprocess.run(
        [sys.executable, str(harness.BENCH_DIR / "setup_time.py"),
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=harness.ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed ({proc.returncode}):\n{proc.stderr}")
    timing = json.loads(proc.stdout.strip().splitlines()[-1])
    return timing["raw_s"], timing["factor"]


def measure(workload, keys, args):
    from workloads import prepare

    setups = [cold_setup(args) for _ in range(SETUP_REPEATS)]
    inputs, reference = prepare(workload, keys)

    ledger = Ledger(workload, reference)
    call = functools.partial(speed.timed, workload.run)
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i < len(inputs) or time.perf_counter() < deadline:
        j = i % len(inputs)
        ledger.run(keys[j], inputs[j], call)
        i += 1

    # ops that raised have no latency; if every op raised, report zeros
    scaled_ms = [t * 1e3 for t in ledger.scaled_s] or [0.0]
    op_s = sum(ledger.scaled_s)
    metrics = {
        "setup_s": (statistics.median(raw * f for raw, f in setups), "s"),
        "outputs_per_s": (ledger.outputs / op_s if op_s else 0.0, "1/s"),
        "op_p50_ms": (statistics.median(scaled_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "ops": ledger.attempted,
        "op_ms": scaled_ms,
        "op_tail_ms": tail(scaled_ms),
        "raw_op_ms": [t * 1e3 for t in ledger.raw_s],
        "op_factors": [s / r for s, r in zip(ledger.scaled_s, ledger.raw_s)],
        "raw_outputs_per_s": ledger.outputs / sum(ledger.raw_s) if ledger.raw_s else 0.0,
        "raw_setup_s": [raw for raw, _ in setups],
        "setup_factors": [f for _, f in setups],
        "error_rate": ledger.failed / ledger.attempted,
        "amse": statistics.fmean(ledger.losses.values()) if ledger.losses else None,
        "amse_inputs": len(ledger.losses),
    }
    return ledger, metrics, extra


def traced(workload, keys, args):
    from spans import DRIVERS, Counts, TracedRunner
    from workloads import load_reference

    runner = TracedRunner()
    tracer = runner.tracer
    reference = load_reference(workload)
    tracer.install()
    try:
        inputs, _, tracer.factors[None] = speed.timed(workload.setup, keys)
    finally:
        tracer.uninstall()
    workload.warm_up()

    ledger = Ledger(workload, reference)
    plain = functools.partial(speed.timed, workload.run)
    counts = {}
    pairs = []
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i < len(inputs) or time.perf_counter() < deadline:
        j = i % len(inputs)
        key = keys[j]
        # counters cover the first pass, which visits every input once
        op_counts = counts.setdefault(key, Counts()) if i < len(inputs) else None
        calls = {
            "plain": plain,
            "traced": functools.partial(runner.run, workload, op=i, counts=op_counts),
        }
        order = ("plain", "traced") if i % 2 == 0 else ("traced", "plain")
        lat = {name: ledger.run(key, inputs[j], calls[name]) for name in order}
        if None not in lat.values():
            pairs.append(lat)
        i += 1

    def med(values):
        return statistics.median(values) if values else 0.0

    first = set(range(len(inputs)))
    metrics = {}
    for label in TIMED_LABELS:
        metrics[f"{label}.ms"] = (med(tracer.durations_ms(label)), "ms")
    for label in COUNTED_LABELS:
        metrics[f"{label}.calls"] = (tracer.count(label, first) / len(first), "count")
    metrics["shrinkage.denoise.self_ms"] = (med(tracer.self_ms({"shrinkage.denoise"})), "ms")
    metrics["simulation.driver.self_ms"] = (med(tracer.self_ms(set(DRIVERS))), "ms")

    exact = {key: c.exact() for key, c in counts.items()}
    for name in ("stages", "relinks", "edges_added", "nbr_sum"):
        metrics[f"lifting.{name}"] = (sum(e[name] for e in exact.values()), "count")
    metrics["lifting.max_nbr"] = (max(e["max_nbr"] for e in exact.values()), "count")
    coeffs = sum(e["post_med_cauchy_coeffs"] for e in exact.values())
    metrics["shrinkage.post_med_cauchy.coeffs"] = (coeffs, "count")
    zeros = sum(c.zeros for c in counts.values())
    fits = sum(c.fits for c in counts.values())
    fallbacks = sum(c.fallbacks for c in counts.values())
    metrics["shrinkage.zero_frac"] = (zeros / coeffs if coeffs else 0.0, "fraction")
    metrics["shrinkage.fallback_frac"] = (fallbacks / fits if fits else 0.0, "fraction")
    for key, got in exact.items():
        want = reference[key].get("counts")
        if got != want:
            ledger.fail(key, f"exact counts drifted: {got} != reference {want}")

    plain_s = med([p["plain"] for p in pairs])
    traced_s = med([p["traced"] for p in pairs])
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0 if pairs else 0.0, "fraction")

    exponents, scaling_ms = scaling_exponents(args.seed)
    for variant, slope in exponents.items():
        metrics[f"lifting.forward.exponent.{variant}"] = (slope, "exponent")

    extra = {
        "ops": ledger.attempted,
        "pairs": len(pairs),
        "op_plain_p50_ms": plain_s * 1e3,
        "op_traced_p50_ms": traced_s * 1e3,
        "exact_counts": exact,
        "scaling_forward_ms": scaling_ms,
        "error_rate": ledger.failed / ledger.attempted,
    }
    return ledger, metrics, extra, tracer


def scaling_exponents(seed):
    """Log-log slope of rescaled free-order forward time over m, per variant."""
    import numpy as np

    from lglift import lifting, simulation

    rng = np.random.default_rng(seed)
    graphs = {}
    timings = {}
    slopes = {}
    for variant, sizes in SCALING_SIZES.items():
        config = lifting.LiftingConfig.from_acronym(variant)
        times = []
        for m in sizes:
            if m not in graphs:
                lg = simulation.build_line_graph(simulation.sample_network(m + 1, seed=seed))
                graphs[m] = (lg, dict(zip(lg.ids, rng.normal(size=lg.m))))
            lg, values = graphs[m]
            reps = []
            for _ in range(3 if m < 999 else 1):
                _, raw, factor = speed.timed(lifting.forward, values, lg, config)
                reps.append(raw * factor)
            times.append(statistics.median(reps))
        slopes[variant] = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
        timings[variant] = {str(m): t * 1e3 for m, t in zip(sizes, times)}
    return slopes, timings


def environment(args):
    import numpy
    import scipy

    def git_commit():
        if not (harness.ROOT / ".git").exists():
            return None
        try:
            out = subprocess.run(
                ["git", "-C", str(harness.ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip()

    digest = hashlib.sha256()
    for path in sorted((harness.SRC / "lglift").rglob("*.py")):
        digest.update(path.relative_to(harness.SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None,
            )
    except OSError:
        cpu_model = platform.processor() or None
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    return {
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "blas_threads": {var: os.environ.get(var) for var in harness.BLAS_THREAD_VARS},
        "process_threads": threads,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        harness.load_lglift()
    except harness.CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if not harness.REFERENCE.is_file():
        print(f"perfbench: missing reference outputs {harness.REFERENCE}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"options: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    keys = workload.pool(args.seed)

    tracer = None
    if args.trace:
        ledger, metrics, extra, tracer = traced(workload, keys, args)
    else:
        ledger, metrics, extra = measure(workload, keys, args)

    for problem in ledger.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }

    out_dir = harness.BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload.name}_seed{args.seed}_trace{args.trace}"
    record = {"environment": environment(args), "inputs": keys, **result,
              "details": extra, "problems": ledger.problems}
    with open(out_dir / f"BENCH_{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        with open(out_dir / f"spans_{stem}.jsonl", "w") as fh:
            for row in tracer.rows():
                fh.write(json.dumps(row) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
