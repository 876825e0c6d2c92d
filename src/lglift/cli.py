"""Command-line interface.

Each subcommand wraps one library operation and writes its outputs; `main`
then writes a JSON manifest sufficient to reproduce the run, or exits
nonzero with a machine-readable `error category=...` line on failure.
"""

from __future__ import annotations

import argparse
import csv
import os
import statistics
import sys
from typing import Dict

from . import io as lio
from .analysis import sparsity_curve_single
from .graph import Graph, GraphError, Id, LineGraph, build_line_graph
from .lifting import (
    VARIANTS,
    LiftingConfig,
    LiftingError,
    forward,
    inverse,
)
from .shrinkage import ShrinkageConfig, ShrinkageError, denoise, nlt_denoise
from .simulation import (
    ExperimentConfig,
    SimulationError,
    condition_number_study,
    flow_experiment,
    generate_flow_fixture,
    run_experiment,
)

_ERROR_CATEGORIES = (
    (lio.ParseError, "parse"),
    (GraphError, "graph"),
    (LiftingError, "lifting"),
    (ShrinkageError, "shrinkage"),
    (SimulationError, "simulation"),
    (FileNotFoundError, "io"),
)


def _seed(text: str) -> int:
    """A --seed value (or LGLIFT_SEED, its default): a nonnegative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be a nonnegative integer, got {text!r}")
    return int(text)


def _load_line_graph(path: str) -> LineGraph:
    obj = lio.parse_graph(path)
    return build_line_graph(obj) if isinstance(obj, Graph) else obj


def _require_values(lg: LineGraph) -> Dict[Id, float]:
    if lg.values is None or len(lg.values) != lg.m:
        raise lio.ParseError("input file must carry a value on every edge/station")
    return dict(lg.values)


def _lift_config(args) -> LiftingConfig:
    return LiftingConfig.from_acronym(args.variant, tau=args.tau, rng_seed=args.seed)


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_estimates_csv(path, lg, noisy, result) -> None:
    est = result.estimates
    _write_csv(path, ["id", "noisy", "estimate", "residual"], (
        [k, *(f"{v:.17g}" for v in (noisy[k], est[k], noisy[k] - est[k]))] for k in lg.ids
    ))


def _diagnostics(result) -> dict:
    """The shrink diagnostics that the denoise and nlt manifests record."""
    names = ("sigma_hat", "nu_hat", "zero_frac", "fallback_frac", "mad_pool_level")
    return {name: getattr(result, name) for name in names}


# ---------------------------------------------------------------------------
# subcommands

def cmd_linegraph(args) -> None:
    obj = lio.parse_graph(args.input)
    if not isinstance(obj, Graph):
        raise lio.ParseError("linegraph expects a graph-mode file")
    lg = build_line_graph(obj)
    lio.write_graph(args.output, lg)
    print(f"line graph: {lg.m} vertices, {len(lg.edges())} edges -> {args.output}")


def cmd_forward(args) -> dict:
    lg = _load_line_graph(args.input)
    values = _require_values(lg)
    coeffs, record = forward(values, lg, _lift_config(args))
    paths = lio.write_transform(args.output, coeffs, record)
    print(f"forward: {len(coeffs.details)} details, {len(coeffs.scaling)} scaling -> {paths[1]}")
    return {"outputs": list(paths)}


def cmd_inverse(args) -> None:
    coeffs, record = lio.read_transform(args.input)
    values = inverse(coeffs, record)
    _write_csv(args.output, ["id", "value"], ([k, f"{values[k]:.17g}"] for k in record.ids))
    print(f"inverse: {len(values)} values -> {args.output}")


def cmd_denoise(args) -> dict:
    lg = _load_line_graph(args.input)
    values = _require_values(lg)
    shrink = ShrinkageConfig(keep_coarsest=args.keep_coarsest, rule=args.rule)
    result = denoise(values, lg, _lift_config(args), shrink)
    _write_estimates_csv(args.output, lg, values, result)
    print(
        f"denoise: sigma_hat={result.sigma_hat:.4g} nu_hat={result.nu_hat:.4g} -> {args.output}"
    )
    return _diagnostics(result)


def cmd_nlt(args) -> dict:
    lg = _load_line_graph(args.input)
    values = _require_values(lg)
    shrink = ShrinkageConfig(keep_coarsest=args.keep_coarsest, rule=args.rule)
    result, singles = nlt_denoise(
        values, lg, _lift_config(args), shrink, args.trajectories, seed=args.seed
    )
    _write_estimates_csv(args.output, lg, values, result)
    print(f"nlt: averaged {len(singles)} trajectories -> {args.output}")
    return {**_diagnostics(result), "trajectories": len(singles)}


def cmd_condnum(args) -> None:
    if args.graphs < 2:
        raise SimulationError(f"quartiles need at least 2 graphs, got {args.graphs}")
    kappas = condition_number_study(args.variant, args.graphs, args.vertices, args.seed)
    qs = statistics.quantiles(kappas, n=4, method="inclusive")
    print(f"condition numbers over {len(kappas)} graphs ({args.variant}):")
    print(
        f"min={min(kappas):.4f} 25%={qs[0]:.4f} median={qs[1]:.4f} "
        f"75%={qs[2]:.4f} max={max(kappas):.4f}"
    )
    _write_csv(args.output, ["graph", "kappa"], enumerate(f"{k:.17g}" for k in kappas))


def cmd_sparsity(args) -> None:
    lg = _load_line_graph(args.input)
    values = _require_values(lg)
    curve = sparsity_curve_single(values, lg, _lift_config(args))
    _write_csv(args.output, ["kept", "ise"], ((t, f"{v:.17g}") for t, v in curve.as_rows()))
    print(f"sparsity: {len(curve.ise)} points -> {args.output}")


def cmd_simulate(args) -> dict:
    config = ExperimentConfig(
        n_vertices=args.vertices,
        n_graphs=args.graphs,
        n_replications=args.replications,
        snr=args.snr,
        embedding=args.embedding,
        variant=args.variant,
        field_name=args.field,
        master_seed=args.seed,
    )
    report = run_experiment(config)
    row = {
        "variant": args.variant,
        "field": args.field,
        "snr": args.snr,
        "amse": report.amse,
        "variance": report.variance,
        "bias_sq": report.bias_sq,
        "amse_std": report.amse_std,
    }
    _write_csv(args.output, list(row), [list(row.values())])
    print(
        f"simulate: AMSE={report.amse:.4f} Var={report.variance:.4f} "
        f"Bias2={report.bias_sq:.4f} -> {args.output}"
    )
    return {"report": row}


def cmd_flowsim(args) -> dict:
    if args.fixture_out:
        graph, values = generate_flow_fixture(args.seed)
        edges = [e.__class__(e.id, e.u, e.v, e.length, values[e.id]) for e in graph.edges]
        lio.write_graph(args.fixture_out, Graph([(v, None) for v in graph.coords], edges))
        print(f"flow fixture -> {args.fixture_out}")
    report = flow_experiment(
        sigma=args.sigma,
        n_replications=args.replications,
        variant=args.variant,
        seed=args.seed,
        nlt_trajectories=args.trajectories,
    )
    row = {
        "variant": args.variant,
        "sigma": args.sigma,
        "trajectories": args.trajectories or 1,
        "amse": report.amse,
        "variance": report.variance,
        "bias_sq": report.bias_sq,
    }
    _write_csv(args.output, list(row), [list(row.values())])
    print(f"flowsim: AMSE={report.amse:.4f} -> {args.output}")
    return {"report": row}


# ---------------------------------------------------------------------------

def _add_variant_options(p, with_input=True) -> None:
    if with_input:
        p.add_argument("input", help="graph or stations file")
        # the sampled-network studies always run down to tau = 2
        p.add_argument("--tau", type=int, default=2, help="surviving scaling count")
    p.add_argument("--variant", default="LG-Aid-c", help=f"one of {', '.join(VARIANTS)}")
    # a string default goes through `type` too, so LGLIFT_SEED is checked alike
    p.add_argument("--seed", type=_seed, default=os.environ.get("LGLIFT_SEED", "0"))


def _add_shrink_options(p) -> None:
    p.add_argument("--keep-coarsest", type=int, default=2)
    p.add_argument("--rule", choices=("median", "hard"), default="median")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lglift",
        description="Multiscale lifting transform and denoiser for network edge data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("-o", "--output", required=True, help="output path (forward: a prefix)")
        return p

    p = command("linegraph", cmd_linegraph, "map a graph file onto its line graph")
    p.add_argument("input")

    p = command("forward", cmd_forward, "run the forward transform")
    _add_variant_options(p)

    p = command("inverse", cmd_inverse, "reconstruct values from a serialized transform")
    p.add_argument("input", help="path prefix from the forward command")

    p = command("denoise", cmd_denoise, "shrink details and reconstruct")
    _add_variant_options(p)
    _add_shrink_options(p)

    p = command("nlt", cmd_nlt, "average the denoiser over random trajectories")
    _add_variant_options(p)
    _add_shrink_options(p)
    p.add_argument("--trajectories", type=int, default=30)

    p = command("condnum", cmd_condnum, "condition numbers over sampled networks")
    _add_variant_options(p, with_input=False)
    p.add_argument("--graphs", type=int, default=50)
    p.add_argument("--vertices", type=int, default=100)

    p = command("sparsity", cmd_sparsity, "greedy reconstruction error curve")
    _add_variant_options(p)

    p = command("simulate", cmd_simulate, "AMSE study on sampled networks")
    _add_variant_options(p, with_input=False)
    p.add_argument("--field", default="quadrants")
    p.add_argument("--snr", type=float, default=3.0)
    p.add_argument("--graphs", type=int, default=50)
    p.add_argument("--replications", type=int, default=100)
    p.add_argument("--vertices", type=int, default=100)
    p.add_argument("--embedding", choices=("pointwise", "edge_average"), default="pointwise")

    p = command("flowsim", cmd_flowsim, "denoising study on the flow fixture")
    _add_variant_options(p, with_input=False)
    p.set_defaults(variant="LG-Sid-p")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--replications", type=int, default=50)
    p.add_argument("--trajectories", type=int, default=None,
                   help="averaged multi-trajectory estimator when set")
    p.add_argument("--fixture-out", default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        results = args.func(args) or {}  # what the subcommand adds to its manifest
        given = {k: v for k, v in vars(args).items() if k != "func"}
        lio.write_manifest(args.output + ".manifest.json",
                           {"command": args.command, "args": given, **results})
    except tuple(e for e, _ in _ERROR_CATEGORIES) as exc:
        category = next(c for e, c in _ERROR_CATEGORIES if isinstance(exc, e))
        print(f"error category={category}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
