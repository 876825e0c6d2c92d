"""The four benchmark workloads.

Each workload draws a pool of op inputs from a fixed universe of items,
chosen by the workload seed, so that every input has a reference output
recorded in reference.json. One op is one call sequence into lglift's
public functions; `summary` reduces its output to the values that are
compared against the reference. lglift functions are looked up on their
modules at call time, so that tracing (spans.py) sees the calls.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from harness import REFERENCE
from lglift import analysis, lifting, shrinkage, simulation

#: reference comparison: |value - ref| <= RTOL * |ref| + ATOL
RTOL = 1e-6
ATOL = 1e-8
#: AMSE = Var + Bias^2 (acceptance criterion 12)
IDENTITY_TOL = 1e-10
#: ISE with every detail kept is exact reconstruction (criterion 06's bound)
FULL_RETENTION_TOL = 1e-8


def _metrics_summary(report) -> Dict[str, float]:
    return {
        "amse": report.amse,
        "variance": report.variance,
        "bias_sq": report.bias_sq,
        "amse_std": report.amse_std,
    }


def _identity_problems(summary) -> List[str]:
    gap = abs(summary["amse"] - (summary["variance"] + summary["bias_sq"]))
    if gap > IDENTITY_TOL:
        return [f"AMSE - Var - Bias^2 = {gap:.3e} exceeds {IDENTITY_TOL}"]
    return []


class Workload:
    """Interface shared by the workloads.

    universe: keys of all items with a recorded reference
    pool_size: items one run draws from the universe
    outputs_per_op: denoised signals (or diagnosed graphs) one op completes
    """

    name = ""
    outputs_per_op = 1
    pool_size = 0

    def universe(self) -> List[str]:
        raise NotImplementedError

    def pool(self, seed: int) -> List[str]:
        keys = self.universe()
        rng = np.random.default_rng(seed)
        return [keys[i] for i in rng.choice(len(keys), self.pool_size, replace=False)]

    def setup(self, keys: List[str]) -> list:
        """Op inputs for `keys`, in the same order."""
        return list(keys)

    def warm_up(self) -> None:
        """One op on a small instance, so lazy imports and first-call costs
        are paid before timing."""
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def summary(self, inp, out) -> Dict:
        raise NotImplementedError

    def self_check(self, summary) -> List[str]:
        """Checks that need no reference."""
        return []

    def check(self, inp, out, ref) -> Tuple[Dict, List[str]]:
        """The output's summary, and its problems against `ref` and the
        reference-free checks."""
        summary = self.summary(inp, out)
        return summary, self.self_check(summary) + compare(summary, ref)

    def loss(self, summary) -> Optional[float]:
        """Mean squared error against the truth (AMSE for the Monte Carlo
        workloads); None where the op estimates nothing."""
        return summary["amse"]


class McGrid(Workload):
    """AMSE study cell: one n = 100 network, R = 20 replicates, LG-Aid-c."""

    name = "mc-grid"
    outputs_per_op = 20
    pool_size = 24

    def universe(self):
        return [str(s) for s in range(48)]

    def _config(self, master_seed, n_vertices=100, n_replications=outputs_per_op):
        return simulation.ExperimentConfig(
            n_vertices=n_vertices,
            n_graphs=1,
            n_replications=n_replications,
            variant="LG-Aid-c",
            field_name="quadrants",
            snr=3.0,
            master_seed=master_seed,
        )

    def warm_up(self):
        simulation.run_experiment(self._config(10_000, n_vertices=30, n_replications=2))

    def run(self, inp):
        return simulation.run_experiment(self._config(int(inp)))

    def summary(self, inp, out):
        return _metrics_summary(out)

    def self_check(self, summary):
        return _identity_problems(summary)


class NltFlow(Workload):
    """Flow fixture (m = 79), sigma = 2, 10 random trajectories, LG-Sid-p.

    10 trajectories rather than the estimator's usual 30: the cost is linear
    in the count and the mix per trajectory is the same, and an op of about
    0.3 s instead of 0.9 s gave a steadier median on a machine whose speed
    drifts (see README).
    """

    name = "nlt-flow"
    pool_size = 24
    trajectories = 10

    def universe(self):
        return [str(s) for s in range(48)]

    def warm_up(self):
        simulation.flow_experiment(
            2.0, n_replications=1, variant="LG-Sid-p", seed=10_000, nlt_trajectories=2
        )

    def run(self, inp):
        return simulation.flow_experiment(
            2.0,
            n_replications=1,
            variant="LG-Sid-p",
            seed=int(inp),
            nlt_trajectories=self.trajectories,
        )

    def summary(self, inp, out):
        return _metrics_summary(out)


class LargePath(Workload):
    """Single LG-Sid-p denoise on fixed m = 499 networks, SNR 3.

    The universe is two networks times twelve noise draws; a run takes three
    draws per network, interleaved, so consecutive ops see different noise.
    m = 499 rather than 999: an m = 999 op takes over a second, too few per
    run for a steady median on a machine whose speed drifts (see README).
    """

    name = "large-path"
    pool_size = 6
    networks = (0, 1)
    draws = 12
    n_vertices = 500
    snr = 3.0
    #: entries of the estimate kept in the reference: every 64th value
    sample_stride = 64

    def universe(self):
        return [f"{n}/{d}" for n in self.networks for d in range(self.draws)]

    def pool(self, seed):
        rng = np.random.default_rng(seed)
        per_net = [
            [f"{n}/{d}" for d in rng.choice(self.draws, self.pool_size // 2, replace=False)]
            for n in self.networks
        ]
        return [key for pair in zip(*per_net) for key in pair]

    def setup(self, keys):
        self.config = lifting.LiftingConfig.from_acronym("LG-Sid-p")
        field = simulation.get_field("quadrants")
        nets = {}
        for n in sorted({int(k.split("/")[0]) for k in keys}):
            graph = simulation.sample_network(self.n_vertices, seed=n)
            lg = simulation.build_line_graph(graph)
            truth = simulation.normalize_unit_variance(simulation.embed_pointwise(field, graph))
            nets[n] = (lg, truth)
        inputs = []
        for key in keys:
            n, d = (int(p) for p in key.split("/"))
            lg, truth = nets[n]
            noisy, _ = simulation.add_noise(truth, self.snr, seed=(n, d))
            inputs.append((lg, truth, noisy))
        # fixed directions for a compact fingerprint of each estimate vector
        self.directions = np.random.default_rng(0).normal(size=(4, self.n_vertices - 1))
        return inputs

    def warm_up(self):
        graph = simulation.sample_network(60, seed=10_000)
        lg = simulation.build_line_graph(graph)
        truth = simulation.normalize_unit_variance(
            simulation.embed_pointwise(simulation.get_field("quadrants"), graph)
        )
        noisy, _ = simulation.add_noise(truth, self.snr, seed=(10_000, 0))
        shrinkage.denoise(noisy, lg, lifting.LiftingConfig.from_acronym("LG-Sid-p"))

    def run(self, inp):
        lg, _, noisy = inp
        return shrinkage.denoise(noisy, lg, self.config)

    def summary(self, inp, out):
        lg, truth, _ = inp
        est = np.array([out.estimates[k] for k in lg.ids])
        err = est - np.array([truth[k] for k in lg.ids])
        return {
            "amse": float(np.mean(err**2)),
            "sum": float(est.sum()),
            "sumsq": float(est @ est),
            "projections": [float(v) for v in self.directions @ est],
            "sample": [float(v) for v in est[:: self.sample_stride]],
        }


class MatrixDiag(Workload):
    """Condition number of LG-Dnw-c plus the greedy ISE curve, n = 100."""

    name = "matrix-diag"
    pool_size = 32
    variant = "LG-Dnw-c"

    def universe(self):
        return [str(s) for s in range(64)]

    def setup(self, keys):
        self.config = lifting.LiftingConfig.from_acronym(self.variant)
        field = simulation.get_field("quadrants")
        inputs = []
        for key in keys:
            # the graph condition_number_study samples for this seed
            graph = simulation.sample_network(100, seed=int(key) * 1000)
            lg = simulation.build_line_graph(graph)
            truth = simulation.normalize_unit_variance(simulation.embed_pointwise(field, graph))
            inputs.append((int(key), lg, truth))
        return inputs

    def warm_up(self):
        simulation.condition_number_study(self.variant, n_graphs=1, n_vertices=30, seed=10_000)
        graph = simulation.sample_network(30, seed=10_000)
        lg = simulation.build_line_graph(graph)
        truth = simulation.embed_pointwise(simulation.get_field("quadrants"), graph)
        analysis.sparsity_curve_single(
            truth, lg, lifting.LiftingConfig.from_acronym(self.variant)
        )

    def run(self, inp):
        seed, lg, truth = inp
        kappas = simulation.condition_number_study(self.variant, n_graphs=1, seed=seed)
        curve = analysis.sparsity_curve_single(truth, lg, self.config)
        return kappas[0], curve

    def summary(self, inp, out):
        kappa, curve = out
        return {"kappa": float(kappa), "ise": [float(v) for v in curve.ise]}

    def self_check(self, summary):
        problems = []
        if not (math.isfinite(summary["kappa"]) and summary["kappa"] >= 1.0):
            problems.append(f"condition number {summary['kappa']} is not a finite value >= 1")
        if not abs(summary["ise"][-1]) <= FULL_RETENTION_TOL:
            problems.append(
                f"ISE with every detail kept is {summary['ise'][-1]:.3e}, not exact reconstruction"
            )
        return problems

    def loss(self, summary):
        return None


WORKLOADS = {w.name: w for w in (McGrid(), NltFlow(), LargePath(), MatrixDiag())}


def load_reference(workload: Workload) -> Dict:
    with open(REFERENCE) as fh:
        return json.load(fh)[workload.name]


def prepare(workload: Workload, keys: List[str]):
    """The set-up that setup_s times: reference, op inputs and warm-up.
    Returns (inputs, reference)."""
    reference = load_reference(workload)
    inputs = workload.setup(keys)
    workload.warm_up()
    return inputs, reference


def compare(summary: Dict, ref: Dict) -> List[str]:
    """Fields of `summary` that leave the reference by more than the tolerance."""
    problems = []
    for field, want in ref.items():
        got = summary.get(field)
        want_v = np.atleast_1d(np.asarray(want, dtype=float))
        got_v = np.atleast_1d(np.asarray(got, dtype=float)) if got is not None else None
        if got_v is None or got_v.shape != want_v.shape:
            problems.append(f"{field}: shape {None if got_v is None else got_v.shape} != {want_v.shape}")
            continue
        excess = np.abs(got_v - want_v) - (RTOL * np.abs(want_v) + ATOL)
        if not np.all(excess <= 0):
            worst = int(np.argmax(excess))
            problems.append(f"{field}[{worst}] = {got_v[worst]!r}, reference {want_v[worst]!r}")
    return problems
