"""Experiment harness: test fields, sampled networks, noise, and metrics.

Every seeded draw is a `lifting._stream(seed, *tags)` generator, keyed by
(*seed, *tags), so any cell of an experiment grid can be recomputed on its
own.  For a seed s the keys are:

- `sample_network`: (s, SUB_GRAPH); `run_experiment` and
  `condition_number_study` draw graph q with s = seed * 1000 + q;
- `add_noise`: (s, SUB_NOISE); `run_experiment`, replicate r of graph q:
  (seed, q, r, SUB_NOISE);
- `generate_flow_fixture`: (s, SUB_FIXTURE);
- `flow_experiment`, replicate r: noise (seed, SUB_NOISE, r), NLT orders
  through `nlt_denoise` with s = seed * 100 + r;
- NLT order p (`shrinkage.random_trajectories`): (*s, p); the free-order
  tie-break (`lifting._Chooser`): (rng_seed,).

These are not all separate streams.  numpy's `SeedSequence` ignores
trailing zeros and the NLT keys carry no purpose tag, so the tie-break,
network, noise and fixture keys of s are NLT orders 0, 1, 2 and 4 of s,
and `flow_experiment`'s replicate 0 noise at seed 0, (0, SUB_NOISE, 0), is
NLT order 2 of its own replicate 0.  seed * 1000 + q and seed * 100 + r
overlap once q >= 1000 or r >= 100.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from .analysis import build_matrices, condition_number
from .graph import EdgeRec, Graph, Id, _euclidean_mst, build_line_graph
from .lifting import LiftingConfig, _check_count, _stream
from .shrinkage import ShrinkageConfig, denoise, nlt_denoise

# purpose tags, which end or follow the seed in a `_stream` key (see above)
SUB_GRAPH = 1
SUB_NOISE = 2
SUB_FIXTURE = 4


class SimulationError(ValueError):
    """Invalid experiment configuration or inputs."""


#: the message of a seed that `_check_count` rejects
_SEED = "seed must be a nonnegative integer"


def _check_snr(snr) -> None:
    """Reject an SNR that is not a positive real number, or is a bool."""
    if isinstance(snr, bool) or not (isinstance(snr, numbers.Real) and snr > 0):
        raise SimulationError(f"SNR must be a positive number, got {snr}")


# ---------------------------------------------------------------------------
# test fields on the unit square

FieldFn = Callable[[float, float], float]

_BLOCKS_T = (0.1, 0.13, 0.15, 0.23, 0.25, 0.4, 0.44, 0.65, 0.76, 0.78, 0.81)
_BLOCKS_H = (4, -5, 3, -4, 5, -4.2, 2.1, 4.3, -3.1, 2.1, -4.2)
_BUMPS_W = (0.005, 0.005, 0.006, 0.01, 0.01, 0.03, 0.01, 0.01, 0.005, 0.008, 0.005)


def _blocks1d(x: float) -> float:
    return sum(h * (1.0 + np.sign(x - t)) / 2.0 for t, h in zip(_BLOCKS_T, _BLOCKS_H))


def _bumps1d(x: float) -> float:
    return sum(
        h * (1.0 + abs((x - t) / w)) ** -4
        for t, h, w in zip(_BLOCKS_T, np.abs(_BLOCKS_H), _BUMPS_W)
    )


def _heavisine1d(x: float) -> float:
    return 4.0 * math.sin(4 * math.pi * x) - np.sign(x - 0.3) - np.sign(0.72 - x)


def _doppler1d(x: float) -> float:
    return math.sqrt(x * (1.0 - x)) * math.sin(2 * math.pi * 1.05 / (x + 0.05))


def _extrude(signal: Callable[[float], float]) -> FieldFn:
    # 2-D lifting of a 1-D test signal: profile in x, gentle modulation in y
    def fn(x: float, y: float) -> float:
        return signal(x) * (1.0 + 0.3 * math.sin(2 * math.pi * y))

    return fn


def _g1_standin(x: float, y: float) -> float:
    # smooth unimodal surface; stand-in, not the externally defined g1
    return math.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) / 0.08)


def _mfc_standin(x: float, y: float) -> float:
    # piecewise-smooth composite; stand-in, not the externally defined mfc
    return math.sin(2 * math.pi * x) * math.cos(2 * math.pi * y) + 2.0 * (x + y > 1.0)


def _quadrants(x: float, y: float) -> float:
    return {(False, False): 1.0, (True, False): 4.0, (False, True): 7.0, (True, True): 10.0}[
        (x >= 0.5, y >= 0.5)
    ]


FIELDS: Dict[str, FieldFn] = {
    "blocks": _extrude(_blocks1d),
    "bumps": _extrude(_bumps1d),
    "heavisine": _extrude(_heavisine1d),
    "doppler": _extrude(_doppler1d),
    "g1": _g1_standin,
    "mfc": _mfc_standin,
    "quadrants": _quadrants,
}


def register_field(name: str, fn: FieldFn) -> None:
    """Add or replace a named field evaluator on [0,1]^2."""
    FIELDS[name] = fn


def get_field(name: str) -> FieldFn:
    try:
        return FIELDS[name]
    except KeyError:
        raise SimulationError(
            f"unknown field {name!r}; options: {', '.join(sorted(FIELDS))}"
        ) from None


# ---------------------------------------------------------------------------
# network sampling and embeddings

def sample_network(n: int, seed: int) -> Graph:
    """n uniform points on the unit square joined by their Euclidean MST.

    The tree is the exact all-pairs MST, ties broken by the `repr` order
    of the vertex ids 0..n-1, built by `graph._euclidean_mst` from the
    pairs within a radius.  Its work stays about n log n because the
    points are uniform: the first radius holds about log n + 8 points
    around each point, so the tree's longest edge rarely passes it, and
    each doubling of the radius, needed more rarely still, multiplies the
    pairs by about 4.  On clustered points that work would be quadratic,
    which is why the tree builder is private to this function.
    """
    _check_count(n, 3, "need at least 3 vertices", SimulationError)
    xy = _stream(seed, SUB_GRAPH, error=SimulationError).uniform(0.0, 1.0, size=(n, 2))
    vertices = list(enumerate(map(tuple, xy.tolist())))
    # each edge carries its tree weight, the length Graph would measure
    edges = [EdgeRec(j, u, v, w) for j, (u, v, w) in enumerate(_euclidean_mst(xy))]
    return Graph(vertices, edges)


def _endpoints(graph: Graph, e: EdgeRec):
    """The coordinates of edge `e`'s two ends, which a field needs."""
    if graph.coords[e.u] is None or graph.coords[e.v] is None:
        raise SimulationError(f"edge {e.id!r} has an endpoint without coordinates")
    return graph.coords[e.u], graph.coords[e.v]


def embed_pointwise(fn: FieldFn, graph: Graph) -> Dict[Id, float]:
    """Field value at each edge midpoint."""
    out = {}
    for e in graph.edges:
        (x1, y1), (x2, y2) = _endpoints(graph, e)
        out[e.id] = float(fn(0.5 * (x1 + x2), 0.5 * (y1 + y2)))
    return out


def embed_edge_average(fn: FieldFn, graph: Graph, n_samples: int = 100) -> Dict[Id, float]:
    """Field averaged over n_samples equispaced points along each edge."""
    _check_count(n_samples, 2, "edge averaging needs at least 2 samples", SimulationError)
    out = {}
    ts = np.linspace(0.0, 1.0, n_samples)
    for e in graph.edges:
        (x1, y1), (x2, y2) = _endpoints(graph, e)
        out[e.id] = float(
            np.mean([fn(x1 + t * (x2 - x1), y1 + t * (y2 - y1)) for t in ts])
        )
    return out


def normalize_unit_variance(values: Mapping[Id, float]) -> Dict[Id, float]:
    """Scale values so the sample variance is one; their sample SD must be
    finite and positive (not one value, constant, non-finite or overflowing).
    It is the SD of the values scaled by 2^-e, e the exponent of the largest
    |value|, scaled back: exact steps, so `np.std`'s where its squares are normal."""
    arr = np.array(list(values.values()), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.frexp(np.max(np.abs(arr), initial=0.0))[1]
        sd = float(np.ldexp(np.std(np.ldexp(arr, -e), ddof=1), e)) if arr.size > 1 else math.nan
    if not 0 < sd < math.inf:  # NaN too
        raise SimulationError(f"cannot normalize {arr.size} values with sample SD {sd}")
    return {k: v / sd for k, v in values.items()}


def add_noise(
    values: Mapping[Id, float], snr: float, seed: int
) -> Tuple[Dict[Id, float], float]:
    """Unit-variance normalization plus iid Gaussian noise at sigma = 1/SNR."""
    _check_snr(snr)
    normalized = normalize_unit_variance(values)
    sigma = 1.0 / snr
    rng = _stream(seed, SUB_NOISE, error=SimulationError)
    keys = list(normalized)
    noise = rng.normal(0.0, sigma, size=len(keys))
    return {k: normalized[k] + float(e) for k, e in zip(keys, noise)}, sigma


# ---------------------------------------------------------------------------
# metrics

@dataclass(frozen=True)
class MetricsReport:
    """Monte Carlo error decomposition over a Q x R x m estimate grid."""

    amse: float
    variance: float
    bias_sq: float
    amse_std: float      # spread of per-replication MSE


def compute_metrics(estimates: np.ndarray, truths: np.ndarray) -> MetricsReport:
    """AMSE, variance and squared bias from a complete result grid.

    `estimates` has shape (Q, R, m), `truths` (Q, m), every axis nonempty
    and every cell finite.  The variance uses the per-cell mean over the R
    replications with a 1/R denominator, so AMSE = Var + Bias^2 holds exactly.
    """
    estimates = np.asarray(estimates, dtype=float)
    truths = np.asarray(truths, dtype=float)
    if estimates.ndim != 3 or truths.shape != (estimates.shape[0], estimates.shape[2]):
        raise SimulationError(
            f"grid shapes mismatched: {estimates.shape} vs {truths.shape}"
        )
    if not estimates.size or not (np.isfinite(estimates).all() and np.isfinite(truths).all()):
        raise SimulationError(f"grid {estimates.shape} is empty or has missing or non-finite cells")
    err = estimates - truths[:, None, :]
    amse = float(np.mean(err**2))
    cell_mean = estimates.mean(axis=1)
    variance = float(np.mean((estimates - cell_mean[:, None, :]) ** 2))
    bias_sq = float(np.mean((cell_mean - truths) ** 2))
    per_rep = np.mean(err**2, axis=(0, 2))
    return MetricsReport(
        amse=amse, variance=variance, bias_sq=bias_sq, amse_std=float(np.std(per_rep))
    )


# ---------------------------------------------------------------------------
# river-flow fixture

def generate_flow_fixture(seed: int) -> Tuple[Graph, Dict[Id, float]]:
    """Random recursive tree of 80 vertices with cluster-piecewise flow values.

    Edges fall into 7 contiguous clusters (multi-source growth in the edge
    adjacency).  Values start at 9; whole clusters are repeatedly raised to
    levels drawn from {12, 15, 18} until more than 30 edges exceed 9.
    """
    rng = _stream(seed, SUB_FIXTURE, error=SimulationError)
    n = 80
    edges = []
    for i in range(1, n):
        parent = int(rng.integers(i))
        edges.append(EdgeRec(id=i - 1, u=parent, v=i, length=1.0))
    graph = Graph([(i, None) for i in range(n)], edges)

    # adjacency between edges sharing a vertex, for contiguous clusters
    incident: Dict[Id, List[int]] = {v: [] for v in range(n)}
    for e in edges:
        incident[e.u].append(e.id)
        incident[e.v].append(e.id)
    edge_adj: Dict[int, List[int]] = {e.id: [] for e in edges}
    for eids in incident.values():
        for i, a in enumerate(eids):
            for b in eids[i + 1 :]:
                edge_adj[a].append(b)
                edge_adj[b].append(a)

    m = len(edges)
    seeds = rng.choice(m, size=7, replace=False)
    cluster = {int(s): c for c, s in enumerate(seeds)}
    frontier = [int(s) for s in seeds]
    while frontier:
        nxt = []
        for a in frontier:
            for b in edge_adj[a]:
                if b not in cluster:
                    cluster[b] = cluster[a]
                    nxt.append(b)
        frontier = nxt

    values = {e.id: 9.0 for e in edges}
    levels = (12.0, 15.0, 18.0)
    while sum(1 for v in values.values() if v > 9.0) <= 30:
        c = int(rng.integers(7))
        # one draw per pick: the whole cluster moves to a common level,
        # keeping the signal piecewise constant over clusters
        new = levels[int(rng.integers(3))]
        for eid, cl in cluster.items():
            if cl == c:
                values[eid] = new
    return graph, values


# ---------------------------------------------------------------------------
# experiment drivers

@dataclass(frozen=True)
class ExperimentConfig:
    """Protocol parameters for the AMSE study on sampled networks."""

    n_vertices: int = 100
    n_graphs: int = 50
    n_replications: int = 100
    snr: float = 3.0
    embedding: str = "pointwise"        # or "edge_average"
    variant: str = "LG-Aid-c"
    field_name: str = "quadrants"
    master_seed: int = 0

    def __post_init__(self):
        for name in ("n_vertices", "n_graphs", "n_replications"):
            _check_count(getattr(self, name), 1, f"{name} must be an integer of at least 1",
                         SimulationError)
        _check_snr(self.snr)
        if self.embedding not in ("pointwise", "edge_average"):
            raise SimulationError(f"unknown embedding {self.embedding!r}")
        _check_count(self.master_seed, 0, _SEED, SimulationError)


def run_experiment(
    config: ExperimentConfig, shrink_config: ShrinkageConfig = ShrinkageConfig()
) -> MetricsReport:
    """Full Q x R denoising grid for one variant/field/SNR cell."""
    fn = get_field(config.field_name)
    lift_cfg = LiftingConfig.from_acronym(config.variant)
    Q, R = config.n_graphs, config.n_replications
    m = config.n_vertices - 1
    sigma = 1.0 / config.snr
    estimates = np.empty((Q, R, m))
    truths = np.empty((Q, m))
    for q in range(Q):
        graph = sample_network(config.n_vertices, seed=(config.master_seed * 1000 + q))
        lg = build_line_graph(graph)
        embed = embed_pointwise if config.embedding == "pointwise" else embed_edge_average
        g = normalize_unit_variance(embed(fn, graph))
        truths[q] = [g[k] for k in lg.ids]
        # add_noise's draws, without normalizing g a second time: lg.ids
        # follows graph.edges, the order add_noise draws in
        noise = np.column_stack([
            _stream((config.master_seed, q, r), SUB_NOISE, error=SimulationError).normal(0.0, sigma, m)
            for r in range(R)
        ])
        noisy = truths[q][:, None] + noise
        # plan, gains and levels are data-independent: one plan per graph
        estimates[q] = denoise(noisy, lg, lift_cfg, shrink_config).estimate_vector.T
    return compute_metrics(estimates, truths)


def condition_number_study(
    variant: str, n_graphs: int = 50, n_vertices: int = 100, seed: int = 0
) -> List[float]:
    """`condition_number(build_matrices(...))` over sampled networks, graph
    q drawn with seed `seed * 1000 + q`; it builds no inverse matrix."""
    _check_count(n_graphs, 1, "need at least 1 graph", SimulationError)
    _check_count(seed, 0, _SEED, SimulationError)
    cfg = LiftingConfig.from_acronym(variant)
    out = []
    for q in range(n_graphs):
        lg = build_line_graph(sample_network(n_vertices, seed=(seed * 1000 + q)))
        out.append(condition_number(build_matrices(lg, cfg)))
    return out


def flow_experiment(
    sigma: float,
    n_replications: int = 50,
    variant: str = "LG-Sid-p",
    seed: int = 0,
    nlt_trajectories: Optional[int] = None,
    shrink_config: ShrinkageConfig = ShrinkageConfig(),
) -> MetricsReport:
    """Denoising error on the flow fixture at a fixed noise level.

    With `nlt_trajectories` set, the averaged multi-trajectory estimator
    is used instead of a single run.  `sigma = 0` is valid: the noiseless
    column passes through the shrink core unchanged.
    """
    if isinstance(sigma, bool) or not (isinstance(sigma, numbers.Real) and 0 <= sigma < math.inf):
        raise SimulationError(f"noise level must be a finite nonnegative number, got {sigma}")
    _check_count(n_replications, 1, "need at least 1 replication", SimulationError)
    if nlt_trajectories is not None:
        _check_count(nlt_trajectories, 1, "need at least 1 trajectory", SimulationError)
    _check_count(seed, 0, _SEED, SimulationError)
    graph, values = generate_flow_fixture(seed)
    lg = build_line_graph(graph)
    cfg = LiftingConfig.from_acronym(variant)
    m = lg.m
    truths = np.array([[values[k] for k in lg.ids]])
    estimates = np.empty((1, n_replications, m))
    rngs = [_stream(seed, SUB_NOISE, r, error=SimulationError) for r in range(n_replications)]
    noisy = truths.T + np.array([rng.normal(0, sigma, m) for rng in rngs]).T
    if nlt_trajectories is None:
        estimates[0] = denoise(noisy, lg, cfg, shrink_config).estimate_vector.T
    else:
        for r, x in enumerate(noisy.T):
            res, _ = nlt_denoise(x, lg, cfg, shrink_config, nlt_trajectories, seed=seed * 100 + r)
            estimates[0, r] = res.estimate_vector
    return compute_metrics(estimates, truths)
