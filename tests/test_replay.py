"""The replay kernels against a scalar reference, and their batch form."""

import heapq
import math
import os
import subprocess
import sys
from itertools import accumulate, chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lglift
from lglift import lifting
from lglift.analysis import build_matrices
from lglift.graph import (
    DISTANCE_FLOOR_FRAC,
    LineGraph,
    MetricMode,
    build_line_graph,
)
from lglift.io import read_transform, write_transform
from lglift.lifting import (
    VARIANTS,
    IntegralScheme,
    LiftingConfig,
    LiftingStage,
    PredictionScheme,
    _replay_forward,
    _replay_inverse,
    forward,
    inverse,
)
from lglift.shrinkage import detail_gains, random_trajectories
from lglift.simulation import generate_flow_fixture, sample_network

from graph_reference import is_connected, minimum_spanning_tree


def reference_forward(values, record):
    """Scalar dict replay of the archived stages: the per-stage arithmetic of
    the transform as first written, before planning and replay were split."""
    coeffs = {k: float(values[k]) for k in record.ids}
    details = {}
    for st_ in record.stages:
        d = coeffs[st_.removed] - sum(w * coeffs[s] for w, s in zip(st_.a, st_.neighbors))
        for w, s in zip(st_.b, st_.neighbors):
            coeffs[s] += w * d
        details[st_.removed] = d
    return details, {k: coeffs[k] for k in record.surviving}


def reference_inverse(details, scaling, record):
    c = dict(scaling)
    for st_ in reversed(record.stages):
        d = details[st_.removed]
        for w, s in zip(st_.b, st_.neighbors):
            c[s] -= w * d
        c[st_.removed] = d + sum(w * c[s] for w, s in zip(st_.a, st_.neighbors))
    return c


def coincident_stations():
    """Stations graph in which k and s share a point (duplicate stations)."""
    adj = {
        "k": {"s", "t", "u"}, "s": {"k", "v"}, "t": {"k", "w"},
        "u": {"k"}, "v": {"s"}, "w": {"t"},
    }
    coords = {
        "k": (0.0, 0.0), "s": (0.0, 0.0), "t": (1.0, 0.5),
        "u": (-1.0, 2.0), "v": (0.3, -1.0), "w": (2.0, 1.0),
    }
    lengths = {k: 1.0 + 0.1 * i for i, k in enumerate(adj)}
    return LineGraph(list(adj), adj, coords=coords, edge_lengths=lengths)


#: removal orders of the transform as first written (planning interleaved
#: with the arithmetic), seed 0; the Delta variants start from all-equal
#: integrals, so their first pick is an RNG tie-break
PINNED_ORDERS = {
    "tree": {
        "LG-Sid-c": (2, 0, 5, 4), "LG-Sid-p": (0, 2, 5, 4),
        "LG-Snw-c": (2, 0, 5, 4), "LG-Snw-p": (0, 2, 5, 4),
        "LG-Aid-c": (2, 0, 5, 3), "LG-Aid-p": (0, 2, 5, 4),
        "LG-Anw-c": (2, 0, 5, 3), "LG-Anw-p": (0, 2, 5, 4),
        "LG-Did-c": (5, 2, 4, 0), "LG-Did-p": (5, 2, 4, 0),
        "LG-Dnw-c": (5, 2, 4, 0), "LG-Dnw-p": (5, 2, 4, 0),
    },
    "coincident": {
        "LG-Sid-c": ("v", "w", "s", "u"), "LG-Sid-p": ("u", "v", "w", "s"),
        "LG-Snw-c": ("v", "w", "s", "u"), "LG-Snw-p": ("u", "v", "w", "s"),
        "LG-Aid-c": ("s", "v", "w", "u"), "LG-Aid-p": ("k", "v", "w", "u"),
        "LG-Anw-c": ("s", "w", "v", "u"), "LG-Anw-p": ("k", "v", "w", "u"),
        "LG-Did-c": ("w", "u", "v", "k"), "LG-Did-p": ("w", "u", "v", "k"),
        "LG-Dnw-c": ("w", "u", "v", "k"), "LG-Dnw-p": ("w", "u", "v", "k"),
    },
}


@pytest.fixture(scope="module")
def graphs():
    return {
        "mst": build_line_graph(sample_network(100, seed=7)),
        "tree": build_line_graph(sample_network(7, seed=42)),
        "coincident": coincident_stations(),
    }


def _values(lg, seed):
    rng = np.random.default_rng(seed)
    return {k: float(v) for k, v in zip(lg.ids, rng.normal(size=lg.m))}


@pytest.mark.parametrize("acr", VARIANTS)
@pytest.mark.parametrize("gname", ["mst", "tree", "coincident"])
def test_kernels_match_scalar_reference(graphs, gname, acr):
    lg = graphs[gname]
    values = _values(lg, seed=3)
    coeffs, record = forward(values, lg, LiftingConfig.from_acronym(acr))
    if gname in PINNED_ORDERS:
        assert record.removal_order == PINNED_ORDERS[gname][acr]
    details, scaling = reference_forward(values, record)
    assert max(abs(coeffs.details[k] - d) for k, d in details.items()) <= 1e-12
    assert max(abs(coeffs.scaling[k] - c) for k, c in scaling.items()) <= 1e-12
    expect = reference_inverse(details, scaling, record)
    got = inverse(coeffs, record)
    assert max(abs(got[k] - expect[k]) for k in lg.ids) <= 1e-12


@pytest.mark.parametrize("acr", ["LG-Aid-c", "LG-Sid-p", "LG-Dnw-c"])
def test_batch_equals_single_columns(graphs, acr):
    lg = graphs["mst"]
    _, record = forward({k: 0.0 for k in lg.ids}, lg, LiftingConfig.from_acronym(acr))
    X = np.random.default_rng(4).normal(size=(lg.m, 5))
    fwd = _replay_forward(record, X)
    inv = _replay_inverse(record, X)
    assert fwd.shape == inv.shape == X.shape
    for j in range(X.shape[1]):
        assert np.max(np.abs(fwd[:, j] - _replay_forward(record, X[:, j]))) <= 1e-12
        assert np.max(np.abs(inv[:, j] - _replay_inverse(record, X[:, j]))) <= 1e-12
    # the kernels leave their input alone
    assert np.array_equal(X, np.random.default_rng(4).normal(size=(lg.m, 5)))


def _csr_plan(record):
    """The record as CSR over slots, the kernels' earlier form:
    (offsets, nbr, a, b, order).  Slot i is the i-th coefficient of the
    canonical order, so stage i removes slot i; its neighbour slots and
    filter entries sit at offsets[i]:offsets[i + 1] of nbr, a and b, and
    order[slot] is the slot's line-graph position."""
    pos = {k: i for i, k in enumerate(record.ids)}
    canonical = record.removal_order + tuple(sorted(record.surviving, key=pos.__getitem__))
    slot = {k: i for i, k in enumerate(canonical)}
    return (
        (0, *accumulate(len(st_.neighbors) for st_ in record.stages)),
        tuple(slot[s] for st_ in record.stages for s in st_.neighbors),
        tuple(chain.from_iterable(st_.a for st_ in record.stages)),
        tuple(chain.from_iterable(st_.b for st_ in record.stages)),
        tuple(pos[k] for k in canonical),
    )


def _csr_forward_slots(plan, W):
    """The earlier forward kernel on W with rows in slot order."""
    offsets, nbr, a, b, _ = plan
    x = W.tolist() if W.ndim == 1 else list(W)
    for i in range(len(offsets) - 1):
        lo, hi = offsets[i], offsets[i + 1]
        pred = 0.0
        for j in range(lo, hi):
            pred += a[j] * x[nbr[j]]
        x[i] -= pred
        d = x[i]
        for j in range(lo, hi):
            x[nbr[j]] += b[j] * d
    return W if W.ndim > 1 else np.array(x)


def csr_forward(record, X):
    plan = _csr_plan(record)
    return _csr_forward_slots(plan, np.asarray(X, dtype=float)[list(plan[4])])


def csr_inverse(record, C):
    offsets, nbr, a, b, order = _csr_plan(record)
    W = np.array(C, dtype=float)
    x = W.tolist() if W.ndim == 1 else list(W)
    for i in reversed(range(len(offsets) - 1)):
        lo, hi = offsets[i], offsets[i + 1]
        d = x[i]
        for j in range(lo, hi):
            x[nbr[j]] -= b[j] * d
        pred = 0.0
        for j in range(lo, hi):
            pred += a[j] * x[nbr[j]]
        x[i] += pred
    out = np.empty_like(W)
    out[list(order)] = W if W.ndim > 1 else x
    return out


def csr_gains(record):
    """The identity replayed in slot order, `GAIN_BLOCK` columns at a time."""
    plan = _csr_plan(record)
    m, n = len(record.ids), len(record.stages)
    slot = np.empty(m, dtype=np.intp)
    slot[list(plan[4])] = np.arange(m)
    squares = np.zeros(n)
    for lo in range(0, m, lifting.GAIN_BLOCK):
        width = min(lifting.GAIN_BLOCK, m - lo)
        block = np.zeros((m, width))
        block[slot[lo : lo + width], np.arange(width)] = 1.0
        rows = _csr_forward_slots(plan, block)[:n]
        squares += np.einsum("ij,ij->i", rows, rows)
    return np.sqrt(squares)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).tobytes()


def assert_kernels_match_csr(record):
    """Forward, inverse and gains are bitwise those of the CSR kernels."""
    m = len(record.ids)
    rng = np.random.default_rng(m)
    for X in (rng.normal(size=m), rng.normal(size=(m, 5))):
        assert _bits(_replay_forward(record, X)) == _bits(csr_forward(record, X))
        assert _bits(_replay_inverse(record, X)) == _bits(csr_inverse(record, X))
    assert _bits(detail_gains(record)) == _bits(csr_gains(record))


@pytest.mark.parametrize(
    "net, acr",
    [("mst", acr) for acr in VARIANTS] + [("flow", acr) for acr in VARIANTS if acr.endswith("-p")],
)
def test_kernels_match_csr_kernels_bitwise(graphs, net, acr):
    lg = graphs["mst"] if net == "mst" else build_line_graph(generate_flow_fixture(0)[0])
    config = LiftingConfig.from_acronym(acr)
    zeros = dict.fromkeys(lg.ids, 0.0)
    for trajectory in (None, *random_trajectories(lg, config, 2, seed=11)):
        assert_kernels_match_csr(forward(zeros, lg, config, trajectory=trajectory)[1])


@pytest.mark.parametrize("acr", ["LG-Aid-c", "LG-Sid-p"])
def test_kernels_match_csr_kernels_on_a_record_read_from_file(graphs, tmp_path, acr):
    lg = graphs["mst"]
    coeffs, record = forward(_values(lg, seed=6), lg, LiftingConfig.from_acronym(acr))
    prefix = str(tmp_path / "t")
    write_transform(prefix, coeffs, record)
    coeffs2, record2 = read_transform(prefix)
    assert record2 is not record
    assert_kernels_match_csr(record2)
    back = inverse(coeffs2, record2)
    assert _bits([back[k] for k in lg.ids]) == _bits(csr_inverse(record2, coeffs2.vector))


@pytest.mark.parametrize("acr", ["LG-Aid-c", "LG-Sid-p"])
def test_detail_gains_are_forward_matrix_row_norms(graphs, acr):
    lg = graphs["mst"]
    mats = build_matrices(lg, LiftingConfig.from_acronym(acr))
    gains = detail_gains(mats.record)
    n = len(mats.record.stages)
    norms = np.linalg.norm(mats.forward_matrix[:n], axis=1)
    assert gains.shape == (len(mats.record.removal_order),)
    assert np.max(np.abs(gains - norms)) <= 1e-12


def _full_dijkstra(adjacency, edge_dist, source):
    """Distances from `source` to every vertex it reaches."""
    dist = {source: 0.0}
    heap = [(0.0, 0, source)]
    counter = 0
    done = set()
    while heap:
        d, _, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for s in adjacency[u]:
            nd = d + edge_dist[frozenset((u, s))]
            if nd < dist.get(s, math.inf):
                dist[s] = nd
                counter += 1
                heapq.heappush(heap, (nd, counter, s))
    return dist


def reference_weights(distances, scheme):
    """The prediction filter as the package's former `predict_weights` gave
    it, frozen, so the planner's `_weights` is not checked against itself:
    uniform for the moving average, else the reciprocals over their sum."""
    if scheme is PredictionScheme.MOVING_AVERAGE:
        return [1.0 / len(distances)] * len(distances)
    inv = [1.0 / d for d in distances]
    total = sum(inv)
    return [w / total for w in inv]


class ReferencePlanner:
    """The planner as first written, on line-graph ids: an adjacency of id
    sets and a distance per frozenset pair.  Each stage scans every live
    integral for the minimum, and each path-metric relink searches the
    whole graph from every neighbour.  Integrals are summed over
    neighbours in position order, and each added edge is written (earlier
    position, later position)."""

    def __init__(self, lg, config):
        self.lg, self.config = lg, config
        self.position = lg.index.__getitem__
        self.adjacency = {k: set() for k in lg.ids}
        for p in lg.edges():
            for k in p:
                self.adjacency[k] |= p - {k}
        if config.metric_mode is MetricMode.COORDINATE:
            xs = [c[0] for c in lg.coords.values()]
            ys = [c[1] for c in lg.coords.values()]
            diag = math.hypot(max(xs) - min(xs), max(ys) - min(ys))
            floor = DISTANCE_FLOOR_FRAC * diag if diag > 0 else DISTANCE_FLOOR_FRAC
            self.pair_distance = lambda k, l: max(math.dist(lg.coords[k], lg.coords[l]), floor)
            self.edge_dist = {p: self.pair_distance(*p) for p in lg.edges()}
        else:
            self.pair_distance = None
            self.edge_dist = {p: 0.5 * sum(lg.edge_lengths[k] for k in p) for p in lg.edges()}
        self.integrals = {}
        for k in lg.ids:
            nbrs = sorted(self.adjacency[k], key=self.position)
            total = sum(self.edge_dist[frozenset((k, s))] for s in nbrs)
            self.integrals[k] = {
                IntegralScheme.SUM: total,
                IntegralScheme.AVERAGE: total / (2.0 * len(nbrs)),
                IntegralScheme.DELTA: 1.0,
            }[config.integral_scheme]
        self.active = set(lg.ids)
        self.rng = np.random.default_rng(config.rng_seed)

    def choose_next(self):
        live = [(k, self.integrals[k]) for k in self.active]
        imin = min(I for _, I in live)
        candidates = sorted((k for k, I in live if I == imin), key=self.position)
        if len(candidates) == 1:
            return candidates[0]
        return candidates[self.rng.integers(len(candidates))]

    def lift_stage(self, k, stage):
        neighbors = sorted(self.adjacency[k], key=self.position)
        dists = [self.edge_dist[frozenset((k, s))] for s in neighbors]
        a = reference_weights(dists, self.config.prediction_scheme)
        Ik = self.integrals[k]
        for w, s in zip(a, neighbors):
            self.integrals[s] = self.integrals[s] + w * Ik
        denom = sum(self.integrals[s] ** 2 for s in neighbors)
        b = [self.integrals[s] * Ik / denom for s in neighbors]

        pairs = [(u, v) for i, u in enumerate(neighbors) for v in neighbors[i + 1 :]]
        mutual = None
        if pairs and not is_connected(neighbors, [p for p in pairs if p[1] in self.adjacency[p[0]]]):
            if self.pair_distance is not None:
                mutual = [(u, v, self.pair_distance(u, v)) for u, v in pairs]
            else:
                full = {u: _full_dijkstra(self.adjacency, self.edge_dist, u) for u in neighbors}
                mutual = [(u, v, full[u][v]) for u, v in pairs]
        for s in self.adjacency.pop(k):
            self.adjacency[s].discard(k)
            del self.edge_dist[frozenset((k, s))]
        self.active.discard(k)
        added = []
        for u, v, w in minimum_spanning_tree(neighbors, mutual) if mutual else ():
            if v not in self.adjacency[u]:
                self.adjacency[u].add(v)
                self.adjacency[v].add(u)
                self.edge_dist[frozenset((u, v))] = w
                added.append((u, v, w))
        return LiftingStage(stage, k, tuple(neighbors), tuple(a), tuple(b), Ik, tuple(added))


def assert_same_plan(lg, config, trajectory=None):
    """`forward`'s record equals the reference planner's, field for field."""
    _, record = forward({k: 0.0 for k in lg.ids}, lg, config, trajectory=trajectory)
    ref = ReferencePlanner(lg, config)
    initial = dict(ref.integrals)
    stages = tuple(
        ref.lift_stage(ref.choose_next() if trajectory is None else trajectory[i], lg.m - i)
        for i in range(lg.m - config.tau)
    )
    assert record.stages == stages
    assert record.initial_integrals == initial
    assert record.final_integrals == {k: ref.integrals[k] for k in ref.active}


@pytest.mark.parametrize("acr", VARIANTS)
@pytest.mark.parametrize("gname", ["mst", "coincident"])
def test_planner_matches_reference(graphs, gname, acr):
    assert_same_plan(graphs[gname], LiftingConfig.from_acronym(acr))


@pytest.mark.parametrize("acr", [v for v in VARIANTS if v.endswith("-p")])
def test_planner_matches_reference_on_flow_fixture(acr):
    graph, _ = generate_flow_fixture(0)
    lg = build_line_graph(graph)
    config = LiftingConfig.from_acronym(acr)
    assert_same_plan(lg, config)
    rng = np.random.default_rng(5)
    for _ in range(3):
        order = [lg.ids[i] for i in rng.permutation(lg.m)[: lg.m - config.tau]]
        assert_same_plan(lg, config, trajectory=order)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("acr", [v for v in VARIANTS if v.endswith("-p")])
def test_fixed_order_planner_matches_reference(acr, seed):
    """The planner without a chooser, on the trajectories NLT draws."""
    graph, _ = generate_flow_fixture(seed)
    lg = build_line_graph(graph)
    config = LiftingConfig.from_acronym(acr)
    for order in random_trajectories(lg, config, 10, seed):
        assert_same_plan(lg, config, trajectory=order)


@st.composite
def coincident_stations_graphs(draw):
    """A random connected stations graph whose stations sit on a 3 x 3 grid
    (so many coincide) and whose lengths take two values (so Sum and Average
    integrals tie as well as Delta ones).  A drawn flag relabels the
    positions with a mix of int and str ids, as `io` parses them, so that
    `repr` order, int order and position order all disagree."""
    m = draw(st.integers(3, 25))
    adj = {i: set() for i in range(m)}
    for i in range(1, m):
        j = draw(st.integers(0, i - 1))
        adj[i].add(j)
        adj[j].add(i)
    for i, j in draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)), max_size=m)):
        if i != j:
            adj[i].add(j)
            adj[j].add(i)
    point = st.tuples(st.sampled_from([0.0, 1.0, 2.0]), st.sampled_from([0.0, 1.0, 2.0]))
    coords = {i: draw(point) for i in range(m)}
    lengths = {i: draw(st.sampled_from([1.0, 2.0])) for i in range(m)}
    ids = list(range(m))
    if draw(st.booleans()):
        mixed = st.one_of(st.integers(0, 99), st.from_regex(r"[ab][0-9]?", fullmatch=True))
        ids = draw(st.lists(mixed, min_size=m, max_size=m, unique=True))
        adj = {ids[i]: {ids[j] for j in adj[i]} for i in range(m)}
        coords = {ids[i]: coords[i] for i in range(m)}
        lengths = {ids[i]: lengths[i] for i in range(m)}
    return LineGraph(ids, adj, coords=coords, edge_lengths=lengths)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(4, 60), rng_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 10_000))
def test_planner_matches_reference_on_random_msts(n, rng_seed, seed):
    lg = build_line_graph(sample_network(n, seed=seed))
    for acr in VARIANTS:
        assert_same_plan(lg, LiftingConfig.from_acronym(acr, rng_seed=rng_seed))


@settings(max_examples=30, deadline=None)
@given(lg=coincident_stations_graphs(), rng_seed=st.integers(0, 2**32 - 1))
def test_planner_matches_reference_on_coincident_stations(lg, rng_seed):
    for acr in VARIANTS:
        assert_same_plan(lg, LiftingConfig.from_acronym(acr, rng_seed=rng_seed))


@settings(max_examples=15, deadline=None)
@given(n=st.integers(4, 40), seed=st.integers(0, 10_000))
def test_inverse_undoes_forward_on_random_msts(n, seed):
    lg = build_line_graph(sample_network(n, seed=seed))
    values = _values(lg, seed)
    scale = max(abs(v) for v in values.values())
    for acr in VARIANTS:
        coeffs, record = forward(values, lg, LiftingConfig.from_acronym(acr))
        rec = inverse(coeffs, record)
        assert max(abs(rec[k] - values[k]) for k in lg.ids) / scale <= 1e-8, acr


LATTICE_PLANS = """
from lglift.graph import EdgeRec, Graph, build_line_graph
from lglift.io import serialize_line_graph
from lglift.lifting import VARIANTS, LiftingConfig, forward

n = 6
vertices = [(f"v{i}.{j}", (float(i), float(j))) for i in range(n) for j in range(n)]
edges = [EdgeRec(f"x{i}.{j}", f"v{i}.{j}", f"v{i + 1}.{j}") for i in range(n - 1) for j in range(n)]
edges += [EdgeRec(f"y{i}.{j}", f"v{i}.{j}", f"v{i}.{j + 1}") for i in range(n) for j in range(n - 1)]
lg = build_line_graph(Graph(vertices, edges))
for acr in VARIANTS:
    _, record = forward(dict.fromkeys(lg.ids, 0.0), lg, LiftingConfig.from_acronym(acr))
    print(acr, record.stages, record.initial_integrals, record.final_integrals)
print("stations", repr(serialize_line_graph(lg)))
"""


def test_same_plan_in_every_process():
    """String ids hash differently in every process; the plans and the
    stations file must not."""
    src = os.path.dirname(os.path.dirname(lglift.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = [
        subprocess.run(
            [sys.executable, "-c", LATTICE_PLANS],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
            capture_output=True, text=True, check=True, timeout=300,
        ).stdout
        for seed in ("1", "2")
    ]
    plans = [out.splitlines() for out in outs]
    assert [line.split()[0] for line in plans[0]] == [*VARIANTS, "stations"]
    for acr, plan1, plan2 in zip([*VARIANTS, "stations"], *plans):
        assert plan1 == plan2, acr
