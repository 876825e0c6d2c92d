import hashlib
import math

import numpy as np
import pytest

import lglift.analysis
import lglift.shrinkage
import lglift.simulation
from lglift.analysis import build_matrices, condition_number
from lglift.graph import EdgeRec, Graph, build_line_graph
from lglift.lifting import VARIANTS, LiftingConfig, forward, inverse
from lglift.shrinkage import random_trajectories
from lglift.simulation import (
    FIELDS,
    SUB_NOISE,
    ExperimentConfig,
    SimulationError,
    add_noise,
    compute_metrics,
    condition_number_study,
    embed_edge_average,
    embed_pointwise,
    flow_experiment,
    generate_flow_fixture,
    get_field,
    normalize_unit_variance,
    register_field,
    run_experiment,
    sample_network,
)

import graph_reference


class TestFields:
    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_finite_on_unit_square(self, name):
        fn = get_field(name)
        for x in np.linspace(0, 1, 11):
            for y in np.linspace(0, 1, 11):
                assert math.isfinite(fn(float(x), float(y)))

    def test_unknown_name(self):
        with pytest.raises(SimulationError, match="unknown field"):
            get_field("nope")

    def test_register_custom(self):
        register_field("flat7", lambda x, y: 7.0)
        assert get_field("flat7")(0.2, 0.9) == 7.0
        FIELDS.pop("flat7")


class TestSampleNetwork:
    def test_three_vertices_shorter_two_links(self):
        g = sample_network(3, seed=0)
        pts = {v: c for v, c in g.coords.items()}
        dists = {
            frozenset((a, b)): math.dist(pts[a], pts[b])
            for a in pts
            for b in pts
            if a < b
        }
        kept = {frozenset((e.u, e.v)) for e in g.edges}
        dropped = set(dists) - kept
        assert len(dropped) == 1
        assert all(dists[k] <= dists[next(iter(dropped))] for k in kept)

    def test_deterministic(self):
        a, b = sample_network(20, seed=4), sample_network(20, seed=4)
        assert a.coords == b.coords
        assert [(e.u, e.v) for e in a.edges] == [(e.u, e.v) for e in b.edges]

    def test_n100_gives_99_edges_connected(self):
        g = sample_network(100, seed=1)
        assert g.m == 99 and graph_reference.is_connected(g.coords, [(e.u, e.v) for e in g.edges])


class TestEmbeddings:
    @pytest.fixture
    def segment_graph(self):
        return Graph(
            [(0, (0.0, 0.2)), (1, (1.0, 0.2)), (2, (1.0, 1.0))],
            [EdgeRec("a", 0, 1), EdgeRec("b", 1, 2)],
        )

    def test_pointwise_linear_field(self, segment_graph):
        vals = embed_pointwise(lambda x, y: x, segment_graph)
        assert vals["a"] == pytest.approx(0.5)

    def test_pointwise_constant(self, segment_graph):
        vals = embed_pointwise(lambda x, y: 3.0, segment_graph)
        assert set(vals.values()) == {3.0}

    def test_average_equals_pointwise_for_linear(self, segment_graph):
        lin = lambda x, y: 2.0 * x - 5.0 * y + 1.0
        pw = embed_pointwise(lin, segment_graph)
        ea = embed_edge_average(lin, segment_graph, 100)
        for k in pw:
            assert ea[k] == pytest.approx(pw[k], abs=1e-12)

    def test_step_crossing_midpoint(self, segment_graph):
        step = lambda x, y: 1.0 if x > 0.5 else 0.0
        ea = embed_edge_average(step, segment_graph, 100)
        assert ea["a"] == pytest.approx(0.5)

    def test_too_few_samples(self, segment_graph):
        with pytest.raises(SimulationError):
            embed_edge_average(lambda x, y: x, segment_graph, 1)

    def test_fractional_samples_rejected(self, segment_graph):
        with pytest.raises(SimulationError, match="at least 2 samples, got 3.5"):
            embed_edge_average(lambda x, y: x, segment_graph, 3.5)

    @pytest.mark.parametrize("embed", [embed_pointwise, embed_edge_average])
    def test_vertices_without_coordinates_rejected(self, embed):
        graph, _ = generate_flow_fixture(0)
        with pytest.raises(SimulationError, match="edge 0 has an endpoint without coordinates"):
            embed(lambda x, y: x, graph)


#: `normalize_unit_variance`, and `add_noise`, which normalizes first
NORMALIZERS = [normalize_unit_variance, lambda values: add_noise(values, snr=3.0, seed=0)]


class TestNoise:
    def test_sigma_from_snr(self, rng):
        values = {i: float(v) for i, v in enumerate(rng.normal(size=50))}
        _, sigma = add_noise(values, snr=5.0, seed=0)
        assert sigma == pytest.approx(0.2)

    def test_deterministic(self, rng):
        values = {i: float(v) for i, v in enumerate(rng.normal(size=50))}
        a, _ = add_noise(values, snr=3.0, seed=9)
        b, _ = add_noise(values, snr=3.0, seed=9)
        assert a == b

    def test_constant_rejected(self):
        with pytest.raises(SimulationError, match="cannot normalize"):
            add_noise({0: 1.0, 1: 1.0}, snr=3.0, seed=0)

    # each rejected without a NumPy warning on the way
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("normalize", NORMALIZERS)
    def test_one_value_rejected(self, normalize):
        with pytest.raises(SimulationError, match="cannot normalize 1 values"):
            normalize({1: 5.0})

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("normalize", NORMALIZERS)
    def test_non_finite_value_rejected(self, normalize, bad):
        with pytest.raises(SimulationError, match="with sample SD nan"):
            normalize({1: 1.0, 2: bad, 3: 2.0})

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("normalize", NORMALIZERS)
    def test_overflowing_spread_rejected(self, normalize):
        # sample SD sqrt(2) * 1.7e308: beyond the largest float
        with pytest.raises(SimulationError, match="with sample SD inf"):
            normalize({1: 1.7e308, 2: -1.7e308})

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("big", [1e200, 1e308])
    def test_overflowing_squares_normalized(self, big):
        # the SD, sqrt(2) * big, is finite though the squares of the values are not
        normalized = normalize_unit_variance({1: big, 2: -big})
        assert normalized == pytest.approx({1: 0.5**0.5, 2: -(0.5**0.5)}, rel=1e-15)

    def test_sd_is_bitwise_numpy_std(self):
        """Where the squares stay normal, the power-of-two scaled SD is
        bitwise `np.std`'s, from 1e-100 to 1e100."""
        rng = np.random.default_rng(20)
        for _ in range(500):
            x = rng.normal(rng.normal(), 1.0, rng.integers(2, 100)) * 10.0 ** rng.uniform(-100, 100)
            values = dict(enumerate(x.tolist()))
            sd = float(np.std(x, ddof=1))
            assert normalize_unit_variance(values) == {k: v / sd for k, v in values.items()}

    def test_noise_variance_calibrated(self, rng):
        values = {i: float(v) for i, v in enumerate(rng.normal(size=10**6))}
        normalized = normalize_unit_variance(values)
        noisy, sigma = add_noise(values, snr=3.0, seed=0)
        draws = np.array([noisy[k] - normalized[k] for k in values])
        assert np.var(draws) == pytest.approx(1.0 / 9.0, rel=0.01)


class TestMetrics:
    def test_perfect_estimates(self):
        est = np.zeros((2, 3, 4))
        truth = np.zeros((2, 4))
        rep = compute_metrics(est, truth)
        assert rep.amse == rep.variance == rep.bias_sq == 0.0

    def test_constant_offset_is_pure_bias(self, rng):
        truth = rng.normal(size=(2, 4))
        est = np.repeat(truth[:, None, :], 3, axis=1) + 0.5
        rep = compute_metrics(est, truth)
        assert rep.variance == pytest.approx(0.0, abs=1e-15)
        assert rep.bias_sq == pytest.approx(0.25)
        assert rep.amse == pytest.approx(0.25)

    def test_matches_triple_loop_oracle(self, rng):
        Q, R, m = 2, 3, 2
        est = rng.normal(size=(Q, R, m))
        truth = rng.normal(size=(Q, m))
        rep = compute_metrics(est, truth)
        amse = sum(
            (est[q, r, k] - truth[q, k]) ** 2
            for q in range(Q)
            for r in range(R)
            for k in range(m)
        ) / (Q * R * m)
        bias = 0.0
        for q in range(Q):
            for k in range(m):
                gbar = sum(est[q, r, k] for r in range(R)) / R
                bias += (gbar - truth[q, k]) ** 2
        bias /= Q * m
        assert rep.amse == pytest.approx(amse, abs=1e-12)
        assert rep.bias_sq == pytest.approx(bias, abs=1e-12)
        assert rep.amse == pytest.approx(rep.variance + rep.bias_sq, abs=1e-12)

    @pytest.mark.parametrize("shape", [(1, 0, 5), (0, 2, 5), (1, 2, 0)])
    def test_empty_grid_rejected(self, shape):
        with pytest.raises(SimulationError, match="is empty"):
            compute_metrics(np.zeros(shape), np.zeros((shape[0], shape[2])))

    def test_missing_cells_rejected(self):
        est = np.zeros((1, 2, 3))
        est[0, 1, 1] = np.nan
        with pytest.raises(SimulationError, match="missing"):
            compute_metrics(est, np.zeros((1, 3)))


class TestFlowFixture:
    def test_values_from_allowed_set(self):
        _, values = generate_flow_fixture(3)
        assert len(values) == 79
        assert set(values.values()) <= {9.0, 12.0, 15.0, 18.0}

    def test_stopping_rule(self):
        for seed in range(5):
            _, values = generate_flow_fixture(seed)
            assert sum(1 for v in values.values() if v > 9.0) >= 31

    def test_deterministic(self):
        g1, v1 = generate_flow_fixture(8)
        g2, v2 = generate_flow_fixture(8)
        assert v1 == v2
        assert [(e.u, e.v) for e in g1.edges] == [(e.u, e.v) for e in g2.edges]

    def test_tree_shape(self):
        g, _ = generate_flow_fixture(0)
        edges = [(e.u, e.v) for e in g.edges]
        assert g.n == 80 and g.m == 79 and graph_reference.is_connected(g.coords, edges)

    def test_serialization_round_trip_bit_exact(self, tmp_path):
        from lglift.io import parse_graph, write_graph

        g, values = generate_flow_fixture(1)
        edges = [EdgeRec(e.id, e.u, e.v, e.length, values[e.id]) for e in g.edges]
        g2 = Graph([(v, None) for v in g.coords], edges)
        path = tmp_path / "flow.graph"
        write_graph(str(path), g2)
        back = parse_graph(str(path))
        assert {e.id: e.value for e in back.edges} == values


class TestRunExperiment:
    def test_smoke_small(self):
        cfg = ExperimentConfig(
            n_vertices=10, n_graphs=1, n_replications=1, snr=3.0, master_seed=0
        )
        rep = run_experiment(cfg)
        assert math.isfinite(rep.amse)
        assert rep.amse == pytest.approx(rep.variance + rep.bias_sq, abs=1e-10)

    def test_edge_average_embedding(self):
        rep = run_experiment(
            ExperimentConfig(n_vertices=20, n_graphs=2, n_replications=3, embedding="edge_average")
        )
        assert all(math.isfinite(v) for v in (rep.amse, rep.variance, rep.bias_sq, rep.amse_std))
        assert rep.amse == pytest.approx(rep.variance + rep.bias_sq, abs=1e-10)

    def test_batch_is_truth_plus_substream_draws(self, monkeypatch):
        # master seed 0: normalizing either graph's unit-variance truth a
        # second time changes the last bits of its values, which the
        # replicates must not carry
        run = lglift.simulation.denoise
        batches = []

        def capture(values, *args, **kwargs):
            batches.append(np.array(values))
            return run(values, *args, **kwargs)

        monkeypatch.setattr(lglift.simulation, "denoise", capture)
        run_experiment(ExperimentConfig(n_vertices=20, n_graphs=2, n_replications=3, snr=3.0))
        assert len(batches) == 2
        for q, X in enumerate(batches):
            graph = sample_network(20, seed=q)
            lg = build_line_graph(graph)
            g = normalize_unit_variance(embed_pointwise(get_field("quadrants"), graph))
            truth = np.array([g[k] for k in lg.ids])
            draws = [
                np.random.default_rng((0, q, r, SUB_NOISE)).normal(0.0, 1.0 / 3.0, lg.m)
                for r in range(3)
            ]
            assert X.tobytes() == (truth[:, None] + np.column_stack(draws)).tobytes()

    def test_invalid_config(self):
        with pytest.raises(SimulationError):
            ExperimentConfig(n_graphs=0)
        with pytest.raises(SimulationError):
            ExperimentConfig(embedding="weird")

    def test_negative_seed_rejected(self):
        with pytest.raises(SimulationError, match="seed must be a nonnegative integer"):
            ExperimentConfig(n_vertices=12, n_graphs=1, n_replications=1, master_seed=-1)

    def test_fractional_replications_rejected(self):
        with pytest.raises(SimulationError, match="n_replications must be an integer .*got 2.5"):
            ExperimentConfig(n_replications=2.5)

    def test_one_forward_per_graph(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return forward(*args, **kwargs)

        monkeypatch.setattr(lglift.shrinkage, "forward", counted)
        run_experiment(ExperimentConfig(n_vertices=20, n_graphs=2, n_replications=3))
        assert len(calls) == 2
        flow_experiment(1.0, n_replications=3)
        assert len(calls) == 3


class TestFlowExperiment:
    def test_negative_sigma_rejected(self):
        with pytest.raises(SimulationError, match="nonnegative"):
            flow_experiment(-1.0, n_replications=2)

    def test_no_replications_rejected(self):
        with pytest.raises(SimulationError, match="at least 1 replication"):
            flow_experiment(1.0, n_replications=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(SimulationError, match="seed must be a nonnegative integer"):
            flow_experiment(1.0, n_replications=1, seed=-1)

    def test_fractional_replications_rejected(self):
        with pytest.raises(SimulationError, match="at least 1 replication, got 2.5"):
            flow_experiment(0.5, n_replications=2.5)

    def test_fractional_seed_rejected(self):
        with pytest.raises(SimulationError, match="seed must be a nonnegative integer, got 1.5"):
            flow_experiment(0.5, seed=1.5)


class TestConditionNumberStudy:
    @pytest.mark.parametrize("n_graphs", [0, -1])
    def test_needs_a_graph(self, n_graphs):
        with pytest.raises(SimulationError, match="at least 1 graph"):
            condition_number_study("LG-Aid-c", n_graphs=n_graphs, n_vertices=20)

    def test_negative_seed_rejected(self):
        with pytest.raises(SimulationError, match="seed must be a nonnegative integer"):
            condition_number_study("LG-Aid-c", n_graphs=1, n_vertices=20, seed=-1)

    def test_bool_graph_count_rejected(self):
        # True is an int to Python, and once ran one graph
        with pytest.raises(SimulationError, match="at least 1 graph, got True"):
            condition_number_study("LG-Aid-c", n_graphs=True, n_vertices=20)

    @pytest.mark.parametrize("acr", VARIANTS)
    def test_kappa_is_that_of_build_matrices(self, acr):
        # the study builds no inverse matrix, and its kappa keeps every bit
        kappas = condition_number_study(acr, n_graphs=2, n_vertices=40, seed=3)
        cfg = LiftingConfig.from_acronym(acr)
        graphs = [build_line_graph(sample_network(40, seed=3000 + q)) for q in range(2)]
        want = [condition_number(build_matrices(lg, cfg)) for lg in graphs]
        assert np.array(kappas).tobytes() == np.array(want).tobytes()

    def test_builds_no_inverse(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return inverse(*args, **kwargs)

        for module in (lglift.analysis, lglift.shrinkage):
            monkeypatch.setattr(module, "inverse", counted)
        assert len(condition_number_study("LG-Aid-c", n_graphs=2, n_vertices=20)) == 2
        assert not calls


@pytest.mark.parametrize(
    "call",
    [
        lambda: sample_network(10, seed=-1),
        lambda: generate_flow_fixture(-1),
        lambda: add_noise({1: 1.0, 2: 2.0}, 3.0, seed=(0, -1, 0)),
    ],
    ids=["sample_network", "generate_flow_fixture", "add_noise"],
)
def test_negative_substream_seed_rejected(call):
    with pytest.raises(SimulationError, match="seed must be a nonnegative integer"):
        call()


@pytest.mark.parametrize("seed", [(), [], -1, 1.0, True], ids=repr)
@pytest.mark.parametrize(
    "call",
    [
        lambda seed: sample_network(10, seed=seed),
        lambda seed: generate_flow_fixture(seed),
        lambda seed: add_noise({1: 1.0, 2: 2.0}, 3.0, seed=seed),
        lambda seed: condition_number_study("LG-Aid-c", n_graphs=1, n_vertices=10, seed=seed),
        lambda seed: flow_experiment(1.0, n_replications=1, seed=seed),
        lambda seed: ExperimentConfig(n_vertices=10, n_graphs=1, n_replications=1, master_seed=seed),
    ],
    ids=["sample_network", "generate_flow_fixture", "add_noise", "condition_number_study",
         "flow_experiment", "ExperimentConfig"],
)
def test_bad_seed_rejected(call, seed):
    # an empty sequence once named a stream by its tag alone
    with pytest.raises(SimulationError, match="seed must be"):
        call(seed)


def _stream_digest() -> str:
    """sha256 over the public outputs of every seeded purpose (NLT orders,
    networks, the flow fixture, noise, the AMSE grid, the flow study's noise
    and orders, the free-order tie-break) for the seeds 0, 7 and (3, 1)."""
    h = hashlib.sha256()

    def put(values):
        h.update(np.asarray(values, dtype=float).tobytes())

    lg = build_line_graph(sample_network(30, 0))
    for seed in (0, 7, (3, 1)):
        put(random_trajectories(lg, LiftingConfig(), 5, seed))
        graph = sample_network(30, seed)
        put([graph.coords[v] for v in sorted(graph.coords)])
        put(list(add_noise({k: float(k % 7) for k in range(40)}, 2.0, seed)[0].values()))
    for seed in (0, 7):
        put(list(generate_flow_fixture(seed)[1].values()))
        report = run_experiment(
            ExperimentConfig(n_vertices=20, n_graphs=2, n_replications=3, master_seed=seed)
        )
        put(list(vars(report).values()))
    put(list(vars(flow_experiment(1.0, 3, seed=0, nlt_trajectories=5)).values()))
    for rng_seed in (0, 5):
        cfg = LiftingConfig.from_acronym("LG-Dnw-c", rng_seed=rng_seed)
        put(forward(np.zeros(lg.m), lg, cfg)[1].removal_order)
    return h.hexdigest()


def test_streams_match_the_parent():
    # recorded before the seed keys moved behind `lifting._stream`; a change
    # that moves a key moves this digest, and says so when it re-records it
    assert _stream_digest() == "0e71308e765ac89d59bd0f5b20a8206d0b17469e3d036ab763133df3637c8542"
