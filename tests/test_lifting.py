import ast
import dataclasses
import inspect
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lglift import lifting
from lglift.graph import GraphError, LineGraph, MetricMode, build_line_graph
from lglift.lifting import (
    VARIANTS,
    CoefficientSet,
    IntegralScheme,
    LiftingConfig,
    LiftingError,
    LiftingRecord,
    PredictionScheme,
    assign_artificial_levels,
    forward,
    init_integrals,
    inverse,
    predict_weights,
)
from lglift.simulation import sample_network


def make_lg(adj, coords=None, lengths=None):
    ids = list(adj)
    return LineGraph(ids, {k: set(v) for k, v in adj.items()}, coords=coords, edge_lengths=lengths)


@pytest.fixture
def path3_lg():
    # B between A and C, distances 1 and 3 -> inverse-distance a = (0.75, 0.25)
    return make_lg(
        {"A": {"B"}, "B": {"A", "C"}, "C": {"B"}},
        coords={"A": (1.0, 0.0), "B": (0.0, 0.0), "C": (3.0, 0.0)},
    )


class TestConfig:
    def test_acronym_round_trip(self):
        for acr in VARIANTS:
            assert LiftingConfig.from_acronym(acr).acronym == acr

    def test_unknown_acronym(self):
        with pytest.raises(LiftingError, match="LG-Aid-c"):
            LiftingConfig.from_acronym("LG-Xid-c")

    @pytest.mark.parametrize("acr", ["LG-Sidxp", "Sid-p", "LG-Sid_p"])
    def test_near_miss_acronym_rejected(self, acr):
        with pytest.raises(LiftingError, match="unknown variant acronym"):
            LiftingConfig.from_acronym(acr)

    def test_schemes_given_by_value_become_members(self):
        cfg = LiftingConfig("delta", "moving_average", "path_length")
        assert cfg == LiftingConfig.from_acronym("LG-Dnw-p")
        assert cfg.integral_scheme is IntegralScheme.DELTA
        assert cfg.prediction_scheme is PredictionScheme.MOVING_AVERAGE
        assert cfg.metric_mode is MetricMode.PATH_LENGTH
        with pytest.raises(LiftingError, match="unknown integral scheme 'mean'"):
            LiftingConfig(integral_scheme="mean")

    def test_negative_seed_rejected(self):
        with pytest.raises(LiftingError, match="nonnegative"):
            LiftingConfig(rng_seed=-1)
        with pytest.raises(LiftingError, match="nonnegative"):
            LiftingConfig.from_acronym("LG-Sid-p", rng_seed=-1)

    def test_tau_bounds(self):
        with pytest.raises(LiftingError, match="at least 2"):
            LiftingConfig(tau=1)

    def test_dict_round_trip(self):
        cfg = LiftingConfig.from_acronym("LG-Snw-p", tau=3, rng_seed=9)
        assert LiftingConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("name", ["tau", "rng_seed"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None])
    def test_non_integer_count_rejected(self, name, value):
        with pytest.raises(LiftingError, match=f"{name} must be an? (nonnegative )?integer"):
            LiftingConfig(**{name: value})

    def test_numpy_integers_become_ints(self):
        cfg = LiftingConfig(tau=np.int64(3), rng_seed=np.uint32(7))
        assert cfg == LiftingConfig(tau=3, rng_seed=7)
        assert type(cfg.tau) is int and type(cfg.rng_seed) is int
        assert json.loads(json.dumps(cfg.to_dict()))["rng_seed"] == 7

    def test_dict_with_fractional_tau_rejected(self):
        d = LiftingConfig.from_acronym("LG-Snw-p", tau=3).to_dict()
        d["tau"] = 2.7
        with pytest.raises(LiftingError, match="tau must be an integer of at least 2"):
            LiftingConfig.from_dict(d)


class TestInitIntegrals:
    def test_delta_is_all_ones(self, mst_lg):
        I = init_integrals(mst_lg, IntegralScheme.DELTA)
        assert all(v == 1.0 for v in I.values())

    def test_sum_of_distances(self):
        lg = make_lg(
            {"k": {"s", "t"}, "s": {"k"}, "t": {"k"}},
            coords={"k": (0.0, 0.0), "s": (2.0, 0.0), "t": (0.0, 3.0)},
        )
        I = init_integrals(lg, IntegralScheme.SUM)
        assert I["k"] == pytest.approx(5.0)

    def test_average_halves_per_neighbor(self):
        lg = make_lg(
            {"k": {"s", "t"}, "s": {"k"}, "t": {"k"}},
            coords={"k": (0.0, 0.0), "s": (2.0, 0.0), "t": (0.0, 3.0)},
        )
        I = init_integrals(lg, IntegralScheme.AVERAGE)
        assert I["k"] == pytest.approx(1.25)

    def test_isolated_vertex_rejected(self):
        lg = make_lg({"a": set(), "b": set()})
        with pytest.raises(GraphError, match="degenerate line graph"):
            init_integrals(lg, IntegralScheme.DELTA)

    @pytest.mark.parametrize("acr", ["LG-Sid-c", "LG-Aid-c"])
    def test_coincident_stations_match_forward(self, acr):
        # k and s share a point: the working metric floors their distance,
        # so k's integral is positive and forward accepts it back
        lg = make_lg(
            {"k": {"s"}, "s": {"k", "t"}, "t": {"s"}},
            coords={"k": (0.0, 0.0), "s": (0.0, 0.0), "t": (1.0, 0.0)},
        )
        cfg = LiftingConfig.from_acronym(acr)
        values = {"k": 1.0, "s": 2.0, "t": 4.0}
        I = init_integrals(lg, cfg.integral_scheme, cfg.metric_mode)
        c0, r0 = forward(values, lg, cfg)
        assert I == r0.initial_integrals
        assert I["k"] > 0
        c1, r1 = forward(values, lg, cfg, initial_integrals=I)
        assert r1.removal_order == r0.removal_order
        assert c1.details == c0.details

    @pytest.mark.parametrize("scheme", IntegralScheme)
    @pytest.mark.parametrize("mode", MetricMode)
    def test_scheme_values_give_the_members_bits(self, scheme, mode):
        lg = build_line_graph(sample_network(30, seed=0))
        want = init_integrals(lg, scheme, mode)
        got = init_integrals(build_line_graph(sample_network(30, seed=0)), scheme.value, mode.value)
        assert list(got) == list(want)
        assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()

    @pytest.mark.parametrize("scheme", [IntegralScheme.SUM, "sum"])
    def test_metric_by_value_leaves_the_plan_alone(self, scheme):
        # a "path_length" given by value reads the path rows, and caches
        # nothing under the path key that a later plan would read
        lg, twin = (build_line_graph(sample_network(30, seed=0)) for _ in range(2))
        init_integrals(lg, scheme, "path_length")
        cfg = LiftingConfig.from_acronym("LG-Sid-p")
        values = dict.fromkeys(lg.ids, 1.0)
        got, want = forward(values, lg, cfg)[1], forward(values, twin, cfg)[1]
        assert got.initial_integrals == want.initial_integrals
        assert got.steps == want.steps and got.step_integrals == want.step_integrals

    @pytest.mark.parametrize("scheme, mode, match", [
        ("bogus", MetricMode.COORDINATE, "unknown integral scheme 'bogus'"),
        (IntegralScheme.SUM, "bogus", "unknown metric mode 'bogus'"),
        ("delta", "bogus", "unknown metric mode 'bogus'"),
    ])
    def test_unknown_values_rejected(self, mst_lg, scheme, mode, match):
        with pytest.raises(LiftingError, match=match):
            init_integrals(mst_lg, scheme, mode)
        with pytest.raises(GraphError, match="unknown metric mode 'bogus'"):
            mst_lg.metric_rows("bogus")


class TestPredictWeights:
    @pytest.mark.parametrize("scheme", PredictionScheme)
    def test_scheme_values_give_the_members_weights(self, scheme):
        assert predict_weights([1.0, 3.0], scheme.value) == predict_weights([1.0, 3.0], scheme)
        if scheme is PredictionScheme.MOVING_AVERAGE:
            assert predict_weights([1.0, 3.0], scheme.value) == [0.5, 0.5]

    def test_unknown_scheme_rejected(self):
        with pytest.raises(LiftingError, match="unknown prediction scheme 'bogus'"):
            predict_weights([1.0, 3.0], "bogus")

    def test_inverse_distance_example(self):
        assert predict_weights([1.0, 3.0], PredictionScheme.INVERSE_DISTANCE) == pytest.approx(
            [0.75, 0.25]
        )

    def test_moving_average_uniform(self):
        assert predict_weights([5, 1, 9, 2], PredictionScheme.MOVING_AVERAGE) == [0.25] * 4

    @pytest.mark.parametrize("scheme", PredictionScheme)
    def test_single_neighbor(self, scheme):
        assert predict_weights([0.3], scheme) == [1.0]

    def test_degenerate_distance_rejected(self):
        with pytest.raises(LiftingError, match="degenerate distance"):
            predict_weights([1.0, 0.0], PredictionScheme.INVERSE_DISTANCE)

    def test_infinite_distance_rejected(self):
        # its reciprocal 0 would give a zero weight, and two of them 0/0
        with pytest.raises(LiftingError, match="degenerate distance inf"):
            predict_weights([1.0, math.inf], PredictionScheme.INVERSE_DISTANCE)
        with pytest.raises(LiftingError, match="degenerate distance inf"):
            predict_weights([math.inf, math.inf], PredictionScheme.INVERSE_DISTANCE)

    @pytest.mark.parametrize("scheme", PredictionScheme)
    @pytest.mark.parametrize("d", [0.0, -1.0, math.nan, math.inf])
    def test_degenerate_distance_rejected_under_both_schemes(self, scheme, d):
        # moving average never divides by a distance, but a zero, negative,
        # NaN or infinite one is still no distance
        with pytest.raises(LiftingError, match="degenerate distance"):
            predict_weights([1.0, d], scheme)

    @pytest.mark.parametrize("d", [1e-308, 1e-320])
    def test_overflowing_reciprocals_rejected(self, d):
        # 1/1e-308 is finite but two of them sum to inf (weights 0), and
        # 1/1e-320 is inf (weights NaN)
        with pytest.raises(LiftingError, match="reciprocal sum inf"):
            predict_weights([d, d], PredictionScheme.INVERSE_DISTANCE)

    @given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=12))
    def test_weights_normalized(self, dists):
        for scheme in PredictionScheme:
            w = predict_weights(dists, scheme)
            assert sum(w) == pytest.approx(1.0, abs=1e-12)
            assert all(x >= 0 for x in w)


class TestLiftStage:
    def test_hand_computed_detail(self, path3_lg):
        cfg = LiftingConfig(
            integral_scheme=IntegralScheme.DELTA,
            prediction_scheme=PredictionScheme.INVERSE_DISTANCE,
            metric_mode=MetricMode.COORDINATE,
        )
        values = {"A": 4.0, "B": 10.0, "C": 8.0}
        coeffs, record = forward(values, path3_lg, cfg, trajectory=["B"])
        assert coeffs.details["B"] == pytest.approx(10.0 - (0.75 * 4.0 + 0.25 * 8.0))
        st0 = record.stages[0]
        assert list(st0.a) == pytest.approx([0.75, 0.25])

    def test_delta_first_stage_update_filter(self, path3_lg):
        # with unit integrals, neighbor integrals become 1 + a_s, so
        # b_s = (1 + a_s) / sum_t (1 + a_t)^2
        cfg = LiftingConfig(
            integral_scheme=IntegralScheme.DELTA,
            prediction_scheme=PredictionScheme.INVERSE_DISTANCE,
            metric_mode=MetricMode.COORDINATE,
        )
        _, record = forward(
            {"A": 0.0, "B": 0.0, "C": 0.0}, path3_lg, cfg, trajectory=["B"]
        )
        st0 = record.stages[0]
        denom = sum((1 + a) ** 2 for a in st0.a)
        assert list(st0.b) == pytest.approx([(1 + a) / denom for a in st0.a])

    def test_relink_joins_severed_neighbors(self, path3_lg):
        cfg = LiftingConfig.from_acronym("LG-Did-c")
        _, record = forward(
            {"A": 0.0, "B": 0.0, "C": 0.0}, path3_lg, cfg, trajectory=["B"]
        )
        st0 = record.stages[0]
        assert len(st0.edges_added) == 1
        assert {st0.edges_added[0][0], st0.edges_added[0][1]} == {"A", "C"}

    def test_relink_three_way_mst(self):
        # star line graph: removing the hub leaves 3 pairwise non-adjacent
        # neighbors; MST adds the two shortest of the three candidate edges
        lg = make_lg(
            {"h": {"p", "q", "r"}, "p": {"h"}, "q": {"h"}, "r": {"h"}},
            coords={"h": (0.0, 0.0), "p": (1.0, 0.0), "q": (1.2, 0.1), "r": (5.0, 5.0)},
        )
        cfg = LiftingConfig.from_acronym("LG-Did-c")
        _, record = forward({k: 0.0 for k in lg.ids}, lg, cfg, trajectory=["h", "p"])
        added = {frozenset((u, v)) for u, v, _ in record.stages[0].edges_added}
        # candidate distances: pq ~ 0.224, qr ~ 6.20, pr ~ 6.40
        assert added == {frozenset(("p", "q")), frozenset(("q", "r"))}

    def test_relink_is_graph_work(self):
        # the planner relinks through LineGraph.metric_rows; it imports no
        # private graph name (a search, a union-find or a Kruskal)
        names = [
            alias.name
            for node in ast.walk(ast.parse(inspect.getsource(lifting)))
            if isinstance(node, ast.ImportFrom) and node.module == "graph"
            for alias in node.names
        ]
        assert "LineGraph" in names
        assert [n for n in names if n.startswith("_") or n == "shortest_path_distance"] == []

    def test_no_relink_when_already_connected(self, triangle_graph):
        from lglift.graph import build_line_graph

        lg = build_line_graph(triangle_graph)
        cfg = LiftingConfig.from_acronym("LG-Did-c")
        _, record = forward({k: 0.0 for k in lg.ids}, lg, cfg, trajectory=["e1"])
        assert record.stages[0].edges_added == ()


class TestForward:
    @pytest.mark.parametrize("acr", VARIANTS)
    def test_constant_annihilation(self, mst_lg, acr):
        cfg = LiftingConfig.from_acronym(acr)
        values = {k: 5.0 for k in mst_lg.ids}
        coeffs, _ = forward(values, mst_lg, cfg)
        assert max(abs(d) for d in coeffs.details.values()) <= 1e-12
        assert all(c == pytest.approx(5.0) for c in coeffs.scaling.values())

    @pytest.mark.parametrize("acr", VARIANTS)
    def test_filter_invariants(self, small_tree_lg, rng, acr):
        cfg = LiftingConfig.from_acronym(acr)
        values = {k: float(v) for k, v in zip(small_tree_lg.ids, rng.normal(size=small_tree_lg.m))}
        _, record = forward(values, small_tree_lg, cfg)
        for st0 in record.stages:
            assert sum(st0.a) == pytest.approx(1.0, abs=1e-12)
            assert all(a >= 0 for a in st0.a)
            assert all(b > 0 for b in st0.b)
            assert st0.integral > 0
        assert all(v > 0 for v in record.final_integrals.values())

    def test_split_picks_live_minimum(self, small_tree_lg):
        cfg = LiftingConfig.from_acronym("LG-Sid-c")
        values = {k: 0.0 for k in small_tree_lg.ids}
        _, record = forward(values, small_tree_lg, cfg)
        # replay the integral dynamics from the record and check argmin
        integrals = dict(record.initial_integrals)
        active = set(record.ids)
        for st0 in record.stages:
            live_min = min(integrals[k] for k in active)
            assert integrals[st0.removed] == pytest.approx(live_min)
            for a, s in zip(st0.a, st0.neighbors):
                integrals[s] += a * st0.integral
            active.discard(st0.removed)

    def test_seeded_determinism(self, mst_lg, rng):
        cfg = LiftingConfig.from_acronym("LG-Dnw-c", rng_seed=99)
        values = {k: float(v) for k, v in zip(mst_lg.ids, rng.normal(size=mst_lg.m))}
        c1, r1 = forward(values, mst_lg, cfg)
        # a fresh line graph of the same network: planned again, not reused
        c2, r2 = forward(values, build_line_graph(sample_network(100, seed=7)), cfg)
        assert r2 is not r1
        assert c1.details == c2.details
        assert r1.removal_order == r2.removal_order

    def test_missing_value_rejected(self, small_tree_lg):
        values = {k: 0.0 for k in small_tree_lg.ids[:-1]}
        with pytest.raises(LiftingError, match="missing values"):
            forward(values, small_tree_lg, LiftingConfig())

    def test_non_finite_rejected(self, small_tree_lg):
        values = {k: 0.0 for k in small_tree_lg.ids}
        values[small_tree_lg.ids[0]] = math.nan
        with pytest.raises(LiftingError, match="non-finite"):
            forward(values, small_tree_lg, LiftingConfig())

    @pytest.mark.parametrize("acr", ["LG-Sid-p", "LG-Aid-p"])
    def test_overflowing_initial_integral_rejected(self, acr):
        # the line graph of a 4-edge star is K4: every distance 8e307 is
        # finite, but a sum of three of them overflows
        ids = ["a", "b", "c", "d"]
        lg = make_lg({k: set(ids) - {k} for k in ids}, lengths=dict.fromkeys(ids, 8e307))
        with pytest.raises(LiftingError, match="non-finite initial integral at 'a'"):
            forward(dict.fromkeys(ids, 1.0), lg, LiftingConfig.from_acronym(acr))

    @pytest.mark.parametrize("acr", ["LG-Sid-p", "LG-Aid-p"])
    def test_overflowing_integral_update_rejected(self, acr):
        # the line graph of a 3-edge path: every initial integral is finite,
        # but above about 1.3e154 the square of an updated one overflows
        adj = {"e1": {"e2"}, "e2": {"e1", "e3"}, "e3": {"e2"}}
        values = {"e1": 1.0, "e2": 2.0, "e3": 3.0}
        config = LiftingConfig.from_acronym(acr)
        huge = make_lg(adj, lengths=dict.fromkeys(adj, 1e155))
        with pytest.raises(LiftingError, match="non-finite integral update at stage 3"):
            forward(values, huge, config)
        coeffs, record = forward(values, make_lg(adj, lengths=dict.fromkeys(adj, 1e150)), config)
        assert inverse(coeffs, record) == pytest.approx(values)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0])
    def test_bad_given_initial_integral_rejected(self, path3_lg, bad):
        values = dict.fromkeys(path3_lg.ids, 1.0)
        integrals = {"A": 1.0, "B": bad, "C": 1.0}
        with pytest.raises(LiftingError, match="non-positive or non-finite initial integral at 'B'"):
            forward(values, path3_lg, LiftingConfig(), initial_integrals=integrals)

    @pytest.mark.parametrize(
        "integrals, message",
        [
            ({"A": 1.0, "C": 1.0}, r"missing initial integrals for new vertices \['B'\]"),
            ({"A": 1.0, "B": "abc", "C": 1.0}, "initial integral at 'B' must be a real number"),
            ({"A": 1.0, "B": "1.5", "C": 1.0}, "initial integral at 'B' must be a real number"),
            ({"A": 1.0, "B": None, "C": 1.0}, "initial integral at 'B' must be a real number"),
            ({"A": 1.0, "B": 1 + 2j, "C": 1.0}, "initial integral at 'B' must be a real number"),
            ([1.0, 1.0, 1.0], "initial integrals must be a mapping by id, got list"),
        ],
        ids=["missing", "text", "numeric-text", "None", "complex", "list"],
    )
    def test_malformed_given_initial_integrals_rejected(self, path3_lg, integrals, message):
        values = dict.fromkeys(path3_lg.ids, 1.0)
        with pytest.raises(LiftingError, match=message):
            forward(values, path3_lg, LiftingConfig(), initial_integrals=integrals)

    def test_initial_integrals_by_position_rejected(self):
        # with ids 0..m-1 a list or an array could be read by id as an index
        lg = build_line_graph(sample_network(7, seed=42))
        assert lg.ids == tuple(range(lg.m))
        for integrals in ([1.0] * lg.m, np.ones(lg.m)):
            with pytest.raises(LiftingError, match="must be a mapping by id"):
                forward(np.ones(lg.m), lg, LiftingConfig(), initial_integrals=integrals)

    def test_scaled_integrals_leave_details_unchanged(self, mst_lg, rng):
        # multiplying the initial integrals by a constant must not change
        # any detail or filter
        cfg = LiftingConfig.from_acronym("LG-Aid-c", rng_seed=3)
        values = {k: float(v) for k, v in zip(mst_lg.ids, rng.normal(size=mst_lg.m))}
        base_I = init_integrals(mst_lg, cfg.integral_scheme, cfg.metric_mode)
        c0, r0 = forward(values, mst_lg, cfg, initial_integrals=base_I)
        scaled = {k: 1000.0 * v for k, v in base_I.items()}
        c1, r1 = forward(values, mst_lg, cfg, initial_integrals=scaled)
        assert r0.removal_order == r1.removal_order
        for k in c0.details:
            assert c0.details[k] == pytest.approx(c1.details[k], abs=1e-10)
        for s0, s1 in zip(r0.stages, r1.stages):
            assert list(s0.a) == pytest.approx(list(s1.a), abs=1e-10)
            assert list(s0.b) == pytest.approx(list(s1.b), abs=1e-10)


class TestTinyScales:
    """sample_network(40, seed=3) with its lengths or coordinates scaled
    down: filters that underflow are a lifting error, not wrong numbers."""

    @staticmethod
    def scaled(factor=1.0, smallest=None, coords=False):
        base = build_line_graph(sample_network(40, seed=3))
        lengths = base.edge_lengths
        if smallest is not None:
            factor = smallest / min(lengths.values())
        adj = {k: {base.ids[s] for s in row} for k, row in zip(base.ids, base.rows)}
        if coords:
            xy = {k: (factor * x, factor * y) for k, (x, y) in base.coords.items()}
            return make_lg(adj, coords=xy)
        return make_lg(adj, lengths={k: factor * v for k, v in lengths.items()})

    @staticmethod
    def values(lg):
        return {k: math.sin(j) for j, k in enumerate(lg.ids)}

    @pytest.mark.parametrize("factor, acr", [
        (1e-160, "LG-Aid-p"), (1e-160, "LG-Sid-p"), (1e-170, "LG-Sid-p"),
    ])
    def test_underflowing_update_filter_rejected(self, factor, acr):
        # the squares of the updated integrals are subnormal (1e-160) or 0
        lg = self.scaled(factor)
        with pytest.raises(LiftingError, match="integrals too small"):
            forward(self.values(lg), lg, LiftingConfig.from_acronym(acr))

    def test_overflowing_inverse_distances_rejected(self):
        lg = self.scaled(smallest=1e-318)
        with pytest.raises(LiftingError, match="reciprocal sum inf"):
            forward(self.values(lg), lg, LiftingConfig.from_acronym("LG-Did-p"))

    def test_tiny_station_spacing_rejected(self):
        lg = self.scaled(1e-310, coords=True)
        with pytest.raises(LiftingError, match="inverse-distance weights"):
            forward(self.values(lg), lg, LiftingConfig.from_acronym("LG-Sid-c"))

    def test_delta_moving_average_still_plans(self):
        lg = self.scaled(1e-200)
        coeffs, record = forward(self.values(lg), lg, LiftingConfig.from_acronym("LG-Dnw-p"))
        assert inverse(coeffs, record) == pytest.approx(self.values(lg))

    @pytest.mark.parametrize("acr", [v for v in VARIANTS if v.endswith("-p")])
    def test_small_lengths_keep_the_details(self, acr):
        base, lg = self.scaled(), self.scaled(1e-150)
        config = LiftingConfig.from_acronym(acr)
        want, _ = forward(self.values(base), base, config)
        got, _ = forward(self.values(lg), lg, config)
        assert got.details.keys() == want.details.keys()
        for k, v in want.details.items():
            assert got.details[k] == pytest.approx(v, abs=1e-12)


class TestErrorOrder:
    """A call with two faults raises the earlier check's error."""

    def test_tau_before_trajectory(self, small_tree_lg):
        values = dict.fromkeys(small_tree_lg.ids, 1.0)
        config = LiftingConfig(tau=small_tree_lg.m)
        with pytest.raises(LiftingError, match="stopping time"):
            forward(values, small_tree_lg, config, trajectory=["nowhere"])

    def test_metric_inputs_before_trajectory(self, path3_lg):
        # coordinates only, as a stations file gives: no path metric
        values = dict.fromkeys(path3_lg.ids, 1.0)
        config = LiftingConfig.from_acronym("LG-Sid-p")
        with pytest.raises(GraphError, match="no source edge lengths"):
            forward(values, path3_lg, config, trajectory=["A", "A", "nowhere"])


class TestTrajectory:
    def test_forward_order_reproduces_forward(self, mst_lg, rng):
        cfg = LiftingConfig.from_acronym("LG-Snw-c")
        values = {k: float(v) for k, v in zip(mst_lg.ids, rng.normal(size=mst_lg.m))}
        c0, r0 = forward(values, mst_lg, cfg)
        c1, _ = forward(values, mst_lg, cfg, trajectory=r0.removal_order)
        assert c0.details == c1.details
        assert c0.scaling == c1.scaling

    def test_fixed_order_builds_no_chooser(self, mst_lg, rng, monkeypatch):
        # a given trajectory needs no buckets, value heap or tie-break
        # generator: the same record comes out with both unavailable
        cfg = LiftingConfig.from_acronym("LG-Dnw-c")
        values = {k: float(v) for k, v in zip(mst_lg.ids, rng.normal(size=mst_lg.m))}
        c0, r0 = forward(values, mst_lg, cfg)
        fresh = build_line_graph(sample_network(100, seed=7))  # mst_lg's network

        def refuse(*args, **kwargs):
            raise AssertionError("built a chooser or a generator")

        monkeypatch.setattr(lifting, "_Chooser", refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        c1, r1 = forward(values, mst_lg, cfg, trajectory=r0.removal_order)
        assert (c1, r1) == (c0, r0)
        # the free-order plan of mst_lg is kept, so it needs no chooser again
        c2, r2 = forward(values, mst_lg, cfg)
        assert r2 is r0 and c2 == c0
        with pytest.raises(AssertionError, match="built a chooser"):
            forward(values, fresh, cfg)

    def test_different_orders_differ(self, small_tree_lg, rng):
        cfg = LiftingConfig.from_acronym("LG-Did-c")
        values = {k: float(v) for k, v in zip(small_tree_lg.ids, rng.normal(size=small_tree_lg.m))}
        ids = list(small_tree_lg.ids)
        n = small_tree_lg.m - cfg.tau
        c0, _ = forward(values, small_tree_lg, cfg, trajectory=ids[:n])
        c1, _ = forward(values, small_tree_lg, cfg, trajectory=ids[::-1][:n])
        assert any(
            abs(c0.details.get(k, 0) - c1.details.get(k, 0)) > 1e-9 for k in ids
        )

    def test_repeated_id_rejected(self, small_tree_lg):
        values = {k: 0.0 for k in small_tree_lg.ids}
        traj = [small_tree_lg.ids[0]] * (small_tree_lg.m - 2)
        with pytest.raises(LiftingError, match="repeated"):
            forward(values, small_tree_lg, LiftingConfig(), trajectory=traj)

    def test_wrong_length_rejected(self, small_tree_lg):
        values = {k: 0.0 for k in small_tree_lg.ids}
        with pytest.raises(LiftingError, match="trajectory length"):
            forward(values, small_tree_lg, LiftingConfig(), trajectory=small_tree_lg.ids[:1])

    def test_linearity_under_fixed_trajectory(self, small_tree_lg, rng):
        cfg = LiftingConfig.from_acronym("LG-Aid-c")
        f = {k: float(v) for k, v in zip(small_tree_lg.ids, rng.normal(size=small_tree_lg.m))}
        g = {k: float(v) for k, v in zip(small_tree_lg.ids, rng.normal(size=small_tree_lg.m))}
        _, rec = forward(f, small_tree_lg, cfg)
        traj = rec.removal_order
        cf, _ = forward(f, small_tree_lg, cfg, trajectory=traj)
        cg, _ = forward(g, small_tree_lg, cfg, trajectory=traj)
        combo = {k: 2.0 * f[k] - 3.0 * g[k] for k in f}
        cc, _ = forward(combo, small_tree_lg, cfg, trajectory=traj)
        for k in cc.details:
            assert cc.details[k] == pytest.approx(
                2.0 * cf.details[k] - 3.0 * cg.details[k], abs=1e-10
            )


class TestInverse:
    @pytest.mark.parametrize("acr", VARIANTS)
    def test_round_trip(self, mst_lg, rng, acr):
        cfg = LiftingConfig.from_acronym(acr)
        values = {k: float(v) for k, v in zip(mst_lg.ids, rng.normal(size=mst_lg.m))}
        coeffs, record = forward(values, mst_lg, cfg)
        rec = inverse(coeffs, record)
        scale = max(abs(v) for v in values.values())
        assert max(abs(rec[k] - values[k]) for k in values) / scale <= 1e-8

    def test_mismatched_sets_rejected(self, small_tree_lg):
        values = {k: 1.0 for k in small_tree_lg.ids}
        coeffs, record = forward(values, small_tree_lg, LiftingConfig())
        details = dict(coeffs.details)
        details.pop(next(iter(details)))
        with pytest.raises(LiftingError, match="do not match"):
            CoefficientSet.from_dicts(details, coeffs.scaling, record)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_rejected(self, bad):
        lg = build_line_graph(sample_network(30, seed=1))
        values = {k: math.cos(j) for j, k in enumerate(lg.ids)}
        coeffs, record = forward(values, lg, LiftingConfig.from_acronym("LG-Aid-c"))
        k = record.removal_order[3]
        coeffs = CoefficientSet.from_dicts({**coeffs.details, k: bad}, coeffs.scaling, record)
        with pytest.raises(LiftingError, match=f"non-finite coefficient at {k!r}"):
            inverse(coeffs, record)

    @pytest.mark.parametrize("shape", [(), (3,)], ids=["signal", "batch"])
    def test_pickle_round_trip_after_the_views_are_read(self, mst_lg, rng, shape):
        coeffs, _ = forward(rng.normal(size=(mst_lg.m, *shape)), mst_lg, LiftingConfig())
        coeffs.details, coeffs.scaling  # the cached views are read-only dicts
        back = pickle.loads(pickle.dumps(coeffs))
        assert back == coeffs
        assert back.vector.tobytes() == coeffs.vector.tobytes()

    def test_record_pickles_as_its_fields(self, mst_lg, rng):
        # the arrays built from a record's fields, read before pickling, are
        # rebuilt read-only in the copy, alone or inside a CoefficientSet,
        # not restored as writable arrays
        coeffs, record = forward(rng.normal(size=(mst_lg.m, 3)), mst_lg, LiftingConfig())

        def cached(r):
            return [r.levels, r._gains, r._canon, r._level_rows[0]]

        want = [a.tobytes() for a in cached(record)]
        back_coeffs = pickle.loads(pickle.dumps(coeffs))
        backs = (pickle.loads(pickle.dumps(record)), back_coeffs.record)
        for back in backs:
            assert set(vars(back)) == {f.name for f in dataclasses.fields(LiftingRecord)}
        assert back_coeffs == coeffs
        assert back_coeffs.vector.tobytes() == coeffs.vector.tobytes()
        for back in backs:
            assert back == record
            got = cached(back)
            assert [a.tobytes() for a in got] == want
            assert not any(a.flags.writeable for a in got)

    def test_wavelet_vector_round_trip(self, small_tree_lg):
        # canonical coefficient vector -> primal wavelet -> same vector
        cfg = LiftingConfig.from_acronym("LG-Aid-c")
        values = {k: 0.0 for k in small_tree_lg.ids}
        coeffs, record = forward(values, small_tree_lg, cfg)
        pick = record.removal_order[1]
        unit = CoefficientSet.from_dicts(
            {k: (1.0 if k == pick else 0.0) for k in coeffs.details},
            {k: 0.0 for k in coeffs.scaling},
            record,
        )
        psi = inverse(unit, record)
        back, _ = forward(psi, small_tree_lg, cfg, trajectory=record.removal_order)
        for k, v in back.details.items():
            assert v == pytest.approx(1.0 if k == pick else 0.0, abs=1e-10)
        for v in back.scaling.values():
            assert v == pytest.approx(0.0, abs=1e-10)


class TestArrayInput:
    """`forward` takes a mapping by id or an array in `lg.ids` order, one
    signal (m,) or a batch (m, B); `inverse` takes the set or its array."""

    @pytest.mark.parametrize("acr", ["LG-Aid-c", "LG-Sid-p", "LG-Dnw-c"])
    @pytest.mark.parametrize("fixed", [False, True])
    def test_mapping_vector_and_batch_columns_bitwise(self, mst_lg, acr, fixed):
        cfg = LiftingConfig.from_acronym(acr)
        X = np.random.default_rng(4).normal(size=(mst_lg.m, 3))
        traj = forward(X[:, 0], mst_lg, cfg)[1].removal_order[::-1] if fixed else None
        batch, record = forward(X, mst_lg, cfg, trajectory=traj)
        assert batch.vector.shape == X.shape
        for j in range(X.shape[1]):
            by_id = forward(dict(zip(mst_lg.ids, X[:, j].tolist())), mst_lg, cfg, trajectory=traj)[0]
            single = forward(X[:, j], mst_lg, cfg, trajectory=traj)[0]
            bits = single.vector.tobytes()
            assert by_id.vector.tobytes() == bits
            assert np.ascontiguousarray(batch.vector[:, j]).tobytes() == bits
            assert by_id.details == single.details and by_id.scaling == single.scaling
            back = inverse(single, single.record)
            assert list(back) == list(mst_lg.ids)
            col = np.ascontiguousarray(inverse(batch.vector, record)[:, j])
            assert col.tobytes() == np.array(list(back.values())).tobytes()
        k = record.removal_order[0]
        assert np.array_equal(batch.details[k], batch.vector[0])

    @pytest.mark.parametrize("shape", [(), (0,), (5,), (5, 2), (99, 2, 2), (99, 0)])
    def test_wrong_shape_rejected(self, mst_lg, shape):
        cfg = LiftingConfig.from_acronym("LG-Aid-c")
        with pytest.raises(LiftingError, match="need \\(99,\\) or \\(99, B\\)"):
            forward(np.zeros(shape), mst_lg, cfg)
        record = forward(np.zeros(mst_lg.m), mst_lg, cfg)[1]
        with pytest.raises(LiftingError, match="need \\(99,\\) or \\(99, B\\)"):
            inverse(np.zeros(shape), record)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("batch", [False, True])
    def test_non_finite_array_rejected(self, mst_lg, bad, batch):
        cfg = LiftingConfig.from_acronym("LG-Aid-c")
        X = np.ones((mst_lg.m, 3) if batch else mst_lg.m)
        X[40, ...] = bad
        X[60, ...] = bad
        with pytest.raises(LiftingError, match=f"non-finite value at {mst_lg.ids[40]!r}"):
            forward(X, mst_lg, cfg)
        record = forward(np.ones(mst_lg.m), mst_lg, cfg)[1]
        with pytest.raises(LiftingError, match=f"non-finite coefficient at {record._order[40]!r}"):
            inverse(X, record)

    def test_views_are_read_only(self, small_tree_lg):
        coeffs, _ = forward(np.arange(6.0), small_tree_lg, LiftingConfig())
        k = next(iter(coeffs.details))
        with pytest.raises(TypeError):
            coeffs.details[k] = 0.0
        with pytest.raises(TypeError):
            coeffs.scaling[next(iter(coeffs.scaling))] = 0.0

    def test_set_of_another_record_is_matched_by_id(self, mst_lg):
        # a twin plan's record whose ids are reordered: the set is read by id
        cfg = LiftingConfig.from_acronym("LG-Aid-c")
        values = dict(zip(mst_lg.ids, np.cos(np.arange(mst_lg.m)).tolist()))
        coeffs, record = forward(values, mst_lg, cfg)
        twin = forward(values, mst_lg, cfg, trajectory=record.removal_order)[1]
        assert twin is not record
        assert inverse(coeffs, twin) == inverse(coeffs, record)


class TestArtificialLevels:
    def test_quantile_groups_with_ties(self):
        order = list("abcdef")
        fake = FakeRecord(ids=tuple(order) + ("x", "y"),
                          step_integrals=(1.0, 1.0, 2.0, 3.0, 3.0, 9.0))
        levels = assign_artificial_levels(fake, n_levels=3)
        assert levels.tolist() == [0, 0, 1, 1, 2, 2]

    def test_all_equal_scales_use_removal_order(self, small_tree_lg):
        cfg = LiftingConfig.from_acronym("LG-Dnw-c")  # unit integrals early on
        values = {k: 0.0 for k in small_tree_lg.ids}
        _, record = forward(values, small_tree_lg, cfg)
        levels, scales = record.levels, record.step_integrals
        # earlier removals never sit on a coarser level than later ones
        # when their scales are equal
        for a in range(len(scales)):
            for b in range(a + 1, len(scales)):
                if scales[a] == scales[b]:
                    assert levels[a] <= levels[b]

    def test_too_many_levels_rejected(self, small_tree_lg):
        values = {k: 0.0 for k in small_tree_lg.ids}
        _, record = forward(values, small_tree_lg, LiftingConfig())
        with pytest.raises(LiftingError, match="exceed"):
            assign_artificial_levels(record, n_levels=99)

    def test_fractional_level_count_rejected(self, small_tree_lg):
        values = {k: 0.0 for k in small_tree_lg.ids}
        _, record = forward(values, small_tree_lg, LiftingConfig())
        with pytest.raises(LiftingError, match="need at least 3 levels, got 3.5"):
            assign_artificial_levels(record, 3.5)

    def test_equal_sized_groups(self):
        levels = assign_artificial_levels(
            FakeRecord(ids=tuple(range(10)), step_integrals=tuple(map(float, range(8)))),
            n_levels=4,
        )
        from collections import Counter

        assert sorted(Counter(levels.tolist()).values()) == [2, 2, 2, 2]


class FakeRecord:
    """Just enough of the record interface for level-assignment tests."""

    def __init__(self, ids, step_integrals):
        self.ids = ids
        self.step_integrals = step_integrals
