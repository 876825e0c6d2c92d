import hashlib
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lglift.graph import (
    DISTANCE_FLOOR_FRAC,
    EdgeRec,
    Graph,
    GraphError,
    LineGraph,
    MetricMode,
    _connected,
    _euclidean_mst,
    _kruskal,
    _pairs_within,
    _repr_rank,
    build_line_graph,
    shortest_path_distance,
)
from lglift.lifting import LiftingConfig, forward
from lglift.simulation import generate_flow_fixture, sample_network

import graph_reference


def chain_lg(lengths):
    """Line graph of a path; new vertices chained in order."""
    ids = [f"e{i}" for i in range(len(lengths))]
    adj = {k: set() for k in ids}
    for a, b in zip(ids, ids[1:]):
        adj[a].add(b)
        adj[b].add(a)
    return LineGraph(ids, adj, edge_lengths=dict(zip(ids, lengths)))


def path_rows_by_id(lg):
    """The path-metric rows of `lg.metric_rows`, keyed by id."""
    rows, _ = lg.metric_rows(MetricMode.PATH_LENGTH)
    return {lg.ids[u]: {lg.ids[s]: w for s, w in row.items()} for u, row in enumerate(rows)}


def relink_distance(relink, m, u, v):
    """The distance a coordinate `relink` of an m-slot line graph measures
    from slot u to slot v: the weight of the one edge it adds between them
    when no edge joins them.  A coordinate relink measures straight
    distances and reads no hub row, so no hub slot is given."""
    (edge,) = relink([{} for _ in range(m)], None, [u, v])
    assert edge[:2] == (u, v)
    return edge[2]


def shared_endpoint_adjacency(graph):
    """The line graph's adjacency from the source graph: two edges are
    neighbours when they share exactly one endpoint."""
    adj = {e.id: set() for e in graph.edges}
    for e, f in combinations(graph.edges, 2):
        if len({e.u, e.v} & {f.u, f.v}) == 1:
            adj[e.id].add(f.id)
            adj[f.id].add(e.id)
    return adj


class TestGraphValidation:
    def test_duplicate_vertex_rejected(self):
        with pytest.raises(GraphError, match="duplicate vertex"):
            Graph([(1, None), (1, None)], [])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph([(1, None), (2, None)], [EdgeRec("e", 1, 1)])

    def test_duplicate_pair_rejected(self):
        with pytest.raises(GraphError, match="duplicate edge"):
            Graph([(1, None), (2, None)], [EdgeRec("a", 1, 2), EdgeRec("b", 2, 1)])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(GraphError, match="unknown vertex"):
            Graph([(1, None)], [EdgeRec("a", 1, 9)])

    def test_nonpositive_length_rejected(self):
        with pytest.raises(GraphError, match="non-positive length"):
            Graph([(1, None), (2, None)], [EdgeRec("a", 1, 2, length=0.0)])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_coordinate_rejected(self, bad):
        with pytest.raises(GraphError, match="vertex 'd' has non-finite coordinates"):
            Graph([(1, (0.0, 0.0)), ("d", (3.0, bad))], [])

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_length_rejected(self, bad):
        with pytest.raises(GraphError, match="edge 'a' has non-finite length"):
            Graph([(1, None), (2, None)], [EdgeRec("a", 1, 2, length=bad)])

    def test_overflowing_euclidean_length_rejected(self):
        with pytest.raises(GraphError, match="edge 'a' has non-finite length"):
            Graph([(1, (-1e308, 0.0)), (2, (1e308, 0.0))], [EdgeRec("a", 1, 2)])

    def test_length_defaults_to_euclidean(self):
        g = Graph([(1, (0.0, 0.0)), (2, (3.0, 4.0))], [EdgeRec("a", 1, 2)])
        assert g.edges[0].length == pytest.approx(5.0)


class TestBuildLineGraph:
    def test_too_small_rejected(self):
        g = Graph(
            [(1, None), (2, None), (3, None)],
            [EdgeRec("e1", 1, 2, length=1.0), EdgeRec("e2", 2, 3, length=1.0)],
        )
        with pytest.raises(GraphError, match="too small"):
            build_line_graph(g)

    def test_disconnected_rejected(self):
        g = Graph(
            [(i, None) for i in range(5)],
            [
                EdgeRec("a", 0, 1, length=1.0),
                EdgeRec("b", 0, 2, length=1.0),
                EdgeRec("c", 3, 4, length=1.0),
            ],
        )
        with pytest.raises(GraphError, match="disconnected"):
            build_line_graph(g)

    def test_isolated_vertex_rejected(self):
        g = Graph(
            [(i, None) for i in range(5)],
            [EdgeRec(k, 0, i, length=1.0) for i, k in enumerate("abc", 1)],
        )
        with pytest.raises(GraphError, match="^source graph disconnected$"):
            build_line_graph(g)

    def test_triangle_maps_to_triangle(self, triangle_graph):
        lg = build_line_graph(triangle_graph)
        assert lg.m == 3
        assert {tuple(sorted(p)) for p in lg.edges()} == {
            ("e1", "e2"),
            ("e1", "e3"),
            ("e2", "e3"),
        }

    def test_star_maps_to_complete_graph(self, star_graph):
        lg = build_line_graph(star_graph)
        assert lg.m == 3
        assert len(lg.edges()) == 3  # K3

    def test_midpoint_coordinates(self, triangle_graph):
        lg = build_line_graph(triangle_graph)
        assert lg.coords["e1"] == (0.5, 0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_adjacency_matches_shared_endpoint_rule(self, seed):
        g = sample_network(10, seed=seed)
        lg = build_line_graph(g)
        pair = {e.id: {e.u, e.v} for e in g.edges}
        for a, b in combinations(lg.ids, 2):
            shared = len(pair[a] & pair[b])
            assert (lg.index[b] in lg.rows[lg.index[a]]) == (shared == 1)


class TestLineGraphValidation:
    def test_unknown_neighbour_rejected(self):
        with pytest.raises(GraphError, match="unknown id 'b'"):
            LineGraph(["a"], {"a": {"b"}})

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(GraphError, match="not symmetric"):
            LineGraph(["a", "b"], {"a": {"b"}})

    def test_self_adjacency_rejected(self):
        with pytest.raises(GraphError, match="self-adjacency"):
            LineGraph(["a", "b"], {"a": {"a", "b"}, "b": {"a"}})

    def test_duplicate_id_rejected(self):
        # one id twice would give two rows of one vertex and a transform of
        # more coefficients than values
        coords = {"a": (0.0, 0.0), "b": (1.0, 0.0), "c": (2.0, 0.0)}
        adjacency = {"a": {"b"}, "b": {"a", "c"}, "c": {"b"}}
        with pytest.raises(GraphError, match="duplicate line-graph id 'a'"):
            LineGraph(["a", "a", "b", "c"], adjacency, coords=coords)
        with pytest.raises(GraphError, match="duplicate line-graph id 'c'"):
            LineGraph(["a", "c", "b", "c"], adjacency, coords=coords)
        assert LineGraph(["a", "b", "c"], adjacency, coords=coords).rows == ((1,), (0, 2), (1,))

    @pytest.mark.parametrize("field", ["coords", "edge_lengths"])
    def test_partial_metric_inputs_rejected(self, field):
        ids = ["a", "b", "c", "d"]
        adj = {"a": {"b"}, "b": {"a", "c"}, "c": {"b", "d"}, "d": {"c"}}
        given = {"coords": {k: (float(i), 0.0) for i, k in enumerate(ids[:3])},
                 "edge_lengths": dict.fromkeys(ids[:3], 1.0)}[field]
        with pytest.raises(GraphError, match=r"missing for new vertices \['d'\]"):
            LineGraph(ids, adj, **{field: given})

    @pytest.mark.parametrize("field", ["coords", "edge_lengths"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_metric_inputs_rejected(self, field, bad):
        ids = ["a", "b", "c"]
        adj = {"a": {"b"}, "b": {"a", "c"}, "c": {"b"}}
        given = {"coords": {"a": (0.0, 0.0), "b": (1.0, 0.0), "c": (3.0, bad)},
                 "edge_lengths": {"a": 1.0, "b": 2.0, "c": bad}}[field]
        with pytest.raises(GraphError, match="'c' has non-finite"):
            LineGraph(ids, adj, **{field: given})

    @pytest.mark.parametrize("bad", [-1.0, 0.0])
    def test_non_positive_edge_length_rejected(self, bad):
        ids = ["a", "b", "c", "d"]
        adj = {k: set(ids) - {k} for k in ids}
        lengths = {"a": 1.0, "b": 2.0, "c": bad, "d": 3.0}
        with pytest.raises(GraphError, match="edge 'c' has non-positive length"):
            LineGraph(ids, adj, edge_lengths=lengths)

    @pytest.mark.parametrize(
        "mode, field, given, named",
        [(MetricMode.COORDINATE, "coords",
          {"a": (-1e308, 0.0), "b": (0.0, 0.0), "c": (1e308, 0.0)}, "a"),
         (MetricMode.PATH_LENGTH, "edge_lengths", {"a": 1.0, "b": 1e308, "c": 1e308}, "b")],
        ids=["coordinate", "path"],
    )
    def test_overflowing_distance_rejected(self, mode, field, given, named):
        # finite inputs whose distances overflow: the coordinate extent is
        # inf, so is every floored distance; 0.5 * (1e308 + 1e308) is inf
        adj = {"a": {"b"}, "b": {"a", "c"}, "c": {"b"}}
        lg = LineGraph(["a", "b", "c"], adj, **{field: given})
        with pytest.raises(GraphError, match=f"non-finite metric distance at new vertex '{named}'"):
            lg.metric_rows(mode)

    def test_rank_is_repr_order(self):
        # repr order: "'10'" < "'a'" < "'b2'" < '10' < '2' < '3'
        assert LineGraph([10, "a", 3, "b2", 2, "10"], {}).rank == (3, 1, 5, 2, 4, 0)

    def test_rank_ties_keep_position_order(self):
        class Same:
            def __repr__(self):
                return "same"

        assert LineGraph([Same(), 1, Same()], {}).rank == (1, 0, 2)

    def test_rows_and_connected_flag(self):
        lg = LineGraph(["c", "a", "d", "b"], {"a": {"b"}, "b": {"a"}, "c": {"d"}, "d": {"c"}})
        assert lg.rows == ((2,), (3,), (0,), (1,))
        assert not lg.connected
        with pytest.raises(GraphError, match="line graph disconnected"):
            forward(dict.fromkeys(lg.ids, 0.0), lg, LiftingConfig(tau=2))
        assert chain_lg([1.0] * 4).connected


class TestDistance:
    """The one metric, `LineGraph.metric_rows`: its rows, the distances
    its relink measures and shortest paths over its path-length rows."""

    def test_coordinate_345(self):
        lg = LineGraph(
            ["a", "b"], {"a": {"b"}, "b": {"a"}}, coords={"a": (0, 0), "b": (3, 4)}
        )
        rows, relink = lg.metric_rows(MetricMode.COORDINATE)
        assert rows == [{1: pytest.approx(5.0)}, {0: pytest.approx(5.0)}]
        assert relink_distance(relink, 2, 0, 1) == pytest.approx(5.0)

    def test_path_adjacent_average_of_lengths(self):
        rows, _ = chain_lg([2.0, 4.0]).metric_rows(MetricMode.PATH_LENGTH)
        assert rows[0][1] == rows[1][0] == pytest.approx(3.0)

    def test_path_nonadjacent_shortest_path(self):
        rows, relink = chain_lg([2.0, 2.0, 2.0]).metric_rows(MetricMode.PATH_LENGTH)
        assert 2 not in rows[0]
        assert shortest_path_distance(rows, 0, (2,)) == {2: pytest.approx(4.0)}
        assert relink(rows, 1, [0, 2]) == [(0, 2, pytest.approx(4.0))]
        assert rows[0][2] == rows[2][0] == pytest.approx(4.0)

    def test_missing_inputs_rejected(self):
        lg = chain_lg([1.0, 1.0])
        with pytest.raises(GraphError, match="metric inputs unavailable"):
            lg.metric_rows(MetricMode.COORDINATE)

    def test_symmetry_and_triangle_inequality(self, mst_lg):
        _, relink = mst_lg.metric_rows(MetricMode.COORDINATE)

        def d(a, b):
            return relink_distance(relink, mst_lg.m, a, b)

        for a, b in combinations(range(8), 2):
            assert d(a, b) == d(b, a)
            assert d(a, b) > 0
        for a, b, c in combinations(range(8), 3):
            assert d(a, c) <= d(a, b) + d(b, c) + 1e-12

    def test_path_disconnected_pair_rejected(self):
        """A pair in different components has no path distance."""
        lg = LineGraph(
            ["a", "b", "c", "d"],
            {"a": {"b"}, "b": {"a"}, "c": {"d"}, "d": {"c"}},
            edge_lengths={"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0},
        )
        rows, _ = lg.metric_rows(MetricMode.PATH_LENGTH)
        assert shortest_path_distance(rows, 0, (1,)) == {1: 1.0}
        assert shortest_path_distance(rows, 0, (2,)) == {}

    def test_path_errors(self):
        bare = LineGraph(["a", "b"], {"a": {"b"}, "b": {"a"}})
        with pytest.raises(GraphError, match="no source edge lengths"):
            bare.metric_rows(MetricMode.PATH_LENGTH)


def reference_edges(lg, adj):
    """`LineGraph.edges` as first written, reading each neighbour set of
    the caller's mapping `adj` in its own (hash) order."""
    return [frozenset((k, s)) for k in lg.ids for s in adj[k] if lg.index[k] < lg.index[s]]


def reference_base_distances(lg, adj):
    """The path-length rows as first written, on the caller's mapping `adj`
    keyed by id, sorting each row by position."""
    lengths = lg.edge_lengths
    return {
        k: {s: 0.5 * (lengths[k] + lengths[s]) for s in sorted(adj[k], key=lg.index.__getitem__)}
        for k in lg.ids
    }


def reference_pair_distance(lg):
    """The floored coordinate distance between two positions, as first
    written."""
    xs = [c[0] for c in lg.coords.values()]
    ys = [c[1] for c in lg.coords.values()]
    diag = math.hypot(max(xs) - min(xs), max(ys) - min(ys))
    floor = DISTANCE_FLOOR_FRAC * diag if diag > 0 else DISTANCE_FLOOR_FRAC
    pts = [lg.coords[k] for k in lg.ids]
    return lambda u, s: max(math.dist(pts[u], pts[s]), floor)


def reference_metric_rows(lg, adj, mode):
    """The planner's slot rows as first written: path rows re-keyed from
    `reference_base_distances`, coordinate rows sorted per row."""
    if mode is MetricMode.PATH_LENGTH:
        base = reference_base_distances(lg, adj)
        return [{lg.index[s]: w for s, w in base[k].items()} for k in lg.ids]
    pair_distance = reference_pair_distance(lg)
    return [
        {s: pair_distance(u, s) for s in sorted(map(lg.index.__getitem__, adj[k]))}
        for u, k in enumerate(lg.ids)
    ]


def assert_rows_match_reference(lg, adj):
    """Metric rows equal the references on the caller's adjacency `adj` in
    values and key order; the edge set is that of `adj`; the relink that
    comes with the rows joins the first non-adjacent pair with a common
    neighbour (the hub the relink is given) at its reference distance in
    the same metric: straight for coordinates, the shortest path over the
    rows for path lengths."""
    assert set(lg.edges()) == set(reference_edges(lg, adj))
    assert len(lg.edges()) == len(reference_edges(lg, adj))
    modes = [MetricMode.PATH_LENGTH] + ([MetricMode.COORDINATE] if lg.coords else [])
    for mode in modes:
        got, relink = lg.metric_rows(mode)
        want = reference_metric_rows(lg, adj, mode)
        assert [list(r.items()) for r in got] == [list(r.items()) for r in want]
        apart = [
            (u, v, hub)
            for u, v in combinations(range(lg.m), 2)
            if v not in got[u]
            for hub in got[u]
            if v in got[hub]
        ]
        if apart:
            u, v, hub = apart[0]
            if mode is MetricMode.PATH_LENGTH:
                dist = graph_reference.shortest_path_distances(want, u)[v]
            else:
                dist = reference_pair_distance(lg)(u, v)
            assert relink(got, hub, [u, v]) == [(u, v, dist)]


def assert_source_rows_match_reference(graph):
    assert_rows_match_reference(build_line_graph(graph), shared_endpoint_adjacency(graph))


@st.composite
def string_stations(draw):
    """A random connected stations graph with string ids in shuffled
    order, its stations on a 3 x 3 grid so that many coincide, and the
    adjacency it was built from."""
    m = draw(st.integers(3, 30))
    ids = [f"st{i}" for i in draw(st.permutations(range(m)))]
    adj = {k: set() for k in ids}
    pairs = [(i, draw(st.integers(0, i - 1))) for i in range(1, m)]
    pairs += draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)), max_size=m))
    for i, j in pairs:
        if i != j:
            adj[ids[i]].add(ids[j])
            adj[ids[j]].add(ids[i])
    point = st.tuples(st.sampled_from([0.0, 1.0, 2.0]), st.sampled_from([0.0, 1.0, 2.0]))
    coords = {k: draw(point) for k in ids}
    lengths = {k: draw(st.sampled_from([1.0, 2.0, 0.5])) for k in ids}
    return LineGraph(ids, adj, coords=coords, edge_lengths=lengths), adj


class TestRowsMatchReference:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(4, 120), seed=st.integers(0, 10_000))
    def test_random_msts(self, n, seed):
        assert_source_rows_match_reference(sample_network(n, seed=seed))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_flow_fixture(self, seed):
        assert_source_rows_match_reference(generate_flow_fixture(seed)[0])

    @settings(max_examples=40, deadline=None)
    @given(case=string_stations())
    def test_string_stations(self, case):
        assert_rows_match_reference(*case)


class FarSideRaises(dict):
    """Weighted rows that fail the test when an edge touching `far` is read."""

    def __init__(self, rows, far):
        self.far = set(far)
        self.lookups = 0
        super().__init__({u: _CheckedRow(self, u, row) for u, row in rows.items()})


class _CheckedRow(dict):
    """One row of `FarSideRaises`: checks and counts each (u, s) pair it yields."""

    def __init__(self, owner, u, row):
        super().__init__(row)
        self.owner, self.u = owner, u

    def items(self):
        for s, w in super().items():
            pair = {self.u, s}
            assert not pair & self.owner.far, f"search reached {pair}"
            self.owner.lookups += 1
            yield s, w


class TestShortestPathDistance:
    def test_targets_bitwise_equal_full_search(self, mst_lg):
        base = path_rows_by_id(mst_lg)
        rng = np.random.default_rng(0)
        for source in mst_lg.ids[:10]:
            full = graph_reference.shortest_path_distances(base, source)
            assert len(full) == mst_lg.m
            targets = list(rng.choice(np.array(mst_lg.ids), size=6, replace=False))
            got = shortest_path_distance(base, source, targets)
            assert set(got) == set(targets)
            assert all(got[t].hex() == full[t].hex() for t in targets)

    def test_unreachable_target_absent(self):
        base = {"a": {"b": 1.5}, "b": {"a": 1.5}, "c": {"d": 2.0}, "d": {"c": 2.0}}
        assert shortest_path_distance(base, "a", ["b", "c"]) == {"b": 1.5}
        assert shortest_path_distance(base, "a", ["d"]) == {}

    def test_source_and_empty_targets(self):
        lg = chain_lg([1.0] * 4)
        base = FarSideRaises(path_rows_by_id(lg), far=lg.ids)
        assert shortest_path_distance(base, "e0", ["e0"]) == {"e0": 0.0}
        assert shortest_path_distance(base, "e0", []) == {}
        assert base.lookups == 0

    def test_stops_once_targets_settled(self):
        lg = chain_lg([1.0] * 10)
        far = [f"e{i}" for i in range(3, 10)]
        base = FarSideRaises(path_rows_by_id(lg), far=far)
        got = shortest_path_distance(base, "e0", ["e2", "e1"])
        assert got == {"e1": 1.0, "e2": 2.0}
        assert base.lookups == 3
        with pytest.raises(AssertionError, match="search reached"):
            shortest_path_distance(base, "e0", ["e9"])


@st.composite
def hub_graphs(draw):
    """Weighted rows on slots 0..n-1 around a hub, slot 0, and the hub's
    neighbours ascending, as a relink sees them: spokes from the hub plus
    random edges anywhere.  Weights come from a few tied values and from a
    wide range, so sums round and paths tie."""
    n = draw(st.integers(3, 20))
    weight = st.one_of(st.sampled_from([0.1, 0.5, 1.0, 1.5]), st.floats(1e-3, 1e3))
    adj = [{} for _ in range(n)]
    for s in draw(st.lists(st.integers(1, n - 1), min_size=2, unique=True)):
        adj[0][s] = adj[s][0] = draw(weight)
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)):
        if i != j:
            adj[i][j] = adj[j][i] = draw(weight)
    return adj, sorted(adj[0])


@settings(max_examples=200, deadline=None)
@given(case=hub_graphs())
def test_hub_bounded_search_is_bitwise_the_full_one(case):
    """A search from each hub neighbour u towards the later ones, bounded by
    w(u, hub) + max w(hub, v) as the path relink bounds it, settles every
    target at the frozen whole-component distance, bit for bit, and in the
    order the unbounded search settles them."""
    adj, slots = case
    hub = adj[0]
    for i, u in enumerate(slots[:-1]):
        later = slots[i + 1 :]
        bound = hub[u] + max(hub[v] for v in later)
        full = graph_reference.shortest_path_distances(adj, u)
        got = shortest_path_distance(adj, u, later, bound)
        assert {v: d.hex() for v, d in got.items()} == {v: full[v].hex() for v in later}
        assert list(got.items()) == list(shortest_path_distance(adj, u, later).items())


@st.composite
def cyclic_removals(draw):
    """A random connected line graph with cycles, string ids in shuffled
    order, lengths from a few tied values and from 1e-3..1e3 (so sums
    round and paths tie), and an order removing all but two positions."""
    m = draw(st.integers(4, 24))
    ids = [f"v{i}" for i in draw(st.permutations(range(m)))]
    adj = {k: set() for k in ids}
    pairs = [(i, draw(st.integers(0, i - 1))) for i in range(1, m)]
    pairs += draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
                           min_size=m // 2, max_size=2 * m))
    for i, j in pairs:
        if i != j:
            adj[ids[i]].add(ids[j])
            adj[ids[j]].add(ids[i])
    length = st.one_of(st.sampled_from([0.5, 1.0, 1.5, 2.0]), st.floats(1e-3, 1e3))
    lengths = {k: draw(length) for k in ids}
    order = draw(st.permutations(range(m)))[: m - 2]
    return LineGraph(ids, adj, edge_lengths=lengths), order


def remove_slot(adj, k):
    for s in adj[k]:
        del adj[s][k]
    adj[k] = {}


class TestPathRelink:
    @settings(max_examples=60, deadline=None)
    @given(case=cyclic_removals())
    def test_whole_removals_match_the_reference_relink(self, case):
        """Through a whole removal sequence, each path relink adds the edges
        and distances, bit for bit, of the reference that measures every
        pair by a whole-component search."""
        lg, order = case
        adj, relink = lg.metric_rows(MetricMode.PATH_LENGTH)
        ref = [row.copy() for row in adj]
        for k in order:
            slots = sorted(adj[k])
            got = relink(adj, k, slots)
            want = graph_reference.path_relink(ref, k, slots, lg.ids)
            assert [(u, v, w.hex()) for u, v, w in got] == [(u, v, w.hex()) for u, v, w in want]
            remove_slot(adj, k)
            remove_slot(ref, k)
        assert adj == ref

    @pytest.mark.parametrize("x, detour", [(1.0, 2.0), (1.0 - 2.0**-51, 2.0 - 2.0**-51)])
    def test_shorter_detour_is_searched(self, monkeypatch, x, detour):
        """u and v meet the hub k at 10 each, or at 1 each with x's length
        one step below 1, and the path u - x - v is shorter: 2 against 20,
        or 2 - 2**-51 against 2.  Their cheapest edges sum to that detour,
        below the hub sum, so the pair is searched and joined at the
        detour."""
        ids = ["k", "u", "v", "x"]
        adj = {"k": {"u", "v"}, "u": {"k", "x"}, "v": {"k", "x"}, "x": {"u", "v"}}
        hub = 19.0 if detour == 2.0 else 1.0
        lg = LineGraph(ids, adj, edge_lengths={"k": hub, "u": 1.0, "v": 1.0, "x": x})
        rows, relink = lg.metric_rows(MetricMode.PATH_LENGTH)
        assert rows[0][1] + rows[0][2] > detour
        searches = []

        def counted(*args):
            searches.append(args[1:3])
            return shortest_path_distance(*args)

        monkeypatch.setattr("lglift.graph.shortest_path_distance", counted)
        assert relink(rows, 0, [1, 2]) == [(1, 2, detour)]
        assert searches == [(1, [2])]

    def test_settled_pair_reads_no_row_beyond_the_slots(self):
        """u and v meet the hub k at 1 each and have no cheaper edge, so the
        pair is settled at 2 without a search: no row is read, and the far
        side u - x - y, which a search from u would reach, stays untouched."""
        ids = ["k", "u", "v", "x", "y"]
        adj = {"k": {"u", "v"}, "u": {"k", "x"}, "v": {"k"}, "x": {"u", "y"}, "y": {"x"}}
        lg = LineGraph(ids, adj, edge_lengths={"k": 1.0, "u": 1.0, "v": 1.0, "x": 3.0, "y": 1.0})
        rows, relink = lg.metric_rows(MetricMode.PATH_LENGTH)
        base = FarSideRaises(dict(enumerate(rows)), far=[0, 3, 4])
        assert relink(base, 0, [1, 2]) == [(1, 2, 2.0)]
        assert base.lookups == 0
        with pytest.raises(AssertionError, match="search reached"):
            shortest_path_distance(base, 1, [2])


    def test_overflowing_hub_sum_is_searched(self):
        """Relinked distances can reach 1e308, and a hub sum of two of them
        overflows: such a pair is searched, which reaches nothing below
        inf, and raises as a pair the metric cannot join."""
        lg = LineGraph(["k", "u", "v"], {"k": {"u", "v"}, "u": {"k"}, "v": {"k"}},
                       edge_lengths={"k": 1.0, "u": 1.0, "v": 1.0})
        _, relink = lg.metric_rows(MetricMode.PATH_LENGTH)
        rows = [{1: 1e308, 2: 1e308}, {0: 1e308}, {0: 1e308}]
        with pytest.raises(GraphError, match="disconnected in metric: 'u' and 'v'"):
            relink(rows, 0, [1, 2])

    @staticmethod
    def _counted(monkeypatch):
        """The (source, targets) of every search the relink runs."""
        searches = []

        def counted(*args):
            searches.append(args[1:3])
            return shortest_path_distance(*args)

        monkeypatch.setattr("lglift.graph.shortest_path_distance", counted)
        return searches

    @pytest.mark.parametrize("x, detour", [(2.0, 3.5), (2.0 - 2.0**-51, 3.5 - 2.0**-51)])
    def test_two_hop_detour_settles_only_at_or_above_the_candidate(self, monkeypatch, x, detour):
        """u and v meet the hub k at 1.5 + 2 = 3.5 and the common neighbour x
        at `detour`: 3.5 exactly, or one ulp below it.  u's leaf y gives
        low(u) = w_min = 0.75, so low(u) + low(v) < 3.5 and only the
        two-hop test decides (the three-edge bound 0.75 + 0.75 + 2 is
        3.5).  An equal detour is settled without a search; a shorter one
        is searched and joins the pair at its own distance."""
        ids = ["k", "u", "v", "x", "y"]
        adj = {"k": {"u", "v"}, "u": {"k", "x", "y"}, "v": {"k", "x"}, "x": {"u", "v"},
               "y": {"u"}}
        lg = LineGraph(ids, adj, edge_lengths={"k": 2.0, "u": 1.0, "v": 2.0, "x": x, "y": 0.5})
        rows, relink = lg.metric_rows(MetricMode.PATH_LENGTH)
        assert rows[1][3] + rows[3][2] == detour and rows[1][0] + rows[0][2] == 3.5
        searches = self._counted(monkeypatch)
        assert relink(rows, 0, [1, 2]) == [(1, 2, detour)]
        assert searches == ([] if detour == 3.5 else [(1, [2])])

    def test_three_edge_detour_at_the_bound_is_searched(self, monkeypatch):
        """The hub path weighs one ulp above fl(fl(low(u) + w_min) + low(v))
        = 1.5, and u - a - b - v weighs exactly that bound: the pair is
        searched and joined at 1.5.  w_min is a's edge to b, below the
        smallest weight of the hub's row."""
        ids = ["k", "u", "v", "a", "b"]
        adj = {"k": {"u", "v"}, "u": {"k", "a"}, "v": {"k", "b"}, "a": {"u", "b"},
               "b": {"a", "v"}}
        lengths = {"k": 1.0 + 2.0**-52, "u": 0.5, "v": 0.5, "a": 0.5, "b": 0.5}
        lg = LineGraph(ids, adj, edge_lengths=lengths)
        rows, relink = lg.metric_rows(MetricMode.PATH_LENGTH)
        assert rows[1][0] + rows[0][2] == math.nextafter(1.5, 2.0)
        searches = self._counted(monkeypatch)
        assert relink(rows, 0, [1, 2]) == [(1, 2, 1.5)]
        assert searches == [(1, [2])]

    def test_overflowing_candidate_with_a_common_neighbour_is_searched(self):
        """The hub sum, the two-hop path through x and the three-edge bound
        all overflow to inf: the pair is not settled at inf but searched,
        and raises as a pair the metric cannot join."""
        ids = ["k", "u", "v", "x"]
        lg = LineGraph(ids, {"k": {"u", "v"}, "u": {"k", "x"}, "v": {"k", "x"}, "x": {"u", "v"}},
                       edge_lengths=dict.fromkeys(ids, 1.0))
        _, relink = lg.metric_rows(MetricMode.PATH_LENGTH)
        rows = [{1: 1e308, 2: 1e308}, {0: 1e308, 3: 1e308}, {0: 1e308, 3: 1e308},
                {1: 1e308, 2: 1e308}]
        with pytest.raises(GraphError, match="disconnected in metric: 'u' and 'v'"):
            relink(rows, 0, [1, 2])


    def test_hub_sum_is_not_always_the_distance_on_a_block_graph(self):
        """On the tree A - B - C with leaves D and E at C, edges u = AB of
        2**53, k = BC of 0.9, x = CD of 0.05 and v = CE of 0.9, the line
        graph is a block graph.  Removing k joins u to the clique {x, v}.
        The hub sum w(u, k) + w(k, v) rounds up to 2**52 + 1 ulp, but the
        path u - k - x - v rounds down to 2**52, so the relink adds u - v at
        2**52 (u - x ties it and loses on rank), not the u - x that a
        hub-sum rule would pick: on a block graph, an edge is not always a
        shortest path in floats."""
        edges = [EdgeRec("u", "A", "B", 2.0**53), EdgeRec("k", "B", "C", 0.9),
                 EdgeRec("x", "C", "D", 0.05), EdgeRec("v", "C", "E", 0.9)]
        lg = build_line_graph(Graph([(c, None) for c in "ABCDE"], edges))
        rows, _ = lg.metric_rows(MetricMode.PATH_LENGTH)
        u, k, x, v = (lg.index[e] for e in "ukxv")
        assert rows[u][k] + rows[k][v] == float.fromhex("0x1.0000000000001p+52")
        assert rows[u][k] + rows[k][x] + rows[x][v] == float.fromhex("0x1p+52")
        _, record = forward(np.zeros(lg.m), lg, LiftingConfig.from_acronym("LG-Sid-p"),
                            trajectory=["k", "x"])
        assert record.stages[0].removed == "k"
        assert record.stages[0].edges_added == (("u", "v", float.fromhex("0x1p+52")),)


def all_pairs_mst(xy):
    """The all-pairs Euclidean MST of the rows of `xy`, each row's id its
    position: Kruskal over every pair of points."""
    points = list(enumerate(np.asarray(xy, dtype=float).tolist()))
    edges = [
        (a, b, math.dist(ca, cb))
        for (a, ca), (b, cb) in combinations(points, 2)
    ]
    return graph_reference.minimum_spanning_tree([p[0] for p in points], edges)


def _points(xy, seed):
    """The points `xy` as an (n, 2) array, rows shuffled, so that the ranks
    of their positions and the geometry break distance ties differently."""
    xy = np.asarray(xy, dtype=float)
    return xy[np.random.default_rng(seed).permutation(len(xy))]


@st.composite
def uniform_points(draw):
    n = draw(st.integers(2, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _points(rng.uniform(0.0, 1.0, size=(n, 2)), draw(st.integers(0, 1000)))


@st.composite
def lattice_points(draw):
    rows, cols = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    scale = draw(st.sampled_from([1e-3, 0.1, 1.0, 3.0, 1e4]))
    ox, oy = draw(st.sampled_from([(0.0, 0.0), (0.3, -0.7), (1e3, 2e3)]))
    xy = [(ox + i * scale, oy + j * scale) for i in range(rows) for j in range(cols)]
    return _points(xy, draw(st.integers(0, 1000)))


@st.composite
def cocircular_points(draw):
    k = draw(st.integers(3, 60))
    r = draw(st.sampled_from([1e-2, 1.0, 50.0]))
    phase = draw(st.floats(0.0, 2 * math.pi))
    xy = [(r * math.cos(phase + 2 * math.pi * i / k), r * math.sin(phase + 2 * math.pi * i / k))
          for i in range(k)]
    return _points(xy + [(0.0, 0.0)], draw(st.integers(0, 1000)))


@st.composite
def collinear_points(draw):
    n = draw(st.integers(3, 60))
    direction = draw(st.sampled_from([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (-2.0, 1.0)]))
    ts = draw(st.lists(st.integers(-1000, 1000), min_size=n, max_size=n, unique=True))
    return _points([(t * direction[0], t * direction[1]) for t in ts], draw(st.integers(0, 1000)))


class TestEuclideanMstCandidates:
    """`_euclidean_mst` runs Kruskal over the pairs within a radius, which
    doubles until the tree certifies itself; the tree must be the all-pairs
    tree, the same tuples in the same order."""

    @settings(max_examples=60, deadline=None)
    @given(xy=uniform_points())
    def test_uniform_points(self, xy):
        assert _euclidean_mst(xy) == all_pairs_mst(xy)

    @settings(max_examples=40, deadline=None)
    @given(xy=lattice_points())
    def test_shuffled_lattices(self, xy):
        assert _euclidean_mst(xy) == all_pairs_mst(xy)

    @settings(max_examples=40, deadline=None)
    @given(xy=cocircular_points())
    def test_cocircular_with_centre(self, xy):
        assert _euclidean_mst(xy) == all_pairs_mst(xy)

    @settings(max_examples=30, deadline=None)
    @given(xy=collinear_points())
    def test_collinear_points(self, xy):
        assert _euclidean_mst(xy) == all_pairs_mst(xy)

    def test_pairs_within(self):
        """The pairs within r, each once, as brute force finds them."""
        xy = np.random.default_rng(4).uniform(0.0, 1.0, size=(300, 2))
        i, j, h = _pairs_within(xy, 0.1)
        brute = {(a, b) for a, b in combinations(range(300), 2)
                 if np.hypot(*(xy[a] - xy[b])) <= 0.1}
        assert sorted(zip(i.tolist(), j.tolist())) == sorted(brute)
        assert h.tolist() == [np.hypot(*(xy[a] - xy[b])) for a, b in zip(i, j)]

    def test_lattice_offset_by_1e8(self):
        """A lattice of spacing 0.1, 1e8 from the origin: its neighbour
        distances, equal on paper, differ by rounding, so the runs of near
        ties are re-sorted by the exact key."""
        xy = [(1e8 + 0.1 * i, 1e8 + 0.1 * j) for i in range(9) for j in range(7)]
        assert len({math.dist(a, b) for a, b in combinations(xy, 2) if math.dist(a, b) < 0.15}) > 1
        xy = _points(xy, 8)
        assert _euclidean_mst(xy) == all_pairs_mst(xy)

    def test_points_far_from_the_origin(self):
        """Four points 1e8 from the origin, within a unit square, where a
        Delaunay triangulation from Qhull misses the tree's heaviest edge."""
        xy = np.array([(100000000.7029646, 100000000.79588556), (100000000.8300402, 100000000.04153429),
                       (100000000.90549822, 100000000.16490127), (100000000.82537207, 100000000.86302719)])
        assert _euclidean_mst(xy) == all_pairs_mst(xy)
        # not the heavier (3, 2) of the triangulation's tree
        assert _euclidean_mst(xy)[-1] == (0, 2, math.dist(xy[0].tolist(), xy[2].tolist()))

    @pytest.mark.parametrize("xy", [[(0.0, 0.0), (3.0, 4.0)], [(1e-3, 0.0), (0.0, 0.0)]])
    def test_two_points(self, xy):
        xy = _points(xy, 2)
        assert _euclidean_mst(xy) == all_pairs_mst(xy)

    def test_all_points_collinear(self):
        """Points on one line: a bounding box of no area, so the first
        radius comes from its diagonal."""
        t = np.random.default_rng(3).permutation(200)
        xy = _points([(2.0 * x, -1.0 * x) for x in t.tolist()], 3)
        assert _euclidean_mst(xy) == all_pairs_mst(xy)

    @pytest.mark.parametrize("n", [2, 3, 50])
    def test_duplicate_points_rejected(self, n):
        xy = np.random.default_rng(n).uniform(0.0, 1.0, size=(n, 2))
        xy = _points(np.vstack([xy, xy[:1]]), n)
        for mst in (_euclidean_mst, all_pairs_mst):
            with pytest.raises(GraphError, match="non-positive"):
                mst(xy)

    @pytest.mark.parametrize("seed", range(3))
    def test_sampled_network_n500(self, seed):
        graph = sample_network(500, seed)
        xy = np.array(list(graph.coords.values()))
        tree = all_pairs_mst(xy)
        assert _euclidean_mst(xy) == tree
        assert [(e.id, e.u, e.v, e.length) for e in graph.edges] == [(j, *e) for j, e in enumerate(tree)]

    def test_sampled_networks_stay_near_linear(self, monkeypatch):
        """No quadratic case is reachable from a public function: over
        many seeds of `sample_network` from n = 3 to 20 000, the tree takes
        at most 3 candidate searches, and the last one finds at most
        2.5 n (log n + 8) pairs within its radius.

        Measured on these seeds: at most 2 searches (a second one for
        about 8% of the networks at n = 100 and 4% at n = 500, none at
        n >= 2000), and at most 1.72 n (log n + 8) pairs (n = 500).  A
        doubled radius holds about 4 times the first one's pairs,
        n (log n + 8) / 2 less the unit square's edges, so the ratio nears
        2 as n grows: 1.81 at n = 1000 over 300 seeds."""
        found = []

        def counted(xy, r):
            pairs = _pairs_within(xy, r)
            found.append(len(pairs[2]))
            return pairs

        monkeypatch.setattr("lglift.graph._pairs_within", counted)
        for n, seeds in [(3, 1000), (5, 1000), (20, 1000), (100, 1000), (500, 200), (2000, 20),
                         (20000, 2)]:
            for seed in range(seeds):
                found.clear()
                assert sample_network(n, seed).m == n - 1
                assert 1 <= len(found) <= 3
                assert found[-1] <= 2.5 * n * (math.log(n) + 8.0), (n, seed)


def brute_force_mst_weight(vertices, weighted_edges):
    best = math.inf
    for subset in combinations(weighted_edges, len(vertices) - 1):
        if graph_reference.is_connected(vertices, [(u, v) for u, v, _ in subset]):
            best = min(best, sum(w for _, _, w in subset))
    return best


class TestSpanningTree:
    def test_two_points(self):
        tree = _euclidean_mst(np.array([(0.0, 0.0), (1.0, 0.0)]))
        assert len(tree) == 1 and tree[0][2] == pytest.approx(1.0)

    def test_collinear_three_points(self):
        tree = _euclidean_mst(np.array([(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)]))
        total = sum(w for _, _, w in tree)
        assert total == pytest.approx(3.0)
        assert {frozenset((u, v)) for u, v, _ in tree} == {
            frozenset((0, 1)),
            frozenset((1, 2)),
        }

    def test_unit_square(self):
        xy = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        assert sum(w for _, _, w in _euclidean_mst(xy)) == pytest.approx(3.0)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(GraphError, match="non-positive"):
            _euclidean_mst(np.array([(0.0, 0.0), (0.0, 0.0)]))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_minimum(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 8))
        xy = rng.uniform(0, 1, (n, 2))
        edges = [(a, b, math.dist(xy[a], xy[b])) for a, b in combinations(range(n), 2)]
        tree = _euclidean_mst(xy)
        assert len(tree) == n - 1
        assert graph_reference.is_connected(range(n), [(u, v) for u, v, _ in tree])
        total = sum(w for _, _, w in tree)
        assert total == pytest.approx(brute_force_mst_weight(range(n), edges))

    def test_deterministic_under_ties(self):
        # square with unit sides: four equal-weight candidates, stable pick
        xy = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        assert _euclidean_mst(xy) == _euclidean_mst(xy.copy())


class TestConnectivity:
    def test_single_vertex(self):
        assert _connected(1, [])

    def test_split_components(self):
        assert not _connected(3, [(0, 1)])

    def test_chain(self):
        assert _connected(3, [(0, 1), (1, 2)])


#: ids as `io` parses them, mixing ints and strings whose `repr` order,
#: int order and draw order disagree ("1" and 1 both occur)
MIXED_IDS = st.one_of(st.integers(-3, 12), st.from_regex(r"[ab1][0-9]?", fullmatch=True))


@st.composite
def spanning_inputs(draw):
    """Vertices and weighted edges among them: tied weights, often too few
    edges to connect them, and with a drawn flag, no or repeated vertices,
    weights that are not positive and finite or an endpoint that is not a
    vertex."""
    faulty = draw(st.integers(0, 3)) == 0
    vertices = draw(st.lists(MIXED_IDS, min_size=int(not faulty), max_size=8, unique=not faulty))
    end = st.sampled_from(vertices) if vertices else MIXED_IDS
    weight = st.sampled_from([0.5, 1.0, 1.0, 2.0])
    if faulty:
        end = end | MIXED_IDS
        weight = weight | st.sampled_from([0.0, -1.0, math.inf, math.nan])
    edges = draw(st.lists(st.tuples(end, end, weight), max_size=12))
    if vertices and draw(st.booleans()):
        # hide a random tree among the edges, so that many draws span
        tree = [(v, vertices[draw(st.integers(0, i))], draw(weight))
                for i, v in enumerate(vertices[1:])]
        edges = draw(st.permutations(edges + tree))
    return vertices, edges


def _outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return "returned", fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _slots(vertices, edges):
    """The edges as pairs of vertex positions, for the drawn inputs that
    `_kruskal` and `_connected` take: some vertices, none repeated, and
    every endpoint among them."""
    index = {v: i for i, v in enumerate(vertices)}
    assume(index and len(index) == len(vertices))
    assume(all(u in index and v in index for u, v, _ in edges))
    return [(index[u], index[v]) for u, v, _ in edges]


class TestFrozenReferences:
    """The union-find Kruskal and connectivity test that the planner and
    the line graph share (`_euclidean_mst` walks the same union-find) must
    give what the frozen references in `graph_reference` give on the same
    vertices and edges: the same tree, or no spanning tree where the
    reference cannot span."""

    @settings(max_examples=300, deadline=None)
    @given(inputs=spanning_inputs())
    def test_minimum_spanning_tree(self, inputs):
        vertices, edges = inputs
        pairs = _slots(vertices, edges)
        assume(all(0.0 < w < math.inf for _, _, w in edges))
        tree = _kruskal(len(vertices), pairs, [w for _, _, w in edges], _repr_rank(vertices))
        got = ("returned", [edges[e] for e in tree])
        if len(tree) < len(vertices) - 1:
            got = (GraphError, "cannot span: weighted edges do not connect the vertices")
        want = _outcome(graph_reference.minimum_spanning_tree, vertices, edges)
        assert got == want and repr(got) == repr(want)

    @settings(max_examples=300, deadline=None)
    @given(inputs=spanning_inputs())
    def test_is_connected(self, inputs):
        vertices, edges = inputs
        got = _connected(len(vertices), _slots(vertices, edges))
        assert got == graph_reference.is_connected(vertices, [(u, v) for u, v, _ in edges])


def network_fingerprint(graph) -> str:
    """sha256 over a network and its line graph: vertex coordinates, edges
    (id, u, v, length), the line graph's rows, rank, coordinates, edge
    lengths and values, and the weighted rows of each metric it has, every
    float by its exact `repr` and every dict in its own order."""
    h = hashlib.sha256()

    def put(*items):
        h.update(repr(items).encode())

    lg = build_line_graph(graph)
    put(list(graph.coords.items()))
    put([(e.id, e.u, e.v, e.length) for e in graph.edges])
    put(lg.rows, lg.rank)
    for given in (lg.coords, lg.edge_lengths, lg.values):
        put(list(given.items()) if given is not None else None)
    for mode, given in ((MetricMode.COORDINATE, lg.coords), (MetricMode.PATH_LENGTH, lg.edge_lengths)):
        if given is not None:
            put(mode.value, [list(row.items()) for row in lg.metric_rows(mode)[0]])
    return h.hexdigest()


def test_sampled_networks_match_the_parent():
    """The sampled MST networks (n = 100 seeds 0-19, the n = 500 networks
    of seeds 0 and 1) and flow fixtures (seeds 0-4), their line graphs and
    metric rows are bitwise those recorded before the network build was
    streamlined."""
    networks = [sample_network(100, seed) for seed in range(20)]
    networks += [sample_network(500, seed) for seed in range(2)]
    networks += [generate_flow_fixture(seed)[0] for seed in range(5)]
    digest = hashlib.sha256()
    for graph in networks:
        digest.update(network_fingerprint(graph).encode())
    assert digest.hexdigest() == "9a5a13cbcaefea423f8f474f306b155e573b9b78175c719743f8c629c1be28f6"
