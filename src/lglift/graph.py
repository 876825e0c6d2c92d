"""Graph and line-graph data model.

A network is an undirected graph whose edges carry lengths (and optionally
observation values); the line graph maps every edge to a new vertex, with
new vertices adjacent exactly when their source edges share one endpoint.
Everything here is immutable after construction and safe to share.
"""

from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import combinations
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

Id = Hashable
Coord = Tuple[float, float]

#: floor on coordinate distances, as a fraction of the coordinate bounding
#: box diagonal; keeps inverse-distance weights finite for duplicate stations
DISTANCE_FLOOR_FRAC = 1e-9


class GraphError(ValueError):
    """Invalid graph structure or unusable metric inputs."""


class MetricMode(str, Enum):
    COORDINATE = "coordinate"
    PATH_LENGTH = "path_length"


@dataclass(frozen=True)
class EdgeRec:
    """An undirected edge {u, v} with optional length and observation value."""

    id: Id
    u: Id
    v: Id
    length: Optional[float] = None
    value: Optional[float] = None

    @property
    def pair(self) -> FrozenSet[Id]:
        return frozenset((self.u, self.v))


def _coord(vid: Id, xy) -> Coord:
    """The coordinates `xy` of vertex `vid` as a pair of floats: exactly two
    finite real numbers, neither a bool, or a `GraphError`."""
    try:
        x, y = xy
    except (TypeError, ValueError):  # None, a number, or not two entries
        raise GraphError(f"vertex {vid!r} has coordinates {xy!r}: need two real numbers") from None
    if type(x) is not float or type(y) is not float:  # any other real number but a bool
        for c in (x, y):
            if isinstance(c, (bool, np.bool_)):
                raise GraphError(f"vertex {vid!r} has a bool coordinate in {(x, y)}")
            if not isinstance(c, numbers.Real):
                raise GraphError(f"vertex {vid!r} has coordinates {xy!r}: need two real numbers")
        x, y = float(x), float(y)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise GraphError(f"vertex {vid!r} has non-finite coordinates {(x, y)}")
    return x, y


def _length(eid: Id, value) -> float:
    """The length `value` of edge `eid` as a float: one finite, positive
    real number, not a bool, or a `GraphError`."""
    if type(value) is not float:  # any other real number but a bool
        if isinstance(value, (bool, np.bool_)):
            raise GraphError(f"edge {eid!r} has a bool length {value}")
        if not isinstance(value, numbers.Real):
            raise GraphError(f"edge {eid!r} has length {value!r}: need a real number")
        value = float(value)
    if not math.isfinite(value):
        raise GraphError(f"edge {eid!r} has non-finite length {value}")
    if not value > 0:
        raise GraphError(f"edge {eid!r} has non-positive length {value}")
    return value


class Graph:
    """Undirected graph with optional 2-D vertex coordinates, each read by
    `_coord`, and edge lengths, each read by `_length`.

    Edge lengths default to the Euclidean endpoint distance when both
    endpoints carry coordinates; explicit lengths take precedence.
    """

    def __init__(
        self,
        vertices: Sequence[Tuple[Id, Optional[Coord]]],
        edges: Sequence[EdgeRec],
    ) -> None:
        self.coords: Dict[Id, Optional[Coord]] = {}
        for vid, xy in vertices:
            if vid in self.coords:
                raise GraphError(f"duplicate vertex id {vid!r}")
            self.coords[vid] = None if xy is None else _coord(vid, xy)

        seen_pairs: Set[FrozenSet[Id]] = set()
        self.edge_by_id: Dict[Id, EdgeRec] = {}
        for e in edges:
            if e.id in self.edge_by_id:
                raise GraphError(f"duplicate edge id {e.id!r}")
            if e.u not in self.coords or e.v not in self.coords:
                raise GraphError(f"edge {e.id!r} references unknown vertex")
            if e.u == e.v:
                raise GraphError(f"edge {e.id!r} is a self-loop")
            if (pair := e.pair) in seen_pairs:
                raise GraphError(f"duplicate edge between {e.u!r} and {e.v!r}")
            seen_pairs.add(pair)
            length = e.length
            if length is None:
                cu, cv = self.coords[e.u], self.coords[e.v]
                if cu is not None and cv is not None:
                    length = math.dist(cu, cv)
            if length is not None:
                length = _length(e.id, length)
                if length is not e.length:
                    e = EdgeRec(e.id, e.u, e.v, length, e.value)
            self.edge_by_id[e.id] = e  # the caller's own when its length is a float: EdgeRec is frozen
        self.edges: Tuple[EdgeRec, ...] = tuple(self.edge_by_id.values())

    @property
    def n(self) -> int:
        return len(self.coords)

    @property
    def m(self) -> int:
        return len(self.edges)


class LineGraph:
    """Line graph: one new vertex per source edge, plus a metric provider.

    New vertices inherit the source edge ids.  Coordinates, when present,
    are the source-edge midpoints (or station coordinates in station mode);
    coordinates and edge lengths, when given, must cover every new vertex,
    and each is read by `_coord` or `_length`, as `Graph` reads its own.
    """

    def __init__(
        self,
        ids: Sequence[Id],
        adjacency: Dict[Id, Set[Id]],
        coords: Optional[Dict[Id, Coord]] = None,
        edge_lengths: Optional[Dict[Id, float]] = None,
        values: Optional[Dict[Id, float]] = None,
    ) -> None:
        self.ids: Tuple[Id, ...] = tuple(ids)
        self.index: Dict[Id, int] = {k: i for i, k in enumerate(self.ids)}
        if len(self.index) < len(self.ids):  # the index keeps an id's last position
            dup = next(k for i, k in enumerate(self.ids) if self.index[k] != i)
            raise GraphError(f"duplicate line-graph id {dup!r}")
        rows = []
        for k in self.ids:
            nbrs = adjacency.get(k, ())
            if k in nbrs:
                raise GraphError(f"line-graph self-adjacency at {k!r}")
            for s in nbrs:
                if s not in self.index:
                    raise GraphError(f"line-graph adjacency names unknown id {s!r}")
                if k not in adjacency.get(s, ()):
                    raise GraphError("line-graph adjacency is not symmetric")
            rows.append(tuple(sorted({self.index[s] for s in nbrs})))
        #: each position's neighbour positions, ascending: the one adjacency
        self.rows: Tuple[Tuple[int, ...], ...] = tuple(rows)
        #: each position's `repr` rank, the tie-break of the planner's relinks
        self.rank: Tuple[int, ...] = tuple(_repr_rank(self.ids))
        pairs = ((u, s) for u, r in enumerate(rows) for s in r if u < s)
        self.connected = _connected(self.m, pairs)
        for what, given in (("coordinates", coords), ("edge lengths", edge_lengths)):
            missing = [k for k in self.ids if k not in given] if given else []
            if missing:
                raise GraphError(f"{what} missing for new vertices {missing[:3]!r}")
        self.coords = {k: _coord(k, coords[k]) for k in self.ids} if coords else None
        self.edge_lengths = {k: _length(k, edge_lengths[k]) for k in self.ids} if edge_lengths else None
        self.values = dict(values) if values else None
        #: each metric mode's weighted rows and relink, built on first use
        self._metrics: Dict[MetricMode, tuple] = {}

    @property
    def m(self) -> int:
        return len(self.ids)

    def edges(self) -> List[FrozenSet[Id]]:
        ids = self.ids
        return [frozenset((ids[u], ids[s])) for u, r in enumerate(self.rows) for s in r if u < s]

    def metric_rows(self, mode: MetricMode):
        """The metric the planner lifts with: fresh weighted rows
        `{s: dist}` on positions, in the order of `rows`, and the relink
        `relink(adj, k, slots)` that joins the ascending neighbours `slots`
        of a removed slot k over such rows in the same metric (see
        `_relink`).  Finite inputs so large that a distance overflows are
        rejected.  Each mode's rows and relink are built once; a call
        returns copies of the rows, which the planner edits."""
        try:
            mode = MetricMode(mode)
        except ValueError:
            raise GraphError(f"unknown metric mode {mode!r}") from None
        metric = self._metrics.get(mode)
        if metric is None:
            metric = self._metrics[mode] = self._metric(mode)
        rows, relink = metric
        return [row.copy() for row in rows], relink

    def _metric(self, mode: MetricMode):
        """The weighted rows and the relink `metric_rows` hands out."""
        if mode is MetricMode.PATH_LENGTH:
            if self.edge_lengths is None:
                raise GraphError("metric inputs unavailable: no source edge lengths")
            ids = self.ids
            lengths = [self.edge_lengths[k] for k in ids]
            rows = self._mirrored(lambda u, s: 0.5 * (lengths[u] + lengths[s]))
            # no live weight falls below the rows' smallest (see `_relink`)
            w_min = min((w for row in rows for w in row.values()), default=math.inf)

            def measure(adj, k, slots):
                # may route through the removed slot k; frozen at link time
                # (exact inverse).  A pair whose direct or hub path no other
                # path can undercut is not searched, and a path u - k - v
                # bounds each search.
                hub, inf = adj[k], math.inf
                low = [min(adj[u].values()) for u in slots]
                dist = []
                for i, u in enumerate(slots[:-1]):
                    row, hu, lu = adj[u], hub[u], low[i]
                    lw = lu + w_min
                    search = []  # (index into dist, slot) of the pairs left
                    for v, lv in zip(slots[i + 1:], low[i + 1:]):
                        c = hu + hub[v]
                        w = row.get(v)
                        if w is not None and w < c:
                            c = w
                        if c < inf:
                            if lu + lv >= c:
                                dist.append(c)
                                continue
                            if lw + lv >= c:
                                rv = adj[v]
                                for x in row.keys() & rv.keys():
                                    if row[x] + rv[x] < c:
                                        break
                                else:
                                    dist.append(c)
                                    continue
                        search.append((len(dist), v))
                        dist.append(None)
                    if not search:
                        continue
                    bound = hu + max([hub[v] for _, v in search])
                    reached = shortest_path_distance(adj, u, [v for _, v in search], bound)
                    for e, v in search:
                        if v not in reached:
                            raise GraphError(
                                f"disconnected in metric: {ids[u]!r} and {ids[v]!r}"
                            )
                        dist[e] = reached[v]
                return dist
        else:
            if self.coords is None:
                raise GraphError("metric inputs unavailable: missing coordinates")
            xs = [c[0] for c in self.coords.values()]
            ys = [c[1] for c in self.coords.values()]
            diag = math.hypot(max(xs) - min(xs), max(ys) - min(ys))
            floor = DISTANCE_FLOOR_FRAC * diag if diag > 0 else DISTANCE_FLOOR_FRAC
            pts = [self.coords[k] for k in self.ids]

            def pair_distance(u: int, v: int) -> float:
                return max(math.dist(pts[u], pts[v]), floor)

            def measure(adj, k, slots):
                return [pair_distance(u, v) for u, v in combinations(slots, 2)]

            rows = self._mirrored(pair_distance)
        for k, row in zip(self.ids, rows):
            # distances of finite inputs are finite or +inf, never NaN
            if math.inf in row.values():
                raise GraphError(
                    f"non-finite metric distance at new vertex {k!r}: inputs too large"
                )
        return rows, partial(self._relink, measure, self.rank)

    def _mirrored(self, weight) -> List[Dict[int, float]]:
        """Rows `{s: weight(u, s)}` as `rows`, `weight` (bitwise symmetric) called once a pair."""
        rows: List[Dict[int, float]] = []
        for u, r in enumerate(self.rows):
            rows.append({s: rows[s][u] if s < u else weight(u, s) for s in r})
        return rows

    @staticmethod
    def _relink(
        measure, rank, adj, k: int, slots: Sequence[int]
    ) -> List[Tuple[int, int, float]]:
        """Join `slots`, the ascending neighbours of the removed slot k
        (its edges still in `adj`), when the edges among them leave them in
        pieces: add to `adj`, and return, the missing edges (u, v, dist) of
        the minimum spanning tree of the pair distances
        `measure(adj, k, slots)` lists in `combinations` order, ties broken
        by `rank`.  One slot, or two already adjacent, need nothing.

        The path metric searches only the pairs that one comparison does
        not settle.  For slots u < v let c = min(w(u, v) if adjacent,
        w(u, k) + w(k, v)) and low(x) = min_s w(x, s), x's cheapest live
        edge; the pair is settled at c, unsearched, when c is finite and
        low(u) + low(v) >= c.  That c is bitwise the search's distance:
        Dijkstra settles each slot at the minimum, over paths from u, of
        the path's weight summed left to right from 0.0, whatever order
        its heap breaks ties in.  The direct edge weighs
        0.0 + w(u, v) = w(u, v), and u - k - v weighs
        (0.0 + w(u, k)) + w(k, v) = w(u, k) + w(k, v) exactly.  Every
        other u - v path has at least two edges, a first one w1 >= low(u)
        and a last one wn >= low(v).  Rounded addition of nonnegative
        floats is monotone and never falls below an addend, so the prefix
        sums only grow: the path weighs at least fl(w1 + wn) >=
        fl(low(u) + low(v)) >= c.  A hub sum that overflows to inf is
        searched, so an unreachable pair still raises as before.

        A pair that fails that comparison is still settled at a finite c
        when two more tests hold: every two-edge path u - x - v through a
        common neighbour x weighs fl(w(u, x) + w(x, v)) >= c, computed
        exactly, and fl(fl(low(u) + w_min) + low(v)) >= c, where w_min is
        the smallest weight of the line graph's metric rows.  No live
        weight is below w_min: the rows start so, and a relink edge joins
        two slots that are not adjacent, so it weighs a path of two or more
        edges, each at least w_min, whose rounded sum is at least w_min.
        The direct path and the two-edge paths (u - k - v among them) are
        then all at least c, and every other path has three or more edges:
        a first one w1 >= low(u), a second one w2 >= w_min and a last one
        wn >= low(v).  Its prefix sums only grow, so it weighs at least
        fl(fl(w1 + w2) + wn) >= fl(fl(low(u) + w_min) + low(v)) >= c.

        The searches that remain stop at the hub bound: the search from u
        towards its unsettled later slots v pushes no entry above
        b(u) = w(u, k) + max_v w(k, v).  Its first step reaches k at
        distance 0 + w(u, k) = w(u, k) exactly, so k settles at some
        d(k) <= w(u, k), and each v is reached at d(k) + w(k, v) <= b(u),
        as rounded addition of nonnegative floats is monotone.  Every
        target therefore settles at or below b(u) and before any entry
        above it would be popped; a pruned entry is never popped, and never
        blocks a push at or below b(u).  So the kept pushes, their
        relative order and every distance are those of the unbounded
        search."""
        # flood the slots over the edges among them: joined already?
        rest = set(slots[1:])
        front = slots[:1]
        while front and rest:
            met = adj[front.pop()].keys() & rest
            rest -= met
            front += met
        if not rest:
            return []
        dist = measure(adj, k, slots)
        for w in dist:
            if not 0.0 < w < math.inf:
                raise GraphError(f"non-positive or non-finite edge weight {w}")
        pairs = list(combinations(range(len(slots)), 2))
        added = []
        for e in _kruskal(len(slots), pairs, dist, [rank[s] for s in slots]):
            i, j = pairs[e]
            u, v = slots[i], slots[j]
            if v not in adj[u]:
                adj[u][v] = adj[v][u] = dist[e]
                added.append((u, v, dist[e]))
        return added


def build_line_graph(graph: Graph) -> LineGraph:
    """Map a graph onto its line graph.

    New vertices are in bijection with source edges; {v*_k, v*_l} is a new
    edge iff source edges e_k and e_l share exactly one vertex.  Midpoint
    coordinates are populated when source coordinates exist.
    """
    if graph.m < 3:
        raise GraphError(f"graph too small: {graph.m} edges, need at least 3")
    incident: Dict[Id, List[Id]] = {v: [] for v in graph.coords}
    for e in graph.edges:
        incident[e.u].append(e.id)
        incident[e.v].append(e.id)
    # a graph is connected iff no vertex is isolated and its line graph is
    if not all(incident.values()):
        raise GraphError("source graph disconnected")

    adjacency: Dict[Id, Set[Id]] = {e.id: set() for e in graph.edges}
    for v, eids in incident.items():
        for a, b in combinations(eids, 2):
            # edges sharing two vertices would be duplicates, excluded upstream
            adjacency[a].add(b)
            adjacency[b].add(a)

    xy, edges = graph.coords, graph.edges
    coords = None if None in xy.values() else {
        e.id: (0.5 * (xy[e.u][0] + xy[e.v][0]), 0.5 * (xy[e.u][1] + xy[e.v][1])) for e in edges
    }
    lengths = None if any(e.length is None for e in edges) else {e.id: e.length for e in edges}
    values = {e.id: e.value for e in edges if e.value is not None} or None
    lg = LineGraph([e.id for e in edges], adjacency, coords, lengths, values)
    if not lg.connected:
        raise GraphError("source graph disconnected")
    return lg


def shortest_path_distance(
    adj, source: Id, targets: Iterable[Id], bound: float = math.inf
) -> Dict[Id, float]:
    """Dijkstra from `source` over weighted rows `adj[u] = {s: dist}`,
    stopped once every target is settled: `{target: distance}` for the
    targets reached (an unreachable one is absent).  Edge distances are
    nonnegative, so a settled distance is final, bitwise what a search of
    the whole component gives, and a popped entry above its best distance
    is stale.

    No entry above `bound` is pushed.  When every target lies within
    `bound` (the relink's hub bound, see `LineGraph._relink`), the
    entries kept are pushed and popped in the order of the unbounded
    search, and the distances are bitwise its own; a target beyond
    `bound` is reported unreachable.
    """
    heappop, heappush, inf = heapq.heappop, heapq.heappush, math.inf
    pending = set(targets)
    found: Dict[Id, float] = {}
    dist: Dict[Id, float] = {source: 0.0}
    get = dist.get
    counter = 0
    heap: List[Tuple[float, int, Id]] = [(0.0, counter, source)]
    while heap and pending:
        d, _, u = heappop(heap)
        if d > dist[u]:
            continue
        if u in pending:
            found[u] = d
            pending.discard(u)
            if not pending:
                break
        for s, w in adj[u].items():
            nd = d + w
            if nd <= bound and nd < get(s, inf):
                dist[s] = nd
                counter += 1
                heappush(heap, (nd, counter, s))
    return found


def _repr_rank(ids: Sequence[Id]) -> List[int]:
    """Each position's place among `ids` in `repr` order, equal reprs kept
    in position order: the id order every spanning tree here breaks ties by."""
    rank = [0] * len(ids)
    for r, u in enumerate(sorted(range(len(ids)), key=lambda u: repr(ids[u]))):
        rank[u] = r
    return rank


def _union(parent: List[int], i: int, j: int) -> bool:
    """Merge the sets of i and j in the union-find `parent`; False when
    they already share one."""
    while parent[i] != i:
        parent[i] = i = parent[parent[i]]
    while parent[j] != j:
        parent[j] = j = parent[parent[j]]
    if i == j:
        return False
    parent[i] = j
    return True


def _connected(n: int, pairs: Iterable[Tuple[int, int]]) -> bool:
    """True iff the pairs (i, j) join the slots 0..n-1, n > 0, into one set."""
    parent = list(range(n))
    return sum(_union(parent, i, j) for i, j in pairs) == n - 1


def _kruskal(n: int, pairs: Sequence[Tuple[int, int]], weights: Sequence[float],
             rank: Sequence[int]) -> List[int]:
    """Kruskal's spanning forest of the slots 0..n-1: the indices of the
    pairs (i, j) it accepts, in acceptance order.  Pairs are taken by the
    key (weight, lower rank, higher rank), equal keys in input order, and
    the search stops once n - 1 pairs are accepted."""
    keys = []
    for e, ((i, j), w) in enumerate(zip(pairs, weights)):
        a, b = rank[i], rank[j]
        keys.append((w, a, b, e) if a < b else (w, b, a, e))
    keys.sort()
    parent = list(range(n))
    tree = []
    for _, _, _, e in keys:
        if _union(parent, *pairs[e]):
            tree.append(e)
            if len(tree) == n - 1:
                break
    return tree


def _euclidean_mst(xy: np.ndarray) -> List[Tuple[int, int, float]]:
    """The MST of the rows of `xy` (n, 2), n >= 2, under Euclidean
    distance, for `simulation.sample_network`: its edges (u, v, weight),
    u < v row positions, in the order Kruskal over all pairs accepts them.

    A pair weighs its `math.dist`, and pairs are taken by the key (weight,
    lower rank, higher rank), where a row's rank is its position's place
    in `repr` order, the tie-break of a network whose ids are the
    positions.  Kruskal runs on the positions over the candidate pairs
    within a radius r (`_pairs_within`), sorted by their `np.hypot`
    distance; each run of distances that agree within 1e-12 relative (plus
    1e-300) is re-sorted by the exact key.  hypot and `math.dist` of the
    same coordinate differences agree to a few ulps, or to a few
    subnormals, far inside the gap between two runs, so the walk takes the
    candidates in exact key order.  It stops at n - 1 joins, and their tree
    T, whose weights ascend to the largest L, is returned when every pair
    is a candidate or L (1 + 4e-12) + 1e-300 < r; otherwise r doubles and
    the search runs again.

    That tree is the all-pairs one.  Ranks are distinct, so keys are, and
    the all-pairs tree T* is the unique tree in which each edge e = {u, v}
    is the least key among the pairs across the cut that removing e from
    T* leaves.  The path from u to v in T crosses that cut at an edge f,
    so e's key is at most f's and its weight at most L: the bottleneck
    property.  A pair that weighs at most L has a hypot of at most
    L (1 + 4e-12) + 1e-300 < r, so every edge of T* is a candidate.  T* is
    then the MST of the candidates too, that is T, and Kruskal takes its
    edges in key order on either set of pairs.

    The first radius is set so that uniform points rarely need a second
    search: about log n + 8 points in the disk around each point, by the
    area of their bounding box.  The work grows with the number of pairs
    within the final radius: about n log n for uniform points, but about
    n^2 on clustered or far-apart points, as the radius must pass the gaps
    between them and nearly every pair lies within it.  So only
    `sample_network`'s uniform points reach this function.  A zero
    distance (repeated points) is a `GraphError`.
    """
    n, rank, coords = len(xy), _repr_rank(range(len(xy))), xy.tolist()
    (x0, y0), (x1, y1) = xy.min(axis=0).tolist(), xy.max(axis=0).tolist()
    diag = math.hypot(x1 - x0, y1 - y0)
    # the bounding box's area over the squared diagonal, at least 1/n so
    # that points on a line get a radius too
    fill = max((x1 - x0) / diag * (y1 - y0) / diag, 1.0 / n) if diag else 1.0
    r = max(diag * math.sqrt(fill * (math.log(n) + 8.0) / (math.pi * n)), math.ulp(0.0))
    while True:
        i, j, h = _pairs_within(xy, r)
        if not h.all():
            raise GraphError("non-positive or non-finite edge weight 0.0")
        order = np.argsort(h)
        h = h[order]
        i, j = i[order].tolist(), j[order].tolist()
        # near[k]: positions k and k + 1 tie up to rounding; near turns on at
        # s and off at e, so each run of ties covers the positions s..e
        near = np.diff(h) <= 1e-12 * h[1:] + 1e-300
        bounds = np.flatnonzero(np.diff(near, prepend=False, append=False)).tolist()
        for s, e in zip(bounds[::2], bounds[1::2]):
            run = sorted((math.dist(coords[u], coords[v]), *sorted((rank[u], rank[v])), u, v)
                         for u, v in zip(i[s:e + 1], j[s:e + 1]))
            i[s:e + 1], j[s:e + 1] = [k[3] for k in run], [k[4] for k in run]
        parent = list(range(n))
        tree = []
        for u, v in zip(i, j):
            if _union(parent, u, v):
                tree.append((u, v, math.dist(coords[u], coords[v])))
                if len(tree) == n - 1:
                    break
        if len(tree) == n - 1 and (
            len(h) == n * (n - 1) // 2 or tree[-1][2] * (1.0 + 4e-12) + 1e-300 < r
        ):
            return tree
        r *= 2.0


def _pairs_within(xy: np.ndarray, r: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs i < j of the rows of `xy` (n, 2) whose `np.hypot` distance
    is at most r > 0, as arrays (i, j, distance).  The points are binned in
    square cells of side r, so such a pair lies in one cell or in two
    neighbouring ones.  Each point is paired with the points after it in
    its own cell and with every point of four of its neighbour cells (the
    other four find it), so each pair is looked at once."""
    cell = np.floor((xy - xy.min(axis=0)) / r).astype(np.int64)
    rows = int(cell[:, 1].max()) + 2  # a spare row: no neighbour key wraps a column
    key = cell[:, 0] * rows + cell[:, 1]
    order = np.argsort(key, kind="stable")
    key = key[order]
    x, y = xy[order, 0], xy[order, 1]
    pos = np.arange(len(key))
    ps, qs = [], []
    # the cell itself, the one above, and the three of the next column
    for shift in (0, 1, rows - 1, rows, rows + 1):
        target = key + shift
        start = pos + 1 if shift == 0 else np.searchsorted(key, target)
        count = np.searchsorted(key, target, "right") - start
        ps.append(np.repeat(pos, count))
        qs.append(np.arange(count.sum()) + np.repeat(start - (np.cumsum(count) - count), count))
    p, q = np.concatenate(ps), np.concatenate(qs)
    h = np.hypot(x[p] - x[q], y[p] - y[q])
    within = h <= r
    p, q = order[p[within]], order[q[within]]
    return np.minimum(p, q), np.maximum(p, q), h[within]
