"""Frozen reference copies of the package's former `is_connected` and
`minimum_spanning_tree`, as they were before the package moved both onto
the union-find Kruskal its planner relinks with (`lglift.graph._kruskal`
and `_connected`, which now serve alone): a depth-first search, and a
Kruskal with its own union-find.  The planner and spanning-tree tests
check the package against these, so a fault in the shared Kruskal cannot
hide by checking the planner against itself.
`shortest_path_distances` is the whole-component Dijkstra that
`lglift.graph.shortest_path_distance` ran before it kept only its
bounded, multi-target search, and `path_relink` the path-metric relink
before it skipped searches: every pair measured by that Dijkstra, then
Kruskal.
"""

import heapq
import math
from itertools import combinations
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from lglift.graph import GraphError, Id


def is_connected(vertices: Iterable[Id], edges: Iterable[Tuple[Id, Id]]) -> bool:
    """True iff the subgraph on `vertices` with `edges` has one component.

    The empty vertex set counts as connected.  Edges must reference subset
    vertices only.
    """
    verts = set(vertices)
    if not verts:
        return True
    adj: Dict[Id, Set[Id]] = {v: set() for v in verts}
    for u, v in edges:
        if u not in verts or v not in verts:
            raise GraphError("edge references vertex outside the subset")
        adj[u].add(v)
        adj[v].add(u)
    start = next(iter(verts))
    seen = {start}
    stack = [start]
    while stack:
        for s in adj[stack.pop()]:
            if s not in seen:
                seen.add(s)
                stack.append(s)
    return len(seen) == len(verts)


def minimum_spanning_tree(
    vertices: Sequence[Id],
    weighted_edges: Sequence[Tuple[Id, Id, float]],
) -> List[Tuple[Id, Id, float]]:
    """Kruskal MST with a deterministic tie-break.

    Candidate edges are processed in lexicographic (weight, smaller id,
    larger id) order so the result is reproducible across runs.
    """
    if not vertices:
        raise GraphError("minimum_spanning_tree requires at least one vertex")
    for _, _, w in weighted_edges:
        if not (math.isfinite(w) and w > 0):
            raise GraphError(f"non-positive or non-finite edge weight {w}")

    order = {v: i for i, v in enumerate(sorted(vertices, key=repr))}

    def key(e: Tuple[Id, Id, float]):
        a, b = sorted((order[e[0]], order[e[1]]))
        return (e[2], a, b)

    parent = {v: v for v in vertices}

    def find(v):
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    tree: List[Tuple[Id, Id, float]] = []
    for u, v, w in sorted(weighted_edges, key=key):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree.append((u, v, w))
            if len(tree) == len(vertices) - 1:
                break
    if len(tree) != len(vertices) - 1:
        raise GraphError("cannot span: weighted edges do not connect the vertices")
    return tree


def shortest_path_distances(adj, source: Id) -> Dict[Id, float]:
    """Dijkstra from `source` over weighted rows `adj[u] = {s: dist}`:
    the distance of every vertex in the source's component."""
    dist: Dict[Id, float] = {source: 0.0}
    done: Set[Id] = set()
    counter = 0
    heap: List[Tuple[float, int, Id]] = [(0.0, counter, source)]
    while heap:
        d, _, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for s, w in adj[u].items():
            nd = d + w
            if nd < dist.get(s, math.inf):
                dist[s] = nd
                counter += 1
                heapq.heappush(heap, (nd, counter, s))
    return dist


def path_relink(adj, k: int, slots: Sequence[int], ids: Sequence[Id]) -> List[Tuple[int, int, float]]:
    """Join `slots`, the ascending neighbours of the removed slot k (its
    edges still in the weighted rows `adj`), unless the edges among them
    already do: every pair's whole-component distance, then the Kruskal
    tree of those distances with ties broken by `repr` of the slots' `ids`.
    Adds to `adj`, and returns in acceptance order, the tree edges
    (u, v, dist) that `adj` lacks."""
    pairs = list(combinations(slots, 2))
    if is_connected(slots, [(u, v) for u, v in pairs if v in adj[u]]):
        return []
    dist = {u: shortest_path_distances(adj, u) for u in slots[:-1]}
    tree = minimum_spanning_tree(
        [ids[s] for s in slots], [(ids[u], ids[v], dist[u][v]) for u, v in pairs]
    )
    slot = {ids[s]: s for s in slots}
    added = []
    for a, b, w in tree:
        u, v = slot[a], slot[b]
        if v not in adj[u]:
            adj[u][v] = adj[v][u] = w
            added.append((u, v, w))
    return added
