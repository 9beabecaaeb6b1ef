"""Finite rooted graphs: builders, BFS, distance-k graphs, walk moments, cycles.

Graphs are immutable and canonical: sorted neighbor lists, no loops, no
duplicate edges.  All operations are pure functions; a RootedGraph can be
shared freely across threads.
"""
from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import (
    ComplexityRefusalError,
    GraphFormatError,
    LoopEdgeError,
    RootOutOfRangeError,
    SizeTooSmallError,
    VertexOutOfRangeError,
)

DEFAULT_CYCLE_BUDGET = 10**7


@dataclass(frozen=True)
class RootedGraph:
    """An undirected simple graph with a distinguished root vertex.

    Equality is equality of canonical forms (vertex count, root, sorted
    adjacency); labels and ingestion flags do not participate.
    """

    vertex_count: int
    root: int
    neighbors: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = field(default=None, compare=False)
    had_duplicate_edges: bool = field(default=False, compare=False)

    @cached_property
    def connected(self) -> bool:
        if self.vertex_count == 0:
            return True
        seen = [False] * self.vertex_count
        seen[0] = True
        queue = deque([0])
        count = 1
        while queue:
            v = queue.popleft()
            for u in self.neighbors[v]:
                if not seen[u]:
                    seen[u] = True
                    count += 1
                    queue.append(u)
        return count == self.vertex_count

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    @property
    def edge_count(self) -> int:
        return sum(len(nb) for nb in self.neighbors) // 2

    def edges(self):
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        for u in range(self.vertex_count):
            for v in self.neighbors[u]:
                if u < v:
                    yield (u, v)

    def adjacent(self, u: int, v: int) -> bool:
        return v in self.neighbors[u]


def from_edge_list(n: int, edges, root: int) -> RootedGraph:
    """Build a canonical RootedGraph from an edge list.

    Duplicate edges collapse and set ``had_duplicate_edges``; loops are
    rejected.
    """
    if n <= 0:
        raise SizeTooSmallError("vertex count must be positive")
    if not 0 <= root < n:
        raise RootOutOfRangeError(f"root {root} not in [0, {n})")
    seen: set[tuple[int, int]] = set()
    adj: list[set[int]] = [set() for _ in range(n)]
    had_duplicates = False
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRangeError(f"edge ({u}, {v}) not in [0, {n})")
        if u == v:
            raise LoopEdgeError(u)
        key = (u, v) if u < v else (v, u)
        if key in seen:
            had_duplicates = True
            continue
        seen.add(key)
        adj[u].add(v)
        adj[v].add(u)
    return RootedGraph(
        vertex_count=n,
        root=root,
        neighbors=tuple(tuple(sorted(s)) for s in adj),
        had_duplicate_edges=had_duplicates,
    )


def complete_graph(n: int) -> RootedGraph:
    if n < 2:
        raise SizeTooSmallError("complete graph needs n >= 2")
    return from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)], 0)


def cycle_graph(n: int) -> RootedGraph:
    if n < 3:
        raise SizeTooSmallError("cycle graph needs n >= 3")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)], 0)


def path_graph(n: int) -> RootedGraph:
    if n < 2:
        raise SizeTooSmallError("path graph needs n >= 2")
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)], 0)


BUILTIN_GRAPHS = ("k2", "k3", "k4", "c4", "c5", "p3", "p4")


def builtin_graph(name: str) -> RootedGraph:
    """Resolve one of the named builtin graphs (k2, k3, k4, c4, c5, p3, p4)."""
    builders = {
        "k2": lambda: complete_graph(2),
        "k3": lambda: complete_graph(3),
        "k4": lambda: complete_graph(4),
        "c4": lambda: cycle_graph(4),
        "c5": lambda: cycle_graph(5),
        "p3": lambda: path_graph(3),
        "p4": lambda: path_graph(4),
    }
    if name not in builders:
        raise GraphFormatError(f"unknown builtin graph {name!r}")
    return builders[name]()


def bfs_distances(g: RootedGraph, source: int, depth_cap: int | None = None):
    """Exact BFS distances from ``source``; None marks unreachable/beyond-cap."""
    if not 0 <= source < g.vertex_count:
        raise VertexOutOfRangeError(f"source {source}")
    dist: list[int | None] = [None] * g.vertex_count
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        dv = dist[v]
        if depth_cap is not None and dv >= depth_cap:
            continue
        for u in g.neighbors[v]:
            if dist[u] is None:
                dist[u] = dv + 1
                queue.append(u)
    return dist


def distance_k_graph(g: RootedGraph, k: int) -> RootedGraph:
    """Graph on the same vertices with edges exactly between distance-k pairs.

    Disconnected inputs are handled per component (cross-component pairs have
    no distance) and flagged with a warning.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if not g.connected:
        warnings.warn("distance_k_graph: input is disconnected; using per-component distances")
    n = g.vertex_count
    adj: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        # truncated per-vertex BFS: O(n * d^k) overall, no all-pairs table
        seen = {v}
        frontier = [v]
        for _ in range(k):
            nxt = []
            for x in frontier:
                for u in g.neighbors[x]:
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
            frontier = nxt
        for u in frontier:
            if u > v:
                adj[v].append(u)
                adj[u].append(v)
    return RootedGraph(
        vertex_count=n,
        root=g.root,
        neighbors=tuple(tuple(sorted(row)) for row in adj),
    )


def closed_walk_counts(g: RootedGraph, source: int, max_m: int) -> list[int]:
    """Counts of closed walks at ``source`` for every length 0..max_m."""
    if not 0 <= source < g.vertex_count:
        raise VertexOutOfRangeError(f"source {source}")
    counts = [1]
    vec: dict[int, int] = {source: 1}
    for _ in range(max_m):
        nxt: dict[int, int] = {}
        for v, c in vec.items():
            for u in g.neighbors[v]:
                nxt[u] = nxt.get(u, 0) + c
        vec = nxt
        counts.append(vec.get(source, 0))
    return counts


def vacuum_moment(g: RootedGraph, m: int) -> int:
    """Number of closed m-step walks at the root (the (root, root) entry of A^m)."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return closed_walk_counts(g, g.root, m)[m]


def _half_walk_vectors(g: RootedGraph, source: int, half: int) -> list[dict[int, int]]:
    vecs = [{source: 1}]
    for _ in range(half):
        nxt: dict[int, int] = {}
        for v, c in vecs[-1].items():
            for u in g.neighbors[v]:
                nxt[u] = nxt.get(u, 0) + c
        vecs.append(nxt)
    return vecs


def trace_moments(g: RootedGraph, max_m: int) -> list[Fraction]:
    """Normalized-trace moments (1/n) * trace(A^m) for m = 0..max_m, exactly.

    Closed-walk counts per vertex are combined meet-in-the-middle, so the
    cost per vertex is that of ceil(max_m / 2) adjacency applications.
    """
    if max_m < 0:
        raise ValueError("max_m must be nonnegative")
    n = g.vertex_count
    half = (max_m + 1) // 2
    totals = [0] * (max_m + 1)
    totals[0] = n
    for v in range(n):
        vecs = _half_walk_vectors(g, v, half)
        for m in range(1, max_m + 1):
            a, b = m // 2, m - m // 2
            fa, fb = vecs[a], vecs[b]
            if len(fa) > len(fb):
                fa, fb = fb, fa
            totals[m] += sum(c * fb.get(u, 0) for u, c in fa.items())
    return [Fraction(t, n) for t in totals]


def trace_moment(g: RootedGraph, m: int) -> Fraction:
    """(1/n) * (closed m-walk count summed over all vertices), exact."""
    return trace_moments(g, m)[m]


def count_k_cycles(g: RootedGraph, j: int, max_nodes: int = DEFAULT_CYCLE_BUDGET) -> int:
    """Number of simple j-cycles as unlabeled subgraphs (each counted once).

    Enumeration anchors every cycle at its minimal vertex and fixes the
    orientation by requiring second vertex < last vertex.
    """
    if j < 3:
        raise ValueError("cycle length must be >= 3")
    count = 0
    nodes = 0
    adj = g.neighbors
    adj_sets = [set(nb) for nb in adj]
    on_path = [False] * g.vertex_count
    for s in range(g.vertex_count):
        second = 0  # second vertex of the current path; kills the mirror orientation

        def extend(v: int, depth: int) -> int:
            # `depth` = number of vertices on the path s, ..., v.
            nonlocal nodes
            nodes += 1
            if nodes > max_nodes:
                raise ComplexityRefusalError(nodes, max_nodes)
            if depth == j:
                return 1 if (s in adj_sets[v] and second < v) else 0
            found = 0
            for u in adj[v]:
                if u > s and not on_path[u]:
                    on_path[u] = True
                    found += extend(u, depth + 1)
                    on_path[u] = False
            return found

        on_path[s] = True
        for u in adj[s]:
            if u > s:
                second = u
                on_path[u] = True
                count += extend(u, 2)
                on_path[u] = False
        on_path[s] = False
    return count


def decompose_square(g: RootedGraph):
    """Split A^2 into (two-path part at distance 2, degree diagonal, triangle part).

    Returns dense integer matrices (atilde2, d, delta) with
    A^2 == atilde2 + d + delta entrywise:
      d        diagonal of degrees,
      delta    common-neighbor counts on adjacent pairs,
      atilde2  common-neighbor counts on distance-2 pairs.
    """
    n = g.vertex_count
    atilde2 = [[0] * n for _ in range(n)]
    dmat = [[0] * n for _ in range(n)]
    delta = [[0] * n for _ in range(n)]
    adj_sets = [set(nb) for nb in g.neighbors]
    for i in range(n):
        dmat[i][i] = g.degree(i)
        for v in range(n):
            if v == i:
                continue
            common = len(adj_sets[i] & adj_sets[v])
            if v in adj_sets[i]:
                delta[i][v] = common
            elif common > 0:
                atilde2[i][v] = common
    return atilde2, dmat, delta


def parse_graph_text(text: str) -> RootedGraph:
    """Parse the graph text format: "n root" then one "u v" line per edge.

    Lines starting with '#' (and blank lines) are ignored.
    """
    lines = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    if not lines:
        raise GraphFormatError("empty graph text")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphFormatError(f"expected 'n root' header, got {lines[0]!r}")
    try:
        n, root = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphFormatError(f"bad header {lines[0]!r}") from exc
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"expected 'u v' edge line, got {line!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise GraphFormatError(f"bad edge line {line!r}") from exc
    return from_edge_list(n, edges, root)


def format_graph_text(g: RootedGraph) -> str:
    lines = [f"{g.vertex_count} {g.root}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
