"""Finite rooted graphs: builders, BFS, distance-k graphs, walk moments, cycles.

Graphs are immutable and canonical: sorted neighbor lists, no loops, no
duplicate edges.  All operations are pure functions; a RootedGraph can be
shared freely across threads.

Every walk count here comes from one sparse routine, _half_walk_vectors,
which maps each vertex reached in t steps to its number of walks: the
vacuum and trace moments join two half walks at a common vertex, and
square_check reads row i of A^2 as the two-step vector of i.  No n x n
matrix is built; the dense matrices live in the tests as the oracle.

trace_moments builds the deepest half walk from v only to vertices w >= v
and doubles the off-diagonal pairs, since trace(A^m) sums a symmetric
product entrywise.  On the distance-2 graphs of random 3-regular graphs
at max_m 6 that deepest walk is most of each vertex's dict pushes, and
halving it cut the median wall time of `regular-random --d 3 --k 2
--n-list 1000,2000 --samples 20 --max-m 6 --threads 2` from 1.64 s to
1.18 s on a 2-core host (10 alternating pairs of benchmark runs).
"""
from __future__ import annotations

import warnings
from collections import deque
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import mul

from .errors import (
    DEFAULT_WALK_BUDGET,
    BudgetExceededError,
    Frozen,
    GraphFormatError,
    LoopEdgeError,
    RootOutOfRangeError,
    SizeTooSmallError,
    VertexOutOfRangeError,
)


class RootedGraph(Frozen):
    """An undirected simple graph with a distinguished root vertex.

    Equality is equality of canonical forms (vertex count, root, sorted
    adjacency).
    """

    _fields = ("vertex_count", "root", "neighbors")

    def __init__(self, vertex_count: int, root: int, neighbors: tuple[tuple[int, ...], ...]):
        super().__init__(vertex_count, root, neighbors)

    @cached_property
    def connected(self) -> bool:
        return self.vertex_count == 0 or None not in bfs_distances(self, 0)

    @cached_property
    def _descending_neighbors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(nb[::-1] for nb in self.neighbors)

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    @property
    def edge_count(self) -> int:
        return sum(len(nb) for nb in self.neighbors) // 2

    def adjacent(self, u: int, v: int) -> bool:
        return v in self.neighbors[u]


def from_edge_list(n: int, edges, root: int) -> RootedGraph:
    """Build a canonical RootedGraph from an edge list.

    Duplicate edges collapse; loops are rejected.
    """
    if n <= 0:
        raise SizeTooSmallError("vertex count must be positive")
    if not 0 <= root < n:
        raise RootOutOfRangeError(f"root {root} not in [0, {n})")
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRangeError(f"edge ({u}, {v}) not in [0, {n})")
        if u == v:
            raise LoopEdgeError(u)
        adj[u].add(v)
        adj[v].add(u)
    return RootedGraph(
        vertex_count=n,
        root=root,
        neighbors=tuple(tuple(sorted(s)) for s in adj),
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
    neighbors = g.neighbors
    rows = []
    for v in range(g.vertex_count):
        # truncated BFS from v: its depth-k frontier is row v of the result,
        # O(n * d^k) overall, no all-pairs table
        seen = {v}
        frontier = [v]
        for _ in range(k):
            nxt = []
            for x in frontier:
                for u in neighbors[x]:
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
            frontier = nxt
            if not frontier:  # past v's eccentricity: row v is empty
                break
        frontier.sort()
        rows.append(tuple(frontier))
    return RootedGraph(vertex_count=g.vertex_count, root=g.root, neighbors=tuple(rows))


def _half_walk_vectors(
    g: RootedGraph, source: int, half: int, floor: int = 0
) -> list[dict[int, int]]:
    """Walk counts from ``source``: entry t maps each vertex to its t-step walks.

    The last entry keeps only the vertices >= floor; the earlier ones are whole.
    """
    vecs = [{source: 1}]
    for t in range(1, half + 1):
        nxt: dict[int, int] = {}
        get = nxt.get
        if t < half or floor == 0:
            for v, c in vecs[-1].items():
                for u in g.neighbors[v]:
                    nxt[u] = get(u, 0) + c
        else:
            descending = g._descending_neighbors
            for v, c in vecs[-1].items():
                for u in descending[v]:
                    if u < floor:
                        break
                    nxt[u] = get(u, 0) + c
        vecs.append(nxt)
    return vecs


def _join(fa: dict[int, int], fb: dict[int, int]) -> int:
    """Sum over vertices u of fa[u] * fb[u]."""
    if fa is fb:
        return sum(map(mul, fa.values(), fa.values()))
    if len(fa) > len(fb):
        fa, fb = fb, fa
    return sum(map(mul, fa.values(), map(fb.get, fa, repeat(0))))


def _walk_charge(g: RootedGraph, max_m: int) -> int:
    """Most expansions _closed_walks(g, v, max_m) takes, for any vertex v.

    trace_moments takes no more: only its last half walk is cut short.

    Half walk t < ceil(max_m / 2) reaches at most min(n, D^t) vertices and
    expands each at most D times, with D the maximum degree.  Once D^t >= n,
    or D < 2, every later term equals this one, so no larger power is raised.
    """
    n = g.vertex_count
    degree = max(map(len, g.neighbors), default=0)
    half = (max_m + 1) // 2
    charge = 0
    reach = 1
    for t in range(half):
        if reach >= n or degree < 2:
            return charge + (half - t) * min(n, reach) * degree
        charge += reach * degree
        reach *= degree
    return charge


def _closed_walks(g: RootedGraph, source: int, max_m: int) -> list[int]:
    # meet in the middle: an m-walk is a walk of m // 2 steps out of source
    # joined to one of m - m // 2 steps, both ending at the same vertex
    vecs = _half_walk_vectors(g, source, (max_m + 1) // 2)
    return [_join(vecs[m // 2], vecs[m - m // 2]) for m in range(max_m + 1)]


def closed_walk_counts(
    g: RootedGraph, source: int, max_m: int, max_expansions: int | None = None
) -> list[int]:
    """Counts of closed walks at ``source`` for every length 0..max_m.

    The most expansions the walks can take (see trace_moments) are charged
    before any is built; past max_expansions (None: no limit),
    BudgetExceededError is raised.
    """
    if max_m < 0:
        raise ValueError("max_m must be nonnegative")
    if not 0 <= source < g.vertex_count:
        raise VertexOutOfRangeError(f"source {source}")
    charged = _walk_charge(g, max_m)
    if max_expansions is not None and charged > max_expansions:
        raise BudgetExceededError(charged, max_expansions, "vacuum-walk expansions")
    return _closed_walks(g, source, max_m)


def trace_moments(
    g: RootedGraph, max_m: int, max_expansions: int | None = None
) -> list[Fraction]:
    """Normalized-trace moments (1/n) * trace(A^m) for m = 0..max_m, exactly.

    Closed-walk counts per vertex are combined meet-in-the-middle, so the
    cost per vertex is that of ceil(max_m / 2) adjacency applications.
    trace(A^m) is the entrywise sum over (v, w) of (A^a)_vw * (A^b)_vw with
    a = m // 2, b = m - a, and both matrices are symmetric, so each
    off-diagonal pair can be summed once from its lower end and doubled.
    The deepest half walk, h = ceil(max_m / 2) steps, is the largest, so
    from v it is built only to vertices w >= v, and each m with b = h adds
    2 * sum over w >= v of (A^a)_vw * (A^h)_vw, less the diagonal term
    (A^a)_vv * (A^h)_vv that the doubling counted twice.

    Before a vertex's half-walk vectors are built, the most expansions they
    can take are charged: sum over t < ceil(max_m / 2) of
    min(n, D^t) * D, with D the maximum degree.  Once the charge passes
    max_expansions (None: no limit), BudgetExceededError is raised.
    """
    if max_m < 0:
        raise ValueError("max_m must be nonnegative")
    n = g.vertex_count
    half = (max_m + 1) // 2
    per_vertex = _walk_charge(g, max_m)
    charged = 0
    totals = [0] * (max_m + 1)
    for v in range(n):
        charged += per_vertex
        if max_expansions is not None and charged > max_expansions:
            raise BudgetExceededError(charged, max_expansions, "trace-walk expansions")
        vecs = _half_walk_vectors(g, v, half, v)
        top = vecs[half]
        top_v = top.get(v, 0)
        for m in range(max_m + 1):
            near, b = vecs[m // 2], m - m // 2
            if b < half:
                totals[m] += _join(near, vecs[b])
            else:
                totals[m] += 2 * _join(near, top) - near.get(v, 0) * top_v
    return [Fraction(t, n) for t in totals]


def count_k_cycles(g: RootedGraph, j: int, max_nodes: int = DEFAULT_WALK_BUDGET) -> int:
    """Number of simple j-cycles as unlabeled subgraphs (each counted once).

    Enumeration anchors every cycle at its minimal vertex and fixes the
    orientation by requiring second vertex < last vertex.  Every path
    vertex the depth-first search reaches is one node of max_nodes; past
    it, BudgetExceededError is raised.  The search keeps its own stack, so
    j is not bounded by the interpreter's recursion limit.
    """
    if j < 3:
        raise ValueError("cycle length must be >= 3")
    count = 0
    nodes = 0
    adj = g.neighbors
    adj_sets = [set(nb) for nb in adj]
    on_path = [False] * g.vertex_count
    for s in range(g.vertex_count):
        closing = adj_sets[s]
        on_path[s] = True
        # path[i] is vertex i of the current path, and todo[i] iterates
        # the neighbours of path[i] not yet tried as vertex i + 1
        path = [s]
        todo = [iter(adj[s])]
        while todo:
            for u in todo[-1]:
                if u > s and not on_path[u]:
                    break
            else:
                todo.pop()
                on_path[path.pop()] = False
                continue
            nodes += 1
            if nodes > max_nodes:
                raise BudgetExceededError(nodes, max_nodes, "cycle-enumeration nodes")
            if len(path) < j - 2:
                on_path[u] = True
                path.append(u)
                todo.append(iter(adj[u]))
                continue
            # u is the last but one vertex: each free neighbour w of u ends
            # a path of j vertices, counted here rather than pushed
            second = path[1] if j > 3 else u
            for w in adj[u]:
                if w > s and not on_path[w]:
                    nodes += 1
                    if nodes > max_nodes:
                        raise BudgetExceededError(nodes, max_nodes, "cycle-enumeration nodes")
                    if second < w and w in closing:
                        count += 1
    return count


def decompose_square(g: RootedGraph):
    """Split A^2 into (two-path part at distance 2, degree diagonal, triangle part).

    Returns sparse rows (atilde2, d, delta), each a list whose entry i is a
    {column: value} dict of the nonzero entries of row i, with
    A^2 == atilde2 + d + delta entrywise:
      d        diagonal of degrees,
      delta    common-neighbor counts on adjacent pairs,
      atilde2  common-neighbor counts on distance-2 pairs.
    """
    adj_sets = [set(nb) for nb in g.neighbors]
    atilde2, dmat, delta = [], [], []
    for i, near in enumerate(adj_sets):
        dmat.append({i: len(near)} if near else {})
        two_path, triangle = {}, {}
        for v in {w for u in near for w in adj_sets[u]} - {i}:
            part = triangle if v in near else two_path
            part[v] = len(near & adj_sets[v])
        atilde2.append(two_path)
        delta.append(triangle)
    return atilde2, dmat, delta


def square_check(g: RootedGraph, max_pairs: int | None = None) -> int:
    """Largest entrywise gap between A^2 and the split of decompose_square.

    Row i of A^2 is read from the two-step walk vector of i, so the check
    costs about n * D^2 with D the maximum degree; it builds no matrix.
    The rows hold at most one entry per two-step pair (i, u, v), the sum
    over u of deg(u)^2 in all; that count is charged before any row is
    built, and past max_pairs (None: no limit) BudgetExceededError is raised.
    """
    pairs = sum(len(nb) ** 2 for nb in g.neighbors)
    if max_pairs is not None and pairs > max_pairs:
        raise BudgetExceededError(pairs, max_pairs, "two-step pairs")
    gap = 0
    for i, parts in enumerate(zip(*decompose_square(g))):
        row = _half_walk_vectors(g, i, 2)[2]
        for part in parts:
            for j, x in part.items():
                row[j] = row.get(j, 0) - x
        gap = max([gap, *map(abs, row.values())])
    return gap


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

