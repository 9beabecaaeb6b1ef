"""Finite rooted graphs: builders, BFS, distance-k graphs, walk moments, cycles.

Graphs are immutable and canonical: sorted neighbor lists, no loops, no
duplicate edges.  All operations are pure functions; a RootedGraph can be
shared freely across threads.

Walk counts are sparse: a dict maps each vertex reached in t steps to its
number of walks.  _half_walk_vectors builds them from one vertex, and
closed_walk_counts joins two half walks at a common vertex;
square_check reads row i of A^2 as the two-step vector of i.  No n x n
matrix is built; the dense matrices live in the tests as the oracle.

trace_moments counts each closed walk once, from the least vertex v it
visits: walks from v inside the vertices above v count v's first-return
excursions, with generating function E_v(z), the product over all v of
1 - E_v(z) is det(I - zA), kept as one packed integer, and Newton's
identity reads every trace off its min(n, max_m) + 1 coefficients.
"""
from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import mul

from .errors import (
    Budgets,
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


def bfs_distances(g: RootedGraph, source: int):
    """Exact BFS distances from ``source``; None marks unreachable vertices."""
    if not 0 <= source < g.vertex_count:
        raise VertexOutOfRangeError(f"source {source}")
    dist: list[int | None] = [None] * g.vertex_count
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        dv = dist[v]
        for u in g.neighbors[v]:
            if dist[u] is None:
                dist[u] = dv + 1
                queue.append(u)
    return dist


def distance_k_graph(g: RootedGraph, k: int) -> RootedGraph:
    """Graph on the same vertices with edges exactly between distance-k pairs.

    Disconnected inputs are handled per component (cross-component pairs have
    no distance).
    """
    if k < 1:
        raise ValueError("k must be positive")
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


def _half_walk_vectors(g: RootedGraph, source: int, half: int) -> list[dict[int, int]]:
    """Walk counts from ``source``: entry t maps each vertex to its t-step walks."""
    vecs = [{source: 1}]
    for _ in range(half):
        nxt: dict[int, int] = {}
        get = nxt.get
        for v, c in vecs[-1].items():
            for u in g.neighbors[v]:
                nxt[u] = get(u, 0) + c
        vecs.append(nxt)
    return vecs


def _walk_charge(g: RootedGraph, max_m: int) -> int:
    """Most expansions the half walks of closed_walk_counts(g, v, max_m) take, for any v.

    Half walk t < ceil(max_m / 2) reaches at most min(n, D^t) vertices and
    expands each at most D times, with D the maximum degree.  Once D^t >= n,
    or D < 2, every later term equals this one, so no larger power is raised.

    trace_moments charges n * _walk_charge(g, d), d = min(n, max_m), and
    takes no more: its excursions from v expand v, as half walk 0 does,
    then x_0..x_(L-1) with L = (d - 1) // 2 <= ceil(d / 2) - 1, where x_t
    holds only vertices of half walk t + 1, each expanded at most D times.
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


def closed_walk_counts(
    g: RootedGraph, source: int, max_m: int, budgets: Budgets = Budgets()
) -> list[int]:
    """Counts of closed walks at ``source`` for every length 0..max_m.

    The most expansions the walks can take (see trace_moments) are charged
    before any is built.
    """
    if max_m < 0:
        raise ValueError("max_m must be nonnegative")
    if not 0 <= source < g.vertex_count:
        raise VertexOutOfRangeError(f"source {source}")
    budgets.charge("vacuum-walk expansions", _walk_charge(g, max_m))
    # meet in the middle: an m-walk is a walk of m // 2 steps out of source
    # joined to one of m - m // 2 steps, both ending at the same vertex
    vecs = _half_walk_vectors(g, source, (max_m + 1) // 2)
    counts = []
    for m in range(max_m + 1):
        fa, fb = sorted((vecs[m // 2], vecs[m - m // 2]), key=len)
        counts.append(sum(map(mul, fa.values(), map(fb.get, fa, repeat(0)))))
    return counts


def _field_width(n: int, d: int, degree: int) -> int:
    """2 + the bit length of the largest C(n, m) D^m, m <= d, D = degree."""
    term = top = 1
    for m in range(1, d + 1):
        term = term * (n - m + 1) * degree // m  # C(n, m) D^m, exact
        top = max(top, term)
    return 2 + top.bit_length()


def trace_moments(g: RootedGraph, max_m: int, budgets: Budgets = Budgets()) -> list[Fraction]:
    """Normalized-trace moments (1/n) * trace(A^m) for m = 0..max_m, exactly.

    A closed walk at v that stays in the vertices >= v is a sequence of
    first-return excursions, so its generating function is 1 / (1 - E_v(z)),
    the (v, v) entry of (I - z A)^-1 on those vertices.  By Cramer's rule
    1 - E_v(z) is det(I - z A) on the vertices >= v over det(I - z A) on the
    vertices > v, and the product over all v is c(z) = det(I - z A), a
    polynomial of degree at most n.  Its coefficients up to d = min(n, max_m)
    give every trace by Newton's identity, -z c'(z) / c(z) = sum over m >= 1
    of trace(A^m) z^m; past degree n each trace is one recurrence step.

    x_t maps each vertex w > v to the walks of t + 1 steps from v to w that
    stay above v, t <= (d - 1) // 2, and <x_a, x_(s-2-a)>, a = (s - 2) // 2,
    counts the s-step excursions.  c(z) is kept as its value at z = 2^B
    modulo 2^((d+1)B), a ring map from Z[z] / (z^(d+1)), so each vertex
    multiplies it once.  Its coefficient m is +-e_m of eigenvalues of
    modulus at most the maximum degree D, so |c_m| <= C(n, m) D^m < 2^(B-2)
    and its d + 1 fields of B bits decode exactly as signed integers.

    Everything is charged before the first vertex: the most expansions
    the walks of all n vertices can take, n _walk_charge(g, d), before
    anything else, so a graph past the limit sizes no packing; then, once
    B is known (_field_width), the 30-bit digits of the packed product over
    all vertices, n (d + 1) ceil(B / 30), as determinant digits, since the
    walk charge does not count that arithmetic.
    """
    if max_m < 0:
        raise ValueError("max_m must be nonnegative")
    n = g.vertex_count
    d = min(n, max_m)
    budgets.charge("trace-walk expansions", n * _walk_charge(g, d))
    width = _field_width(n, d, max(map(len, g.neighbors), default=0))
    budgets.charge("determinant digits", n * (d + 1) * -(-width // 30))
    mask = (1 << (d + 1) * width) - 1
    descending = g._descending_neighbors
    packed = 1
    for v in range(n):
        level: dict[int, int] = {}
        for u in descending[v]:
            if u <= v:
                break
            level[u] = 1
        if not level or d < 2:
            continue
        # the excursions of s = 2..d steps, packed as E_v(2^B)
        excursions = len(level) << 2 * width
        for s in range(3, d + 1, 2):
            nxt: dict[int, int] = {}
            get = nxt.get
            for w, c in level.items():
                for u in descending[w]:
                    if u <= v:
                        break
                    nxt[u] = get(u, 0) + c
            small, large = (level, nxt) if len(level) <= len(nxt) else (nxt, level)
            cross = sum(map(mul, small.values(), map(large.get, small, repeat(0))))
            excursions += cross << s * width
            if s < d:
                excursions += sum(map(mul, nxt.values(), nxt.values())) << (s + 1) * width
            level = nxt
        packed = (packed - packed * excursions) & mask
    low, half = (1 << width) - 1, 1 << width - 1
    biased = packed + mask // low * half  # half added to each field: no carry crosses one
    det = [((biased >> i * width) & low) - half for i in range(d + 1)]
    traces = [n] + [0] * max_m
    for m in range(1, max_m + 1):
        top = min(m - 1, d)
        traces[m] = -sum(map(mul, det[1 : top + 1], reversed(traces[m - top : m])))
        if m <= d:
            traces[m] -= m * det[m]
    return [Fraction(t, n) for t in traces]


def count_k_cycles(g: RootedGraph, j: int, budgets: Budgets = Budgets()) -> int:
    """Number of simple j-cycles as unlabeled subgraphs (each counted once).

    Enumeration anchors every cycle at its minimal vertex and fixes the
    orientation by requiring second vertex < last vertex.  Every path
    vertex the depth-first search reaches is one node of the charge.  The
    search keeps its own stack, so j is not bounded by the interpreter's
    recursion limit.  A simple j-cycle needs j distinct vertices, so past
    the vertex count the answer is 0, with no search.
    """
    if j < 3:
        raise ValueError("cycle length must be >= 3")
    if j > g.vertex_count:
        return 0
    count = 0
    nodes = 0
    limit = budgets.limit("cycle-enumeration nodes")
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
            if nodes > limit:
                budgets.charge("cycle-enumeration nodes", nodes)
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
                    if nodes > limit:
                        budgets.charge("cycle-enumeration nodes", nodes)
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


def square_check(g: RootedGraph, budgets: Budgets = Budgets()) -> int:
    """Largest entrywise gap between A^2 and the split of decompose_square.

    Row i of A^2 is read from the two-step walk vector of i, so the check
    costs about n * D^2 with D the maximum degree; it builds no matrix.
    The rows hold at most one entry per two-step pair (i, u, v), the sum
    over u of deg(u)^2 in all; that count is charged before any row is
    built.
    """
    budgets.charge("two-step pairs", sum(len(nb) ** 2 for nb in g.neighbors))
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

