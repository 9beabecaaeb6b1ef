"""Free powers G^{*N} of a rooted graph.

Vertices of the free power are reduced words of letters (copy, local
vertex != base root), stored top letter first and packed into small
integers (letter = copy * base_n + vertex).  The empty word is the root.

The word metric is computed by a closed-form suffix-stripping rule rather
than BFS; geodesics in a free power decompose through the junction copy.
The rule is validated against an in-ball BFS oracle by the test suite,
which is the blocking correctness gate for everything built on top.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import (
    BudgetExceededError,
    NotAdjacentError,
    RadiusTooSmallError,
    UnreducedWordError,
)
from .graphs import RootedGraph, bfs_distances, complete_graph

Word = tuple  # packed letters, top letter first; () is the root

DEFAULT_BALL_BUDGET = 10**6
DEFAULT_WALK_BUDGET = 10**8


@dataclass(frozen=True)
class FreePowerSpec:
    """A connected rooted base graph together with a copy count N.

    Carries the base's all-pairs distance table (validated: symmetric, zero
    diagonal, triangle inequality), the root degree sigma, and the diameter.
    """

    base: RootedGraph
    copies: int
    apsp: tuple[tuple[int, ...], ...]
    sigma: int
    diameter: int

    @cached_property
    def letter_costs(self) -> tuple[int, ...]:
        # cost of a packed letter = base distance from its vertex to the root
        n = self.base.vertex_count
        root_row = [self.apsp[v][self.base.root] for v in range(n)]
        return tuple(root_row[letter % n] for letter in range(self.copies * n))

    @cached_property
    def root_adjacent(self) -> tuple[int, ...]:
        return self.base.neighbors[self.base.root]

    @cached_property
    def nonroot_neighbors(self) -> tuple[tuple[int, ...], ...]:
        root = self.base.root
        return tuple(
            tuple(u for u in nb if u != root) for nb in self.base.neighbors
        )


def free_power(base: RootedGraph, copies: int) -> FreePowerSpec:
    """Validate the base and assemble a FreePowerSpec for G^{*copies}."""
    if base.vertex_count < 2:
        raise ValueError("base graph needs at least 2 vertices")
    if not base.connected:
        raise ValueError("base graph must be connected")
    if copies < 1:
        raise ValueError("copies must be positive")
    n = base.vertex_count
    table = [bfs_distances(base, v) for v in range(n)]
    apsp = tuple(tuple(row) for row in table)
    for u in range(n):
        if apsp[u][u] != 0:
            raise ValueError("apsp diagonal must be zero")
        for v in range(n):
            if apsp[u][v] != apsp[v][u]:
                raise ValueError("apsp must be symmetric")
            for w in range(n):
                if apsp[u][w] > apsp[u][v] + apsp[v][w]:
                    raise ValueError("apsp violates the triangle inequality")
    return FreePowerSpec(
        base=base,
        copies=copies,
        apsp=apsp,
        sigma=base.degree(base.root),
        diameter=max(max(row) for row in apsp),
    )


def pack_letter(spec: FreePowerSpec, copy: int, vertex: int) -> int:
    return copy * spec.base.vertex_count + vertex


def unpack_letter(spec: FreePowerSpec, letter: int) -> tuple[int, int]:
    return divmod(letter, spec.base.vertex_count)


def make_word(spec: FreePowerSpec, letters) -> Word:
    """Pack a sequence of (copy, vertex) pairs, top letter first."""
    word = tuple(pack_letter(spec, c, v) for c, v in letters)
    validate_word(spec, word)
    return word


def word_letters(spec: FreePowerSpec, word: Word) -> tuple[tuple[int, int], ...]:
    return tuple(unpack_letter(spec, letter) for letter in word)


def format_word(spec: FreePowerSpec, word: Word) -> str:
    if not word:
        return "e"
    return "".join(f"({c}:{v})" for c, v in word_letters(spec, word))


def validate_word(spec: FreePowerSpec, word: Word) -> None:
    n = spec.base.vertex_count
    prev_copy = -1
    for letter in word:
        copy, vertex = divmod(letter, n)
        if not 0 <= copy < spec.copies:
            raise UnreducedWordError(f"copy index {copy} out of range")
        if vertex == spec.base.root:
            raise UnreducedWordError("letters must use non-root vertices")
        if copy == prev_copy:
            raise UnreducedWordError("adjacent letters share a copy")
        prev_copy = copy
    # top-to-bottom scan: prev_copy ends at the bottom letter, unused


def root_distance(spec: FreePowerSpec, word: Word) -> int:
    costs = spec.letter_costs
    return sum(costs[letter] for letter in word)


def word_neighbors(spec: FreePowerSpec, word: Word) -> list[Word]:
    """All free-power neighbors of a word, in a fixed deterministic order.

    A non-root word a.s has neighbors {b.s : b ~ a in the copy, b != root}
    and {s} when a is root-adjacent, plus the stacked words c.a.s for every
    root-adjacent letter c in one of the other copies.
    """
    n = spec.base.vertex_count
    out: list[Word] = []
    if word:
        top = word[0]
        copy, vertex = divmod(top, n)
        rest = word[1:]
        base_of_copy = copy * n
        for v2 in spec.nonroot_neighbors[vertex]:
            out.append((base_of_copy + v2,) + rest)
        if spec.base.adjacent(vertex, spec.base.root):
            out.append(rest)
        for c2 in range(spec.copies):
            if c2 != copy:
                for v2 in spec.root_adjacent:
                    out.append((c2 * n + v2,) + word)
    else:
        for c2 in range(spec.copies):
            for v2 in spec.root_adjacent:
                out.append(((c2 * n + v2),))
    return out


def word_distance(spec: FreePowerSpec, x: Word, y: Word, validate: bool = True) -> int:
    """Graph distance in G^{*N} via the suffix-stripping closed form."""
    if validate:
        validate_word(spec, x)
        validate_word(spec, y)
    lx, ly = len(x), len(y)
    common = 0
    while common < lx and common < ly and x[lx - 1 - common] == y[ly - 1 - common]:
        common += 1
    xs = x[: lx - common]
    ys = y[: ly - common]
    costs = spec.letter_costs
    if not xs and not ys:
        return 0
    if not xs:
        return sum(costs[letter] for letter in ys)
    if not ys:
        return sum(costs[letter] for letter in xs)
    n = spec.base.vertex_count
    ca, va = divmod(xs[-1], n)
    cb, vb = divmod(ys[-1], n)
    dx = sum(costs[letter] for letter in xs)
    dy = sum(costs[letter] for letter in ys)
    if ca != cb:
        return dx + dy
    return dx - costs[xs[-1]] + spec.apsp[va][vb] + dy - costs[ys[-1]]


@dataclass(frozen=True)
class BallGraph:
    """Truncated free power: all words with root_distance <= radius."""

    spec: FreePowerSpec
    graph: RootedGraph
    words: tuple[Word, ...]
    radius: int

    @cached_property
    def index(self) -> dict:
        return {w: i for i, w in enumerate(self.words)}

    @cached_property
    def root_distances(self) -> tuple[int, ...]:
        return tuple(root_distance(self.spec, w) for w in self.words)

    def interior_indices(self, margin: int) -> list[int]:
        cutoff = self.radius - margin
        return [i for i, r in enumerate(self.root_distances) if r <= cutoff]


def ball(spec: FreePowerSpec, radius: int, max_vertices: int = DEFAULT_BALL_BUDGET) -> BallGraph:
    """Materialize the radius-ball of G^{*N} with its induced adjacency.

    Discovery only ever expands words strictly inside the radius: every word
    is reachable from the root along a path of nondecreasing root distance
    (build each letter along its in-copy geodesic).
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    words: list[Word] = [()]
    dist = {(): 0}
    queue = deque([()])
    while queue:
        w = queue.popleft()
        if dist[w] >= radius:
            continue
        for nb in word_neighbors(spec, w):
            if nb in dist:
                continue
            d = root_distance(spec, nb)
            if d <= radius:
                dist[nb] = d
                words.append(nb)
                if len(words) > max_vertices:
                    raise BudgetExceededError(len(words), max_vertices, "ball vertices")
                queue.append(nb)
    index = {w: i for i, w in enumerate(words)}
    adj: list[list[int]] = [[] for _ in words]
    for i, w in enumerate(words):
        for nb in word_neighbors(spec, w):
            j = index.get(nb)
            if j is not None:
                adj[i].append(j)
    graph = RootedGraph(
        vertex_count=len(words),
        root=0,
        neighbors=tuple(tuple(sorted(row)) for row in adj),
        labels=tuple(format_word(spec, w) for w in words),
    )
    return BallGraph(spec=spec, graph=graph, words=tuple(words), radius=radius)


def regular_tree_ball(d: int, radius: int, max_vertices: int = DEFAULT_BALL_BUDGET) -> BallGraph:
    """Radius-ball of the d-regular tree, realized as the d-fold free power of K2."""
    if d < 2:
        raise ValueError("tree degree must be >= 2")
    return ball(free_power(complete_graph(2), d), radius, max_vertices)


@lru_cache(maxsize=128)
def _segment_pool(spec: FreePowerSpec, bound: int):
    """All reduced words with root_distance <= bound, grouped by exact cost.

    Returns a tuple indexed by cost; each entry is a tuple of
    (word, bottom_copy) pairs in canonical order (bottom_copy is -1 for the
    empty word).  Used as the replacement-segment pool when enumerating
    distance-k neighbors.
    """
    n = spec.base.vertex_count
    costs = spec.letter_costs
    pools: list[list[tuple[Word, int]]] = [[] for _ in range(bound + 1)]
    pools[0].append(((), -1))
    queue = deque([((), 0, -1)])
    while queue:
        word, cost, bottom = queue.popleft()
        top_copy = word[0] // n if word else -1
        for copy in range(spec.copies):
            if copy == top_copy:
                continue
            for vertex in range(n):
                if vertex == spec.base.root:
                    continue
                letter = copy * n + vertex
                nc = cost + costs[letter]
                if nc > bound:
                    continue
                new = (letter,) + word
                nb = bottom if word else copy
                pools[nc].append((new, nb))
                queue.append((new, nc, nb))
    return tuple(tuple(sorted(p, key=lambda t: (len(t[0]), t[0]))) for p in pools)


def distance_k_neighbors(spec: FreePowerSpec, x: Word, k: int, validate: bool = True) -> tuple[Word, ...]:
    """Exactly the reduced words at word distance k from x, sorted canonically.

    Candidates are generated per suffix-strip depth of x from the cached
    segment pools, with constraints that make the stripped suffix exact;
    word_distance is not needed as a filter but the constraints mirror it.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if validate:
        validate_word(spec, x)
    n = spec.base.vertex_count
    costs = spec.letter_costs
    root = spec.base.root
    apsp = spec.apsp
    pools = _segment_pool(spec, k)
    prefix = [0]
    for letter in x:
        prefix.append(prefix[-1] + costs[letter])
    out: set[Word] = set()
    for p in range(len(x) + 1):
        s = x[p:]
        rd_strip = prefix[p]
        # y' empty: y is the stripped suffix itself
        if p >= 1 and rd_strip == k:
            out.add(s)
        # junction in a different copy (or x fully a suffix of y when p == 0)
        t = k - rd_strip
        if t >= 1:
            forb1 = x[p - 1] // n if p >= 1 else -1
            forb2 = x[p] // n if p < len(x) else -1
            for word, bottom in pools[t]:
                if word and bottom != forb1 and bottom != forb2:
                    out.add(word + s)
        # junction inside the copy of x's letter just above the suffix
        if p >= 1:
            ca, va = divmod(x[p - 1], n)
            rd_above = prefix[p - 1]
            for vb in range(n):
                if vb == root or vb == va:
                    continue
                rem = k - rd_above - apsp[va][vb]
                if rem < 0:
                    continue
                bottom_letter = ca * n + vb
                if rem == 0:
                    out.add((bottom_letter,) + s)
                else:
                    for word, bottom in pools[rem]:
                        if word and bottom != ca:
                            out.add(word + (bottom_letter,) + s)
    return tuple(sorted(out, key=lambda w: (len(w), w)))


def _tree_distance_k_profile(d: int, k: int, r_max: int):
    """Transition counts in the d-regular tree, collapsed to root distance.

    For a vertex at root distance r, entry [r] lists (r2, count): the number
    of vertices at tree distance exactly k from it whose root distance is r2.
    A distance-k step ascends i edges toward the root and then descends
    k - i edges away from it; branching off the arrival path loses one child.
    """
    table: list[list[tuple[int, int]]] = []
    for r in range(r_max + 1):
        row: list[tuple[int, int]] = []
        for i in range(min(k, r) + 1):
            if i == k:
                row.append((r - k, 1))
                continue
            down = k - i
            at_top = r - i == 0
            first = (d if at_top else d - 1) - (1 if i >= 1 else 0)
            if first <= 0:
                continue
            count = first * (d - 1) ** (down - 1)
            row.append((r + k - 2 * i, count))
        table.append(row)
    return table


def _tree_vacuum_moments(d: int, k: int, max_m: int) -> list[int]:
    """Closed-walk counts at the root of the distance-k graph of the d-regular tree.

    The root stabilizer is transitive on spheres, so walk counts collapse to
    the root-distance profile; the DP is exact with big integers.
    """
    r_max = k * ((max_m + 1) // 2 + 1)
    table = _tree_distance_k_profile(d, k, r_max + k)
    phi = [0] * (r_max + k + 1)
    phi[0] = 1
    moments = [1]
    for _ in range(max_m):
        nxt = [0] * len(phi)
        for r, c in enumerate(phi):
            if c == 0:
                continue
            for r2, count in table[r]:
                if r2 < len(nxt):
                    nxt[r2] += c * count
        phi = nxt
        moments.append(phi[0])
    return moments


def _layered_vacuum_moments(
    spec: FreePowerSpec,
    k: int,
    max_m: int,
    budget: int,
) -> list[int]:
    """Walk counts at the root of the distance-k graph via layered forward DP.

    Layer t holds the number of t-step walks from the root to each word; a
    closed m-walk is a layer-a walk and a reversed layer-b walk meeting at
    the same word (a = m // 2, b = m - a), so layers are only needed to
    ceil(max_m / 2).  Layer t keeps only words with root_distance <= k * t,
    which no prefix of a closed walk can exceed.
    """
    half = (max_m + 1) // 2
    layers: list[dict[Word, int]] = [{(): 1}]
    nbr_cache: dict[Word, tuple[Word, ...]] = {}
    expansions = 0
    for t in range(1, half + 1):
        radius = k * t
        nxt: dict[Word, int] = {}
        for w, c in layers[t - 1].items():
            nbs = nbr_cache.get(w)
            if nbs is None:
                nbs = distance_k_neighbors(spec, w, k, validate=False)
                nbr_cache[w] = nbs
            expansions += len(nbs)
            if expansions > budget:
                raise BudgetExceededError(expansions, budget, "walk expansions")
            for y in nbs:
                if root_distance(spec, y) > radius:
                    continue
                nxt[y] = nxt.get(y, 0) + c
        layers.append(nxt)
    moments = [1]
    for m in range(1, max_m + 1):
        a, b = m // 2, m - m // 2
        fa, fb = layers[a], layers[b]
        if len(fa) > len(fb):
            fa, fb = fb, fa
        moments.append(sum(c * fb.get(w, 0) for w, c in fa.items()))
    return moments


def vacuum_moments_distance_k(
    spec: FreePowerSpec,
    k: int,
    max_m: int,
    budget: int = DEFAULT_WALK_BUDGET,
) -> list[int]:
    """Exact closed-walk counts at the root of the distance-k graph of G^{*N}.

    Entry m is the (root, root) entry of the m-th power of the distance-k
    adjacency.  K2 bases (regular trees) collapse words to their root
    distance (radial engine); every other base runs the layered DP, which
    charges its neighbor expansions to budget.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if max_m < 0:
        raise ValueError("max_m must be nonnegative")
    if spec.base.vertex_count == 2:
        return _tree_vacuum_moments(spec.copies, k, max_m)
    return _layered_vacuum_moments(spec, k, max_m, budget)


def edge_copy_is_top(spec: FreePowerSpec, j: Word, l: Word) -> bool:
    """Whether the edge (j, l) lies in the copy holding j's top letter.

    True for moves of j's top letter within its copy (sideways, or popping
    it to the copy root); False when l stacks a fresh letter on top of j.
    """
    validate_word(spec, j)
    validate_word(spec, l)
    n = spec.base.vertex_count
    if len(l) + 1 == len(j) and j[1:] == l:
        cj, vj = divmod(j[0], n)
        if spec.base.adjacent(vj, spec.base.root):
            return True
        raise NotAdjacentError("top letter is not root-adjacent")
    if len(j) + 1 == len(l) and l[1:] == j:
        cl, vl = divmod(l[0], n)
        if spec.base.adjacent(vl, spec.base.root):
            return False
        raise NotAdjacentError("fresh letter is not root-adjacent")
    if len(j) == len(l) and j and j[1:] == l[1:]:
        cj, vj = divmod(j[0], n)
        cl, vl = divmod(l[0], n)
        if cj == cl and spec.base.adjacent(vj, vl):
            return True
    raise NotAdjacentError("words are not adjacent in the free power")


@dataclass(frozen=True)
class DecompositionReport:
    """Outcome of an entrywise decomposition check over interior ball pairs."""

    max_violation: int
    pairs_checked: int
    d_entries_nonzero: int
    delta_entries_nonzero: int


def decomposition_check(spec: FreePowerSpec, k: int, ball_graph: BallGraph) -> DecompositionReport:
    """Entrywise check of the distance-k product decomposition on a ball.

    For interior pairs (i, j) with root_distance(i) <= root_distance(j), the
    product entry (A^{[k]} A)_{ij} = #{l ~ j : d(i, l) = k} must decompose as
      d(i,j) = k+1 : the same neighbor count, read as the extended-walk matrix,
      d(i,j) = k   : the same count, read as the same-distance matrix,
      d(i,j) = k-1 : (N-1) * deg(e)  +  #{l ~ j : d(i,l) = k, top-copy edge},
      otherwise    : zero.
    The first two buckets are definitional; the content sits at d = k - 1
    (the fresh-copy count is exactly (N-1) deg(e)) and beyond k + 1 (zero).
    The orientation constraint matters: when j is a proper suffix of i the
    fresh-copy count deviates from (N-1) deg(e), so those transposed entries
    are outside the identity's domain.
    """
    if k < 3:
        raise ValueError("decomposition check needs k >= 3")
    if ball_graph.radius < k + 2:
        raise RadiusTooSmallError(f"radius {ball_graph.radius} < k + 2 = {k + 2}")
    words = ball_graph.words
    rds = ball_graph.root_distances
    interior = ball_graph.interior_indices(1)
    fresh = (spec.copies - 1) * spec.sigma
    max_violation = 0
    pairs = 0
    d_nonzero = 0
    delta_nonzero = 0
    nbrs_cache = {b: word_neighbors(spec, words[b]) for b in interior}
    for bi, b in enumerate(interior):
        wb = words[b]
        nbrs_b = nbrs_cache[b]
        for a in interior[: bi + 1]:
            wa = words[a]
            if rds[a] > rds[b]:
                continue
            dij = word_distance(spec, wa, wb, validate=False)
            lhs = 0
            d_entry = 0
            for l in nbrs_b:
                if word_distance(spec, wa, l, validate=False) != k:
                    continue
                lhs += 1
                if wb and (l == wb[1:] or (len(l) == len(wb) and l[1:] == wb[1:])):
                    d_entry += 1  # top-copy move of j (pop or sideways)
            if dij == k + 1 or dij == k:
                rhs = lhs  # definitional buckets
                if dij == k and lhs:
                    delta_nonzero += 1
            elif dij == k - 1:
                rhs = fresh + d_entry
                if d_entry:
                    d_nonzero += 1
            else:
                rhs = 0
            pairs += 1
            violation = abs(lhs - rhs)
            if violation > max_violation:
                max_violation = violation
    return DecompositionReport(
        max_violation=max_violation,
        pairs_checked=pairs,
        d_entries_nonzero=d_nonzero,
        delta_entries_nonzero=delta_nonzero,
    )


def tree_recurrence_check(d: int, k: int, radius: int) -> int:
    """Max entrywise violation of A A^{[k]} = A^{[k+1]} + (d-1) A^{[k-1]}.

    Checked on the d-regular tree ball over pairs with both endpoints at
    root_distance <= radius - k - 1; BFS inside a tree ball gives exact
    distances, so the entries there match the infinite tree.
    """
    if k < 2:
        raise ValueError("recurrence check needs k >= 2")
    if radius < k + 2:
        raise RadiusTooSmallError(f"radius {radius} < k + 2 = {k + 2}")
    bg = regular_tree_ball(d, radius)
    g = bg.graph
    interior = bg.interior_indices(k + 1)
    max_violation = 0
    for j in interior:
        dist_j = bfs_distances(g, j, depth_cap=k + 1)
        for i in interior:
            lhs = sum(1 for l in g.neighbors[i] if dist_j[l] == k)
            dij = dist_j[i]
            rhs = (1 if dij == k + 1 else 0) + (d - 1) * (1 if dij == k - 1 else 0)
            max_violation = max(max_violation, abs(lhs - rhs))
    return max_violation
