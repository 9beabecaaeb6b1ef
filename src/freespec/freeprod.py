"""Free powers G^{*N} of a rooted graph.

Vertices of the free power are reduced words of letters (copy, local
vertex != base root), stored top letter first and packed into small
integers (letter = copy * base_n + vertex).  The empty word is the root.

Word distances have one source in the engine, a BFS over word_neighbors
(_word_bfs): the ball, the segment pools and both decomposition checks read
its rows.  The closed-form suffix-stripping metric (geodesics decompose
through the junction copy) is a test oracle in tests/oracles.py; the
candidate constraints of distance_k_neighbors mirror it.
"""
from __future__ import annotations

from functools import cached_property
from math import comb, perm

from .errors import (
    DEFAULT_BALL_BUDGET,
    DEFAULT_WALK_BUDGET,
    BudgetExceededError,
    Frozen,
    RadiusTooSmallError,
    UnreducedWordError,
)
from .graphs import RootedGraph, bfs_distances, complete_graph

Word = tuple  # packed letters, top letter first; () is the root


class FreePowerSpec(Frozen):
    """A connected rooted base graph together with a copy count N.

    The base's all-pairs distance table (BFS distances, so exact by
    construction) and the root degree sigma are derived from the base when
    first read.
    """

    _fields = ("base", "copies")

    def __init__(self, base: RootedGraph, copies: int):
        super().__init__(base, copies)

    @cached_property
    def apsp(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(bfs_distances(self.base, v)) for v in range(self.base.vertex_count))

    @cached_property
    def sigma(self) -> int:
        return self.base.degree(self.base.root)

    @cached_property
    def letter_costs(self) -> tuple[int, ...]:
        # cost of a packed letter = base distance from its vertex to the root
        n = self.base.vertex_count
        root_row = self.apsp[self.base.root]
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

    @cached_property
    def _pool_cache(self) -> dict[int, list]:
        # segment pools built for this spec, by bound
        return {}


def free_power(base: RootedGraph, copies: int) -> FreePowerSpec:
    """Validate the base and the copy count of G^{*copies}."""
    if base.vertex_count < 2:
        raise ValueError("base graph needs at least 2 vertices")
    if not base.connected:
        raise ValueError("base graph must be connected")
    if copies < 1:
        raise ValueError("copies must be positive")
    return FreePowerSpec(base, copies)


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


def _word_bfs(spec: FreePowerSpec, source: Word, depth: int) -> dict[Word, int]:
    """Each word within graph distance depth of source, with that distance, in BFS order."""
    dist = {source: 0}
    frontier = [source]
    step = 0
    while frontier and step < depth:
        step += 1
        nxt = []
        for w in frontier:
            for nb in word_neighbors(spec, w):
                if nb not in dist:
                    dist[nb] = step
                    nxt.append(nb)
        frontier = nxt
    return dist


def _ball_size(spec: FreePowerSpec, radius: int, max_vertices: int) -> int:
    """len(ball(spec, radius)), counted without building a word.

    Raises BudgetExceededError, naming the count, at the first radius whose
    count passes max_vertices.  A word is a stack of non-root letters, each
    in a copy other than the one below it, and its root distance is the sum
    of its letters' base distances to the root.  So with w[s] the words of
    root distance s whose bottom letter is in one given copy, w[s] sums
    [c == s] + (N - 1) * w[s - c] over the non-root base vertices of cost c,
    and the r-ball holds 1 + N * (w[1] + ... + w[r]) words.
    """
    root = spec.base.root
    costs = [c for v, c in enumerate(spec.apsp[root]) if v != root]
    w = [0] * max(costs)  # w[-c] is w[s - c]; 0 for s - c <= 0
    count = 1
    for s in range(1, radius + 1):
        w = w[1:] + [sum((c == s) + (spec.copies - 1) * w[-c] for c in costs)]
        count += spec.copies * w[-1]
        if count > max_vertices:
            raise BudgetExceededError(count, max_vertices, "ball vertices")
        if not any(w):
            break  # N = 1, and no word is further out
    return count


def ball(spec: FreePowerSpec, radius: int, max_vertices: int = DEFAULT_BALL_BUDGET) -> dict:
    """The radius-ball of G^{*N}: {word: root distance} in BFS order from the root.

    The root distance of a word is its graph distance from the root, so it
    is the BFS depth.  The ball is charged to max_vertices from its count
    before any word is built.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    _ball_size(spec, radius, max_vertices)
    return _word_bfs(spec, (), radius)


def _segment_pool(spec: FreePowerSpec, bound: int, budget: int | None = None):
    """The bound-ball of G^{*N}, grouped by root distance.

    Entry c lists (word, bottom copy) for each word of root distance c, with
    bottom copy -1 for the root.  Used as the replacement-segment pool when
    enumerating distance-k neighbors, and kept on the spec, so it lives as
    long as the spec does.  With budget, the ball is counted first
    (_ball_size), and BudgetExceededError is raised before any word is built
    once it holds more than budget nonempty words.
    """
    if budget is not None:
        try:
            _ball_size(spec, bound, budget + 1)
        except BudgetExceededError as err:
            raise BudgetExceededError(err.count - 1, budget, "segment-pool words") from None
    pools = spec._pool_cache.get(bound)
    if pools is None:
        n = spec.base.vertex_count
        pools = spec._pool_cache[bound] = [[] for _ in range(bound + 1)]
        for word, cost in _word_bfs(spec, (), bound).items():
            pools[cost].append((word, word[-1] // n if word else -1))
    return pools


def distance_k_neighbors(
    spec: FreePowerSpec,
    x: Word,
    k: int,
    validate: bool = True,
    *,
    max_root_distance: int | None = None,
) -> tuple[Word, ...]:
    """Exactly the reduced words at word distance k from x, sorted canonically.

    Candidates are generated per suffix-strip depth of x from the spec's
    segment pools, with constraints that make the stripped suffix exact, so
    no distance is computed as a filter.  With max_root_distance, only words
    within that root distance are returned.  Every candidate of one strip
    depth and junction vertex has the same root distance, so the bound is
    applied before any is built.
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
    rd_x = prefix[-1]
    # no word at distance k from x lies beyond root distance rd_x + k
    limit = rd_x + k if max_root_distance is None else max_root_distance
    out: set[Word] = set()
    for p in range(len(x) + 1):
        s = x[p:]
        rd_strip = prefix[p]
        rd_s = rd_x - rd_strip
        # y' empty: y is the stripped suffix itself
        if p >= 1 and rd_strip == k and rd_s <= limit:
            out.add(s)
        # junction in a different copy (or x fully a suffix of y when p == 0)
        t = k - rd_strip
        if t >= 1 and t + rd_s <= limit:
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
                if rem < 0 or rem + apsp[vb][root] + rd_s > limit:
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


def _tree_vacuum_moments(d: int, k: int, max_m: int, budget: int) -> list[int]:
    """Closed-walk counts at the root of the distance-k graph of the d-regular tree.

    The root stabilizer is transitive on spheres, so walk counts collapse to
    the root-distance profile; the DP is exact with big integers.  Each of
    its max_m steps updates at most k + 1 entries per table row; that bound
    is charged before the table is built, and past budget
    BudgetExceededError is raised.
    """
    r_max = k * ((max_m + 1) // 2 + 1)
    updates = max_m * (r_max + k + 1) * (k + 1)
    if updates > budget:
        raise BudgetExceededError(updates, budget, "radial-walk updates")
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


# past this many root-fixing automorphisms, or this much candidate checking
# in the search for them, the walk DP uses the identity group alone: any
# subgroup gives exact orbits
_MAX_ROOT_AUTOMORPHISMS = 120
_MAX_AUTOMORPHISM_WORK = 2 * 10**5


def _root_automorphisms(base: RootedGraph) -> tuple[tuple[int, ...], ...]:
    """The automorphisms of the base that fix its root, as vertex maps.

    Backtracks over the vertices in order of root distance, so every vertex
    after the root goes next to the image of a placed neighbor.  Returns the
    identity alone once more than _MAX_ROOT_AUTOMORPHISMS are found, or once
    the candidate checks pass _MAX_AUTOMORPHISM_WORK: sibling subtrees that
    differ only deep down can make the search try exponentially many maps.
    Placing vertex i scans the neighbors of a placed vertex and checks each
    against i's placed neighbors and degree, which is charged up front.
    """
    n = base.vertex_count
    nbs = [set(nb) for nb in base.neighbors]
    dist = bfs_distances(base, base.root)
    order = sorted(range(n), key=dist.__getitem__)
    place = {v: i for i, v in enumerate(order)}
    earlier = [[u for u in base.neighbors[v] if place[u] < i] for i, v in enumerate(order)]
    scan = [
        len(nbs[ev[0]]) * (1 + len(ev) + len(nbs[v])) if ev else 1
        for ev, v in zip(earlier, order)
    ]
    image = [-1] * n
    used = [False] * n

    def candidates(i: int):
        v = order[i]
        if i == 0:
            return iter((v,))
        ev = earlier[i]
        return (
            u
            for u in base.neighbors[image[ev[0]]]
            if not used[u]
            and dist[u] == dist[v]
            and len(nbs[u]) == len(nbs[v])
            and all(image[x] in nbs[u] for x in ev)
            and sum(used[x] for x in nbs[u]) == len(ev)
        )

    found = []
    work = 0
    stack = [candidates(0)]
    while stack:
        v = order[len(stack) - 1]
        if image[v] >= 0:
            used[image[v]] = False
            image[v] = -1
        u = next(stack[-1], None)
        if u is None:
            stack.pop()
            continue
        image[v] = u
        used[u] = True
        if len(stack) < n:
            work += scan[len(stack)]
            if work > _MAX_AUTOMORPHISM_WORK:
                return (tuple(range(n)),)
            stack.append(candidates(len(stack)))
            continue
        found.append(tuple(image))
        if len(found) > _MAX_ROOT_AUTOMORPHISMS:
            return (tuple(range(n)),)
    return tuple(found)


def _least_image(seq: tuple, group, least: dict):
    """(automorphism mapping seq to its least image, orbit size of seq), memoized."""
    hit = least.get(seq)
    if hit is None:
        images = {tuple(h[v] for v in seq): h for h in group}
        hit = least[seq] = (images[min(images)], len(images))
    return hit


def _canonical_fresh(y: Word, n: int, c: int, group, least: dict):
    """Canonical form of y if its fresh copies (those >= c) appear as c, c+1, ...

    Scanning from the bottom letter up, copies are renamed 0, 1, ... in order
    of first appearance, and each copy's vertex sequence (bottom letter
    first) is mapped by the root-fixing automorphism of the base that makes
    it least.  Returns (canonical word, number of fresh copies, size of its
    orbit), or None when the fresh copies are out of order: that y is a
    relabelling of another neighbor and is counted there.
    """
    labels: dict[int, int] = {}
    fresh = c
    out = []
    for letter in reversed(y):
        copy, vertex = divmod(letter, n)
        label = labels.get(copy)
        if label is None:
            if copy >= c:
                if copy != fresh:
                    return None
                fresh += 1
            label = labels[copy] = len(labels)
        out.append(label * n + vertex)
    size = 1
    if len(group) > 1:
        seqs: list[list[int]] = [[] for _ in labels]
        for letter in out:
            seqs[letter // n].append(letter % n)
        maps = []
        for seq in seqs:
            h, orbit = _least_image(tuple(seq), group, least)
            maps.append(h)
            size *= orbit
        out = [letter - letter % n + maps[letter // n][letter % n] for letter in out]
    out.reverse()
    return tuple(out), fresh - c, size


def _walk_polynomial(
    base: RootedGraph,
    k: int,
    max_m: int,
    budget: int,
    cap: int,
) -> tuple[tuple[int, ...], ...]:
    """Closed-walk counts at the root of the distance-k graph of G^{*N}, by copies touched.

    The distance-k rule only asks whether two copies are equal.  Renaming
    the copies of a closed m-walk in order of first appearance maps the
    walks that touch j copies onto classes of N(N-1)...(N-j+1) walks each,
    so the count is sum_j W[m][j] * N(N-1)...(N-j+1).  Entry m lists
    W[m][0..cap], exact for every j <= cap: j never drops along a walk, so
    walks past cap copies are dropped as soon as they get there.  That
    serves every N <= cap, and every N once cap >= k*max_m/2, since a
    closed m-walk touches at most k*m/2 copies; W[m][k*m/2] / sigma^(k*m/2)
    is then the N -> oo limit of the normalized moment (the free CLT).

    The forward DP runs over states (w, j): w is the current word with its
    own copies renamed bottom letter first, j the number of copies touched.
    From w with c copies, a neighbor y with r fresh copies reuses s of the
    j - c touched copies that w no longer holds in C(r, s) * (j - c)_s ways
    and takes new ones for the rest.  A root-fixing automorphism of the
    base applied to the letters of one copy is a root-fixing automorphism
    of G^{*N}, so the words of one orbit carry equal masses: the DP keeps
    one word per orbit (see _canonical_fresh) with the orbit's size and
    total mass.  Layer t keeps words with root distance at most
    k * min(t, max_m - t), which a closed walk cannot exceed.  Each word is
    charged its neighbor count times its orbit size, as if every word of
    the orbit were expanded; the charge grows with cap, so a budget that
    fits one cap fits every smaller one.  The segment pools behind the
    neighbors are held to budget words on their own; they live on the DP's
    specs, so they go when it returns.
    """
    table = [(1,) + (0,) * cap]
    for layer in _walk_layers(base, k, max_m, budget, cap):
        row = [0] * (cap + 1)
        for j, mass in layer.get((), (1, {}))[1].items():
            row[j] = mass
        table.append(tuple(row))
    return tuple(table)


def _walk_layers(base: RootedGraph, k: int, max_m: int, budget: int, cap: int):
    """Layers 1..max_m of the walk DP of _walk_polynomial, one per step.

    Each layer maps a kept canonical word to (its orbit size, {copies
    touched: mass}).  The pools and the expansions are charged as the
    docstring of _walk_polynomial says.
    """
    n = base.vertex_count
    group = _root_automorphisms(base)
    least: dict[tuple, tuple] = {}
    specs: dict[int, FreePowerSpec] = {}
    layer: dict[Word, tuple[int, dict[int, int]]] = {(): (1, {0: 1})}
    expansions = 0
    for t in range(1, max_m + 1):
        bound = k * min(t, max_m - t)
        nxt: dict[Word, tuple[int, dict[int, int]]] = {}
        for w, (size, masses) in layer.items():
            c = max(w) // n + 1 if w else 0
            # room for the fresh copies a distance-k step can add, up to cap
            copies = min(c + k, cap)
            spec = specs.get(copies)
            if spec is None:
                spec = specs[copies] = free_power(base, copies)
                _segment_pool(spec, k, budget)
            nbs = distance_k_neighbors(spec, w, k, validate=False, max_root_distance=bound)
            expansions += len(nbs) * size
            if expansions > budget:
                raise BudgetExceededError(expansions, budget, "walk expansions")
            by_fresh: dict[int, list[tuple[Word, int]]] = {}
            for y in nbs:
                canonical = _canonical_fresh(y, n, c, group, least)
                if canonical is not None:
                    y, r, orbit = canonical
                    by_fresh.setdefault(r, []).append((y, orbit))
            for r, ys in by_fresh.items():
                shifted: dict[int, int] = {}
                for j, mass in masses.items():
                    for s in range(max(0, j + r - cap), min(r, j - c) + 1):
                        j2 = j + r - s
                        shifted[j2] = shifted.get(j2, 0) + mass * comb(r, s) * perm(j - c, s)
                for y, orbit in ys:
                    target = nxt.setdefault(y, (orbit, {}))[1]
                    for j2, mass in shifted.items():
                        target[j2] = target.get(j2, 0) + mass
        layer = nxt
        yield layer


# per (base, k, max_m, budget), the 16 latest used: [largest cap whose walk
# DP fit, its table, (smallest cap whose DP overran, its count and stage)].
# A table serves every smaller cap, since perm(N, j) = 0 for j > N; the
# charge grows with cap, so every larger cap overruns too, and later cells
# of a run fail at once.
_walk_tables: dict[tuple, list] = {}


def vacuum_moments_distance_k(
    spec: FreePowerSpec,
    k: int,
    max_m: int,
    budget: int = DEFAULT_WALK_BUDGET,
) -> list[int]:
    """Exact closed-walk counts at the root of the distance-k graph of G^{*N}.

    Entry m is the (root, root) entry of the m-th power of the distance-k
    adjacency.  K2 bases (regular trees) collapse words to their root
    distance (radial engine, charged its row updates before it starts);
    every other base evaluates the walk polynomial at N = spec.copies.
    Its DP tracks min(N, k*max_m/2) copies, so every N >= k*max_m/2 shares
    one DP and its budget charge, and a smaller N pays only for its own
    copies, unless a larger table for the same base, k, max_m and budget
    already fit: that one serves it.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if max_m < 0:
        raise ValueError("max_m must be nonnegative")
    if spec.base.vertex_count == 2:
        return _tree_vacuum_moments(spec.copies, k, max_m, budget)
    cap = min(spec.copies, max(1, k * max_m // 2))
    key = (spec.base, k, max_m, budget)
    entry = _walk_tables[key] = _walk_tables.pop(key, None) or [0, (), None]
    if len(_walk_tables) > 16:
        del _walk_tables[next(iter(_walk_tables))]
    fit_cap, table, overrun = entry
    if overrun is not None and overrun[0] <= cap:
        raise BudgetExceededError(overrun[1], budget, overrun[2])
    if fit_cap < cap:
        try:
            table = _walk_polynomial(spec.base, k, max_m, budget, cap)
        except BudgetExceededError as err:
            entry[2] = (cap, err.count, err.what)
            raise
        entry[:2] = cap, table
    return [sum(w * perm(spec.copies, j) for j, w in enumerate(row)) for row in table]


class DecompositionReport(Frozen):
    """Outcome of an entrywise decomposition check over interior ball pairs.

    pairs_checked counts the pairs within distance k+1: the rest are zero.
    """

    _fields = ("max_violation", "pairs_checked", "d_entries_nonzero", "delta_entries_nonzero")

    def __init__(
        self,
        max_violation: int,
        pairs_checked: int,
        d_entries_nonzero: int,
        delta_entries_nonzero: int,
    ):
        super().__init__(max_violation, pairs_checked, d_entries_nonzero, delta_entries_nonzero)


def _check_interior(
    spec: FreePowerSpec, k: int, radius: int, cutoff: int, max_vertices: int, budget: int
) -> dict:
    """The interior a check visits, ball(spec, cutoff), after both charges.

    The radius-ball is charged to max_vertices from its count (_ball_size),
    then the rows to budget from the interior's, before any word is built.
    Row x is the BFS of x to depth k+1, {y: d(x, y)}: a pair further apart
    has zero on both sides of either checked identity, since d(x, l) > k for
    every neighbour l of y.  With D the maximum degree of G^{*N}, the BFS of
    a row scans the neighbours of the words within k of x, and a check scans
    at most D neighbours for each word of its row.  The words within r of
    one word number at most 1 + D + ... + D^r, and for every k >= 2 (k >= 3
    when D = 1) the whole row then takes at most D * (1 + D + ... + D^(k+1))
    neighbour scans.
    """
    _ball_size(spec, radius, max_vertices)
    degree = max(map(len, spec.base.neighbors)) + (spec.copies - 1) * spec.sigma
    row = (degree ** (k + 2) - 1) // (degree - 1) if degree > 1 else k + 2
    steps = _ball_size(spec, cutoff, max_vertices) * row * degree
    if steps > budget:
        raise BudgetExceededError(steps, budget, "check-row neighbour scans")
    return ball(spec, cutoff, max_vertices)


def _check_pairs(spec: FreePowerSpec, interior: dict, k: int, later_only: bool):
    """(d(x, y), y, [l ~ y : d(x, l) = k]) for interior pairs x, y within k+1.

    Every distance is read from the row of x, its BFS to depth k+1: a
    neighbour l of y lies within k+2 of x, so row[l] == k exactly when
    d(x, l) = k.  With later_only, y comes no earlier than x in the
    interior's BFS order, so rd(x) <= rd(y).
    """
    earlier = set()
    for x in interior:
        row = _word_bfs(spec, x, k + 1)
        for y, dxy in row.items():
            if y in interior and y not in earlier:
                yield dxy, y, [l for l in word_neighbors(spec, y) if row.get(l) == k]
        if later_only:
            earlier.add(x)


def decomposition_check(
    spec: FreePowerSpec, k: int, radius: int,
    max_vertices: int = DEFAULT_BALL_BUDGET, budget: int = DEFAULT_WALK_BUDGET,
) -> DecompositionReport:
    """Entrywise check of the distance-k product decomposition on the radius-ball.

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
    are outside the identity's domain.  The interior is root distance
    <= radius - 1.  k and radius are checked, and the radius-ball and the
    rows are charged, before the interior is built (see _check_interior).
    Row i visits the interior j within k+1 of it that come no earlier in
    ball order (see _check_pairs).
    """
    if k < 3:
        raise ValueError("decomposition check needs k >= 3")
    if radius < k + 2:
        raise RadiusTooSmallError(f"radius {radius} < k + 2 = {k + 2}")
    interior = _check_interior(spec, k, radius, radius - 1, max_vertices, budget)
    fresh = (spec.copies - 1) * spec.sigma
    max_violation = pairs = d_nonzero = delta_nonzero = 0
    for dij, j, hits in _check_pairs(spec, interior, k, later_only=True):
        lhs = len(hits)
        if dij == k - 1:
            # a neighbour of j no longer than j moves j's top letter within
            # its copy (pop or sideways); a longer one stacks a fresh letter
            d_entry = sum(len(l) <= len(j) for l in hits)
            rhs = fresh + d_entry
            d_nonzero += d_entry > 0
        else:
            rhs = lhs if dij >= k else 0  # d = k, k+1: definitional buckets
            delta_nonzero += dij == k and lhs > 0
        pairs += 1
        max_violation = max(max_violation, abs(lhs - rhs))
    return DecompositionReport(max_violation, pairs, d_nonzero, delta_nonzero)


def tree_recurrence_check(
    d: int, k: int, radius: int,
    max_vertices: int = DEFAULT_BALL_BUDGET, budget: int = DEFAULT_WALK_BUDGET,
) -> int:
    """Max entrywise violation of A A^{[k]} = A^{[k+1]} + (d-1) A^{[k-1]}.

    Checked on the words of K2^{*d}, the d-regular tree, over pairs with
    both endpoints at root_distance <= radius - k - 1.  The radius-ball and
    the rows are charged before that interior is built (see
    _check_interior); the rows come from BFS over the whole tree, so the
    distances are exact.
    """
    if k < 2:
        raise ValueError("recurrence check needs k >= 2")
    if radius < k + 2:
        raise RadiusTooSmallError(f"radius {radius} < k + 2 = {k + 2}")
    if d < 2:
        raise ValueError("tree degree must be >= 2")
    spec = free_power(complete_graph(2), d)
    interior = _check_interior(spec, k, radius, radius - k - 1, max_vertices, budget)
    max_violation = 0
    for dij, _, hits in _check_pairs(spec, interior, k, later_only=False):
        rhs = (dij == k + 1) + (d - 1) * (dij == k - 1)
        max_violation = max(max_violation, abs(len(hits) - rhs))
    return max_violation
