"""Free powers G^{*N} of a rooted graph.

Vertices of the free power are reduced words of letters (copy, local
vertex != base root), stored top letter first and packed into small
integers (letter = copy * base_n + vertex).  The empty word is the root.

Word distances have one source in the engine, a BFS over word_neighbors
(_word_bfs): distance_k_neighbors is the depth-k frontier of the BFS from
x, and both decomposition checks read one row for each word type
(_check_words).  The closed-form suffix-stripping metric, and the
geodesic rule that builds each neighbour along its geodesic, are test
oracles in tests/oracles.py.

Walk counts build no word.  vacuum_moments_distance_k runs one DP, for
every base, over word types: sequences of letter vertices up to the
root-fixing automorphisms of the base, with no copies.  Its moves are the
geodesic rule (strip letters off a word, turn inside one copy, stack a
segment) with colours counted instead of built, so the number of types,
and the DP's cost, do not grow with N past N = 3.  The tests check the DP
against walks counted word by word.
"""
from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import chain, permutations, product
from math import factorial, prod

from .errors import (
    Budgets,
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
    def root_adjacent(self) -> tuple[int, ...]:
        return self.base.neighbors[self.base.root]

    @cached_property
    def nonroot_neighbors(self) -> tuple[tuple[int, ...], ...]:
        root = self.base.root
        return tuple(
            tuple(u for u in nb if u != root) for nb in self.base.neighbors
        )


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


def _max_degree(spec: FreePowerSpec) -> int:
    """The largest degree of G^{*N}: a letter's base degree plus (N - 1) * sigma."""
    return max(map(len, spec.base.neighbors)) + (spec.copies - 1) * spec.sigma


def _charge_moore_bound(spec: FreePowerSpec, radius: int, budgets: Budgets) -> None:
    """Charge the words within radius of one word, radius by radius, as ball vertices.

    With D the largest degree, at most 1 + D + D (D - 1) + ... + D (D - 1)^(r - 1)
    words lie within r of any word (the Moore bound).  The count is charged
    at each radius up to the first past the limit, so a huge radius costs
    nothing; for D <= 2 it grows by at most 2 per radius, and that first
    radius is worked out at once.
    """
    degree = _max_degree(spec)
    if degree <= 2:  # a path or a point: 1 + 2r words, or 2
        past = max(1, (budgets.limit("ball vertices") + 1) // 2)
        budgets.charge("ball vertices", 1 + degree * min(radius, past if degree == 2 else 1))
        return
    count, term = 1, degree
    for _ in range(radius):
        count += term
        budgets.charge("ball vertices", count)
        term *= degree - 1


def distance_k_neighbors(spec: FreePowerSpec, x: Word, k: int) -> tuple[Word, ...]:
    """Exactly the reduced words at word distance k from x, sorted canonically.

    They are the depth-k frontier of the word BFS from x.  The words within
    k of x are charged to the default ball budget from the Moore bound
    before any is built (_charge_moore_bound).
    """
    if k < 1:
        raise ValueError("k must be positive")
    validate_word(spec, x)
    _charge_moore_bound(spec, k, Budgets())
    sphere = [w for w, d in _word_bfs(spec, x, k).items() if d == k]
    return tuple(sorted(sphere, key=lambda w: (len(w), w)))


# past this many candidate maps (7!), or this many automorphisms among them,
# the walk DP uses the identity group alone: any subgroup gives exact orbits
_MAX_AUTOMORPHISM_CANDIDATES = 5040
_MAX_ROOT_AUTOMORPHISMS = 120


def _root_automorphisms(base: RootedGraph) -> tuple[tuple[int, ...], ...]:
    """The automorphisms of the base that fix its root, as vertex maps.

    Such a map keeps each vertex's root distance and degree, so it permutes
    each class of vertices that share both.  The candidates are the
    products of permutations within the classes, and those that map every
    edge onto an edge are kept.  Returns the identity alone when the
    candidates, counted first as the product of the class factorials,
    number more than _MAX_AUTOMORPHISM_CANDIDATES, or when more than
    _MAX_ROOT_AUTOMORPHISMS are kept.
    """
    n = base.vertex_count
    dist = bfs_distances(base, base.root)
    classes: dict[tuple[int, int], list[int]] = {}
    for v in range(n):
        classes.setdefault((dist[v], base.degree(v)), []).append(v)
    identity = (tuple(range(n)),)
    if prod(factorial(len(c)) for c in classes.values()) > _MAX_AUTOMORPHISM_CANDIDATES:
        return identity
    order = list(chain.from_iterable(classes.values()))
    arcs = {(u, v) for u in range(n) for v in base.neighbors[u]}
    found = []
    for images in product(*map(permutations, classes.values())):
        h = dict(zip(order, chain.from_iterable(images)))
        if all((h[u], h[v]) in arcs for u, v in arcs):
            found.append(tuple(map(h.__getitem__, range(n))))
    return tuple(found) if len(found) <= _MAX_ROOT_AUTOMORPHISMS else identity


def _type_letters(spec: FreePowerSpec, top: int):
    """A word's type is its letters' vertices up to the root-fixing automorphisms of the base.

    rep[v] is the least vertex of v's orbit, orbit[rep[v]] its size.  A type
    of root distance c <= top is a letter v != root next to a type of root
    distance c - cost[v] (empty at 0, and with N = 1); levels yields those
    (v, c - cost[v]) for c = 1, 2, ..., one list at a time.
    """
    base, cost = spec.base, spec.apsp[spec.base.root]
    group = _root_automorphisms(base)
    rep = [min(h[v] for h in group) for v in range(base.vertex_count)]
    orbit = Counter(rep)
    levels = (
        [(v, c - cost[v]) for v in orbit if cost[v] == c or 0 < cost[v] < c and spec.copies > 1]
        for c in range(1, (top if spec.copies > 1 else min(top, max(cost))) + 1)
    )
    return rep, orbit, levels


def vacuum_moments_distance_k(
    spec: FreePowerSpec, k: int, max_m: int, budgets: Budgets = Budgets()
) -> list[int]:
    """Exact closed-walk counts at the root of the distance-k graph of G^{*N}.

    Entry m is the (root, root) entry of the m-th power of the distance-k
    adjacency.  The DP runs over word types (_type_letters).  The
    root-fixing automorphisms of G^{*N} permute the copies hanging at each
    word, and act by those of the base inside each copy independently, so
    the words of one type have equal walk counts from the root.  Layer t maps each type to
    the t-step walks from the root that end at its words; a step adds mass
    times M[Y][X], the distance-k neighbours of one word of type Y that have
    type X.  A type is interned as an integer, in a trie of (type below,
    top letter); the root is 0.

    M comes from the geodesic rule (tests/oracles.py::geodesic_neighbors)
    on one word per type, with colours counted instead of built: strip p
    letters, turn at vb in the copy of the last one stripped, va, with rem =
    k - rd(x[:p-1]) - d(va, vb), then stack a segment type of root distance
    rem.  The segment's bottom letter has N - 1 colours after a turn that
    keeps a letter and after p = 0 on a nonempty word, N - 2 after a drop
    onto a nonempty suffix, N - 1 after a drop to the root and N at p = 0
    from the root; every further letter has N - 1, and each letter's vertex
    counts with its orbit size.  Layer t keeps the types within root distance
    k * min(t, max_m - t), which a closed walk cannot pass; the bound is
    applied per turn, before any segment is stacked.

    Every count is charged to walk expansions before what it counts is
    built: the segment pool by its letters, root distance by root distance;
    the turns of a type by the vertices they scan, and the segments a turn
    stacks by their letters, the first time each is asked for; and each
    turn of a step by the mass updates it makes.
    """
    if k < 1 or max_m < 0:
        raise ValueError("k must be positive" if k < 1 else "max_m must be nonnegative")
    base, copies = spec.base, spec.copies
    n, root, apsp = base.vertex_count, base.root, spec.apsp
    cost = apsp[root]
    rep, orbit, levels = _type_letters(spec, k)
    expansions, limit = 0, budgets.limit("walk expansions")

    def spend(count):
        nonlocal expansions
        expansions += count
        if expansions > limit:
            budgets.charge("walk expansions", expansions)

    # pool[c]: the segment types of root distance c, each as its bottom
    # letter, the index of the rest in pool[c - cost] (-1: none) and its
    # weight; length[c]: their letters.
    pool, length = [[]], [0]
    for c, stacks in enumerate(levels, 1):
        length.append(sum(len(pool[r]) + length[r] if r else 1 for _, r in stacks))
        spend(length[c])
        pool.append([(v, -1, orbit[v]) for v, r in stacks if not r] + [
            (v, j, orbit[v] * (copies - 1) * w)
            for v, r in stacks if r
            for j, (*_, w) in enumerate(pool[r])
        ])

    below, top, rd, ids = [0], [root], [0], {}

    def child(t, v):
        x = ids.get(t * n + v)
        if x is None:
            x = ids[t * n + v] = len(top)
            below.append(t)
            top.append(v)
            rd.append(rd[t] + cost[v])
        return x

    def stack(land, rem, coeff):
        # the segment types of root distance rem stacked on land, with coeff
        # times their weights
        out = []
        for v, j, w in pool[rem]:
            x, c = child(land, v), rem - cost[v]
            while j >= 0:
                v, j, _ = pool[c][j]
                x, c = child(x, v), c - cost[v]
            out.append((x, coeff * w))
        return out

    # near[va]: the scan of a turn at a letter of va, once per vertex: the
    # distance d to each vb != va within k, in the order of vb, and rep[vb]
    # (-1 for the root)
    near = [
        [(d, -1 if vb == root else rep[vb]) for vb, d in enumerate(row) if vb != va and d <= k]
        for va, row in enumerate(apsp)
    ]

    def turns(t):
        # [root distance after, land, rem, coefficient, targets to be built]
        # for each turn from a word of type t that reaches a neighbour; each
        # letter it may strip is charged its scan of n vertices first
        strips, y, above = [], t, 0
        while y and above <= k:
            strips.append((y, above))
            above += cost[top[y]]
            y = below[y]
        spend(1 + n * len(strips))
        out = {(t, k): copies - 1 if t else copies}
        for y, above in strips:
            s = below[y]
            for d, r in near[top[y]]:
                rem = k - above - d
                if rem < 0:
                    continue
                if r < 0:
                    land, first = s, copies - 2 if s else copies - 1
                else:
                    land, first = child(s, r), copies - 1
                out[land, rem] = out.get((land, rem), 0) + (first if rem else 1)
        return [
            [rd[land] + rem, land, rem, coeff, None]
            for (land, rem), coeff in out.items()
            if coeff and rem < len(pool)
        ]

    rows = {}
    layer, moments = {0: 1}, [1]
    for t in range(1, max_m + 1):
        bound = k * min(t, max_m - t)
        nxt = {}
        for y, mass in layer.items():
            row = rows.get(y)
            if row is None:
                row = rows[y] = turns(y)
            for turn in row:
                after, land, rem, coeff, targets = turn
                if after > bound:
                    continue
                if targets is None:
                    spend(length[rem])
                    targets = turn[4] = stack(land, rem, coeff) if rem else [(land, coeff)]
                expansions += len(targets)  # spend(), inlined in the hot loop
                if expansions > limit:
                    budgets.charge("walk expansions", expansions)
                for x, c in targets:
                    nxt[x] = nxt.get(x, 0) + mass * c
        layer = nxt
        moments.append(layer.get(0, 0))
    return moments


def _check_words(spec: FreePowerSpec, k: int, cutoff: int, budgets: Budgets) -> list[Word]:
    """One word of each type within root distance cutoff, the rows charged first.

    A type is the walk DP's (_type_letters); its word takes copies 0, 1, 0,
    ... from the bottom.  The root-fixing automorphisms of G^{*N} map every
    word within the cutoff onto the word of its type, and keep root
    distance, word length, top copies and graph distance, so a check reads
    one row per type.

    With D the maximum degree of G^{*N}, a row's BFS scans the neighbours
    of the words within k of its source, and the check those of the words
    within k+1.  The words within r of one word number at most 1 + D + ...
    + D^r, so for k >= 2 (k >= 3 when D = 1) a row takes at most D * (1 + D
    + ... + D^(k+1)) scans, each of a word of at most c + k + 2 letters
    from a source of root distance c.  The types so far are charged those
    letters, level by level, before a level is built.
    """
    n, degree = spec.base.vertex_count, _max_degree(spec)
    row = degree * ((degree ** (k + 2) - 1) // (degree - 1) if degree > 1 else k + 2)
    # lengths: the longest word a scan builds, summed over the types so far
    levels, lengths = [[()]], k + 2
    budgets.charge("check-row letters", lengths * row)
    for c, stacks in enumerate(_type_letters(spec, cutoff)[2], 1):
        lengths += (c + k + 2) * sum(len(levels[r]) for _, r in stacks)
        budgets.charge("check-row letters", lengths * row)
        levels.append([(len(w) % 2 * n + v,) + w for v, r in stacks for w in levels[r]])
    return list(chain.from_iterable(levels))


def _check_pairs(spec: FreePowerSpec, words: list, k: int, cutoff: int, later_only: bool):
    """(d(x, y), y, [l ~ y : d(x, l) = k]) for the words x and the y within k+1 of x.

    Row x is the BFS of x to depth k+1, {y: d(x, y)}: a pair further apart
    has zero on both sides of either checked identity, since d(x, l) > k for
    every neighbour l of y.  A neighbour l of y lies within k+2 of x, so
    row[l] == k exactly when d(x, l) = k.  y is kept when rd(y) <= cutoff,
    and with later_only when rd(x) <= rd(y) too.
    """
    n, root_row = spec.base.vertex_count, spec.apsp[spec.base.root]
    for x in words:
        row = _word_bfs(spec, x, k + 1)
        least = sum(root_row[a % n] for a in x) if later_only else 0
        for y, dxy in row.items():
            if least <= sum(root_row[a % n] for a in y) <= cutoff:
                yield dxy, y, [l for l in word_neighbors(spec, y) if row.get(l) == k]


def decomposition_check(
    spec: FreePowerSpec, k: int, radius: int, budgets: Budgets = Budgets()
) -> int:
    """Max entrywise violation of the distance-k product decomposition on the radius-ball.

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
    <= radius - 1, and i ranges over one word of each type in it (see
    _check_words, which charges the rows first, and _check_pairs).  k and
    radius are checked before that.
    """
    if k < 3:
        raise ValueError("decomposition check needs k >= 3")
    if radius < k + 2:
        raise RadiusTooSmallError(f"radius {radius} < k + 2 = {k + 2}")
    words = _check_words(spec, k, radius - 1, budgets)
    fresh = (spec.copies - 1) * spec.sigma
    max_violation = 0
    for dij, j, hits in _check_pairs(spec, words, k, radius - 1, later_only=True):
        lhs = len(hits)
        if dij == k - 1:
            # a neighbour of j no longer than j moves j's top letter within
            # its copy (pop or sideways); a longer one stacks a fresh letter
            rhs = fresh + sum(len(l) <= len(j) for l in hits)
        else:
            rhs = lhs if dij >= k else 0  # d = k, k+1: definitional buckets
        max_violation = max(max_violation, abs(lhs - rhs))
    return max_violation


def tree_recurrence_check(d: int, k: int, radius: int, budgets: Budgets = Budgets()) -> int:
    """Max entrywise violation of A A^{[k]} = A^{[k+1]} + (d-1) A^{[k-1]}.

    Checked on the words of K2^{*d}, the d-regular tree, over pairs with
    both endpoints at root_distance <= radius - k - 1, one row per word
    length (see _check_words, which charges the rows first, and
    _check_pairs); the rows come from BFS over the whole tree, so the
    distances are exact.
    """
    if k < 2:
        raise ValueError("recurrence check needs k >= 2")
    if radius < k + 2:
        raise RadiusTooSmallError(f"radius {radius} < k + 2 = {k + 2}")
    if d < 2:
        raise ValueError("tree degree must be >= 2")
    spec = free_power(complete_graph(2), d)
    cutoff = radius - k - 1
    words = _check_words(spec, k, cutoff, budgets)
    max_violation = 0
    for dij, _, hits in _check_pairs(spec, words, k, cutoff, later_only=False):
        rhs = (dij == k + 1) + (d - 1) * (dij == k - 1)
        max_violation = max(max_violation, abs(len(hits) - rhs))
    return max_violation
