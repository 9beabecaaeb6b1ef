"""Independent oracles used by the tests, and the helpers they share.

The oracles recompute expected values by a route disjoint from the package
implementation: brute-force enumeration, Floyd-Warshall distances, Hankel
determinants, adaptive quadrature, the polynomial-power pushforward with
the hand-written recursions of the Chebyshev and tree polynomials, and
12-digit rounding and 40-digit square roots by the decimal module.
Keep it that way; these are the cross-checks.  geodesic_neighbors builds
the words at distance k along their geodesics from the base's distance
table alone, and layered_distance_k_walks steps by it.  The exceptions
reuse the package's neighbor enumeration and its word BFS
(freeprod._word_bfs) and nothing else: MaterializedBall, which adds the
induced adjacency to the root's ball, with the tree check's pair loop
built on it; and pair_decomposition_check, whose pairs come from the
root's ball and geodesic_neighbors and whose distances all come from
word_distance.  That closed-form word metric, and geodesic_neighbors, are
checked against BFS by the tests; the package reads every distance from
BFS rows instead.  free_cumulant_walk_counts reads the
base's root moments from the package's closed_walk_counts, and shares no
code with freeprod.  walk_table is no oracle: it reads the coefficients of
the polynomial in N off the package's vacuum_moments_distance_k, for the
tests that pin or check them.

The helpers only build inputs or read one value: random_graph generates
seeded graphs, format_graph_text writes the graph text format, make_word
and word_letters pack and unpack words, vacuum_moment and trace_moment
read one entry of the package's moment lists, graph_edges lists a graph's
edges, diameter reads a free power's base diameter, root_distance sums a
word's letter costs, report_row finds a report row, signed_square reads
v * |v| from an exact value's fields, and exact_less orders two exact
values given by their construction inputs.  poly_add and poly_mul are the
arithmetic on coefficient tuples that the polynomial oracles and the
identities of test_polymoments use; the package has none of it.
"""
import decimal
import random
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

from freespec.errors import Budgets
from freespec.freeprod import (
    _word_bfs,
    free_power,
    vacuum_moments_distance_k,
    validate_word,
    word_neighbors,
)
from freespec.graphs import (
    RootedGraph,
    bfs_distances,
    closed_walk_counts,
    complete_graph,
    from_edge_list,
    trace_moments,
)


def random_graph(n, edge_prob, seed):
    """Seeded Erdos-Renyi style graph, rooted at 0."""
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < edge_prob
    ]
    return from_edge_list(n, edges, 0)


def graph_edges(g):
    """Each edge of g once as (u, v) with u < v, in sorted order."""
    return [(u, v) for u in range(g.vertex_count) for v in g.neighbors[u] if u < v]


def format_graph_text(g):
    """The graph text format: "n root", then one "u v" line per edge."""
    lines = [f"{g.vertex_count} {g.root}"]
    lines.extend(f"{u} {v}" for u, v in graph_edges(g))
    return "\n".join(lines) + "\n"


def diameter(spec):
    """The diameter of a free power's base graph."""
    return max(max(row) for row in spec.apsp)


def report_row(report, param_value, m):
    """The row of a report at (param_value, m); KeyError if there is none."""
    for r in report.rows:
        if r.param_value == param_value and r.m == m:
            return r
    raise KeyError((param_value, m))


def signed_square(v):
    """v * |v| for an ExactScaled v, read from its fields: it orders values
    as v does."""
    return v.rational * abs(v.rational) if v.square is None else v.square


def exact_less(a, b):
    """a < b for values given as (frac, sqrt_den) pairs, each meaning
    frac / sqrt(sqrt_den), by comparing squares with their signs."""
    (x, s), (y, t) = a, b
    if x <= 0 < y:
        return True
    if x >= 0 >= y:
        return False
    lhs = x * x * t
    rhs = y * y * s
    return lhs < rhs if x > 0 else lhs > rhs


def fmt12_by_decimal(frac, sqrt_den=1):
    """frac / sqrt(sqrt_den) rounded half to even at 12 digits by the decimal
    module and written in the shape of '.12g': fixed notation for decimal
    exponents -4..11, exponent form otherwise.

    frac is anything Fraction takes.  A rational is divided once, correctly
    rounded; a surd's square root is taken at 40 digits first.
    """
    q = Fraction(frac)
    if q == 0:
        return "0"
    ctx = decimal.Context(prec=12, rounding=decimal.ROUND_HALF_EVEN, Emax=10**6, Emin=-(10**6))
    if sqrt_den == 1:
        x = ctx.divide(abs(q.numerator), q.denominator)
    else:
        x = ctx.plus(sqrt_by_decimal(q, sqrt_den).copy_abs())
    e = x.adjusted()
    text = "".join(map(str, x.as_tuple().digits)).rstrip("0")
    if e < -4 or e >= 12:
        body = text[0] + ("." + text[1:] if len(text) > 1 else "") + f"e{e:+03d}"
    elif e < 0:
        body = "0." + "0" * (-e - 1) + text
    else:
        text = text.ljust(e + 1, "0")
        body = text[: e + 1] + ("." + text[e + 1:] if len(text) > e + 1 else "")
    return ("-" if q < 0 else "") + body


def sqrt_by_decimal(frac, sqrt_den):
    """frac / sqrt(sqrt_den) as a decimal.Decimal: the square root of
    frac^2 / sqrt_den at 40 significant digits, with the sign of frac."""
    q = Fraction(frac)
    wide = decimal.Context(prec=40, Emax=10**6, Emin=-(10**6))
    root = wide.sqrt(wide.divide(q.numerator**2, q.denominator**2 * sqrt_den))
    return root.copy_negate() if q < 0 else root


def root_distance(spec, word):
    """The root distance of a word: the sum of its letters' base distances to the root."""
    root_row = spec.apsp[spec.base.root]
    n = spec.base.vertex_count
    return sum(root_row[letter % n] for letter in word)


def word_distance(spec, x, y, validate=True):
    """Graph distance in G^{*N} via the suffix-stripping closed form.

    Strip the common suffix s of x and y.  If what is left of either is
    empty, the distance is the other's root distance over s; otherwise the
    geodesic passes through the junction copy of the two bottom letters
    left, taking the base distance between them when they share a copy.
    """
    if validate:
        validate_word(spec, x)
        validate_word(spec, y)
    lx, ly = len(x), len(y)
    common = 0
    while common < lx and common < ly and x[lx - 1 - common] == y[ly - 1 - common]:
        common += 1
    xs = x[: lx - common]
    ys = y[: ly - common]
    dx = root_distance(spec, xs)
    dy = root_distance(spec, ys)
    if not xs or not ys:
        return dx + dy
    n = spec.base.vertex_count
    ca, va = divmod(xs[-1], n)
    cb, vb = divmod(ys[-1], n)
    if ca != cb:
        return dx + dy
    root_row = spec.apsp[spec.base.root]
    return dx - root_row[va] + spec.apsp[va][vb] + dy - root_row[vb]


def make_word(spec, letters):
    """Pack a sequence of (copy, vertex) pairs, top letter first."""
    word = tuple(c * spec.base.vertex_count + v for c, v in letters)
    validate_word(spec, word)
    return word


def word_letters(spec, word):
    return tuple(divmod(letter, spec.base.vertex_count) for letter in word)


def format_word(spec, word):
    if not word:
        return "e"
    return "".join(f"({c}:{v})" for c, v in word_letters(spec, word))


def vacuum_moment(g, m):
    """Number of closed m-step walks at the root (the (root, root) entry of A^m)."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return closed_walk_counts(g, g.root, m)[m]


def trace_moment(g, m):
    """(1/n) * (closed m-walk count summed over all vertices), exact."""
    return trace_moments(g, m)[m]


def brute_closed_walks(g, source, m):
    """Count closed m-walks at source by explicit enumeration."""
    if m == 0:
        return 1

    def rec(v, steps):
        if steps == 0:
            return 1 if v == source else 0
        return sum(rec(u, steps - 1) for u in g.neighbors[v])

    return rec(source, m)


def bfs_sphere(spec, w, k):
    """The words at graph distance exactly k from w, by a k-step BFS over word_neighbors."""
    seen = {w}
    frontier = [w]
    for _ in range(k):
        nxt = []
        for x in frontier:
            for y in word_neighbors(spec, x):
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frontier


def brute_distance_k_walks(spec, k, m):
    """Closed m-walks at the root of the distance-k graph of a free power.

    Depth-first enumeration of every walk, without pruning.  Each step's
    distance-k sphere comes from a k-step BFS over word_neighbors, so
    neither the closed-form word metric nor the geodesic rule is used.
    """
    spheres = {}

    def sphere(w):
        if w not in spheres:
            spheres[w] = bfs_sphere(spec, w, k)
        return spheres[w]

    def rec(w, steps):
        if steps == 0:
            return 1 if not w else 0
        return sum(rec(y, steps - 1) for y in sphere(w))

    return rec((), m)


def free_cumulant_walk_counts(g, copies, max_m):
    """Closed m-walks at the root of G^{*copies}, m = 0..max_m, by free cumulants.

    The copies of a free product are freely independent for the root
    vacuum (Accardi-Lenczewski-Salapata 2007), so the root law of G^{*N} is
    the N-fold free convolution of G's, and its free cumulants are N times
    G's.  Both directions run the univariate moment-cumulant formula
    m_n = sum over s = 1..n of kappa_s [z^(n-s)] M(z)^s, M(z) = sum_i m_i z^i
    (Nica-Speicher 2006), on G's root moments from closed_walk_counts.
    """
    single = closed_walk_counts(g, g.root, max_m)
    kappa = [0]
    for n in range(1, max_m + 1):
        terms = _power_coefficients(single, n)[:-1]  # the s = n term is kappa_n
        kappa.append(single[n] - sum(kappa[s] * c for s, c in enumerate(terms, 1)))
    moments = [1]
    for n in range(1, max_m + 1):
        terms = _power_coefficients(moments, n)
        moments.append(sum(copies * kappa[s] * c for s, c in enumerate(terms, 1)))
    return moments


def walk_table(base, k, max_m, cap, budgets=Budgets()):
    """Closed-walk counts at the root of the distance-k graph of G^{*N}, by copies touched.

    Entry m lists W[m][0..cap], where the closed m-walks number sum_j
    W[m][j] * N(N-1)...(N-j+1) for every N <= cap, and for every N once cap
    >= k*max_m/2: W[m][j] counts the walks that touch j given copies, and a
    closed m-walk touches at most k*m/2.  The count at N, V(N), is that sum,
    so the j-th Newton forward difference of V at 0 is j! * W[m][j]; V(0) is
    [m == 0] and V(1..cap) come from vacuum_moments_distance_k.
    """
    values = [[int(m == 0) for m in range(max_m + 1)]] + [
        vacuum_moments_distance_k(free_power(base, copies), k, max_m, budgets)
        for copies in range(1, cap + 1)
    ]
    table = []
    for m in range(max_m + 1):
        column, row = [v[m] for v in values], []
        for j in range(cap + 1):
            w, rest = divmod(column[0], factorial(j))
            assert rest == 0, (m, j)
            row.append(w)
            column = [b - a for a, b in zip(column, column[1:])]
        table.append(tuple(row))
    return tuple(table)


def _power_coefficients(moments, n):
    """[z^(n-s)] M(z)^s for s = 1..n, from m_0..m_(n-1) of M."""
    power = [1] + [0] * (n - 1)
    out = []
    for s in range(1, n + 1):
        power = [sum(power[i] * moments[d - i] for i in range(d + 1)) for d in range(n)]
        out.append(power[n - s])
    return out


def geodesic_neighbors(spec, x, k, max_root_distance=None):
    """The words at word distance k from x, built along their geodesics, sorted canonically.

    Every geodesic from x strips the top p letters of x, leaving the suffix
    s, and turns at a vertex vb of the copy of the last letter stripped,
    x[p-1] = (ca, va): vb = root drops that letter, and any other vb != va
    replaces its vertex; with p = 0 the only turn is at the root.  The turn
    leaves rem = k - rd(x[:p-1]) - d(va, vb) steps (rem = k when p = 0).
    With rem = 0 the word y reached is a neighbour; otherwise each segment,
    a nonempty word of root distance rem, is stacked on y when its bottom
    copy is neither ca nor the copy of y's top letter.  So no distance is
    computed as a filter.  With max_root_distance, only words within that
    root distance are returned; all the words of one turn share a root
    distance, so the bound is applied before any is built.  The segments
    are built letter by letter, those of one root distance when a turn
    first asks for them.  Nothing is charged, kept past the call or
    validated.
    """
    n = spec.base.vertex_count
    root = spec.base.root
    apsp = spec.apsp
    root_row = apsp[root]
    segments = {}

    def pool(c):
        # (segment, bottom copy) for each word of root distance c: a letter
        # of cost c, or one of a smaller cost on a segment in another copy
        if c not in segments:
            segments[c] = [
                ((copy * n + v,) + w, bottom if w else copy)
                for v in range(n) if v != root and root_row[v] <= c
                for w, bottom in (pool(c - root_row[v]) if root_row[v] < c else [((), -1)])
                for copy in range(spec.copies) if not w or copy != w[0] // n
            ]
        return segments[c]

    prefix = [0]
    for letter in x:
        prefix.append(prefix[-1] + root_row[letter % n])
    # no word at distance k from x lies beyond root distance rd(x) + k
    limit = prefix[-1] + k if max_root_distance is None else max_root_distance
    out = set()
    for p in range(len(x) + 1):
        if p:
            ca, va = divmod(x[p - 1], n)
            turn_row, above = apsp[va], prefix[p - 1]
        else:  # the root turn alone, in no copy and skipping no vertex
            ca, va, turn_row, above = -1, -1, root_row, 0
        s = x[p:]
        rd_s = prefix[-1] - prefix[p]
        for vb in range(n) if p else (root,):
            rem = k - above - turn_row[vb]
            if vb == va or rem < 0 or rem + root_row[vb] + rd_s > limit:
                continue
            y = s if vb == root else (ca * n + vb,) + s
            if rem == 0:
                out.add(y)
            else:
                land = y[0] // n if y else -1
                out.update(w + y for w, bottom in pool(rem) if bottom != ca and bottom != land)
    return tuple(sorted(out, key=lambda w: (len(w), w)))


def layered_distance_k_walks(spec, k, max_m):
    """Closed m-walks at the root of the distance-k graph, m = 0..max_m.

    Forward DP over the words of G^{*N} itself, copies as they are: layer t
    holds the number of t-step walks from the root to each word, and a
    closed m-walk is a layer-a walk and a reversed layer-b walk meeting at
    the same word (a = m // 2, b = m - a).  Layer t keeps only words with
    root_distance <= k * t, which no prefix of a closed walk can exceed.
    It steps by geodesic_neighbors (checked on its own against the
    package's BFS sphere and brute_distance_k_walks), which shares the
    geodesic rule with the package's walk DP but none of its type
    quotient, so it checks the N-polynomial engine.
    """
    half = (max_m + 1) // 2
    layers = [{(): 1}]
    for t in range(1, half + 1):
        radius = k * t
        nxt = {}
        for w, c in layers[t - 1].items():
            for y in geodesic_neighbors(spec, w, k, max_root_distance=radius):
                nxt[y] = nxt.get(y, 0) + c
        layers.append(nxt)
    moments = [1]
    for m in range(1, max_m + 1):
        fa, fb = layers[m // 2], layers[m - m // 2]
        if len(fa) > len(fb):
            fa, fb = fb, fa
        moments.append(sum(c * fb.get(w, 0) for w, c in fa.items()))
    return moments


class MaterializedBall:
    """A radius-ball of a free power with its induced adjacency as a RootedGraph.

    words and root_distances list the ball in the package's BFS order, and
    vertex i of graph is words[i]; the root is vertex 0.
    """

    def __init__(self, spec, radius):
        rds = _word_bfs(spec, (), radius)
        self.spec, self.radius = spec, radius
        self.words = tuple(rds)
        self.root_distances = tuple(rds.values())
        index = {w: i for i, w in enumerate(self.words)}
        adj = [[] for _ in self.words]
        for i, w in enumerate(self.words):
            for nb in word_neighbors(spec, w):
                j = index.get(nb)
                if j is not None:
                    adj[i].append(j)
        self.graph = RootedGraph(
            vertex_count=len(self.words),
            root=0,
            neighbors=tuple(tuple(sorted(row)) for row in adj),
        )

    def interior_indices(self, margin):
        cutoff = self.radius - margin
        return [i for i, r in enumerate(self.root_distances) if r <= cutoff]


def regular_tree_ball(d, radius):
    """Radius-ball of the d-regular tree, realized as the d-fold free power of K2."""
    if d < 2:
        raise ValueError("tree degree must be >= 2")
    return MaterializedBall(free_power(complete_graph(2), d), radius)


def pair_decomposition_check(spec, k, radius, near=False):
    """The free-power decomposition check, every distance by word_distance.

    d(a, b), and d(a, l) for each neighbour l of b, come from the closed
    form, not from the BFS rows the package reads (freeprod._check_pairs).
    It visits each pair (a, b) of interior words with root_distance(a) <=
    root_distance(b), in both orientations at equal root distance: every
    such pair, whatever its distance, or with near only those within k+1 of
    b, taken from geodesic_neighbors at each distance, so larger balls
    stay cheap.
    Returns max_violation, the pairs visited and those within distance k+1,
    each unordered pair once, and the nonzero counts of the top-copy and
    same-distance entries, each orientation its own entry.
    """
    rds = _word_bfs(spec, (), radius - 1)
    fresh = (spec.copies - 1) * spec.sigma
    out = dict(max_violation=0, pairs=0, pairs_within=0, d_nonzero=0, delta_nonzero=0)
    for wb, rd_b in rds.items():
        others = rds
        if near:
            others = [wb] + [
                w
                for dist in range(1, k + 2)
                for w in geodesic_neighbors(spec, wb, dist, max_root_distance=rd_b)
            ]
        nbrs_b = word_neighbors(spec, wb)
        for wa in others:
            if rds[wa] > rd_b:
                continue
            dij = word_distance(spec, wa, wb, validate=False)
            lhs = 0
            d_entry = 0
            for l in nbrs_b:
                if word_distance(spec, wa, l, validate=False) != k:
                    continue
                lhs += 1
                if wb and (l == wb[1:] or (len(l) == len(wb) and l[1:] == wb[1:])):
                    d_entry += 1
            if dij == k + 1 or dij == k:
                rhs = lhs
                if dij == k and lhs:
                    out["delta_nonzero"] += 1
            elif dij == k - 1:
                rhs = fresh + d_entry
                if d_entry:
                    out["d_nonzero"] += 1
            else:
                rhs = 0
            once = rds[wa] < rd_b or wa <= wb
            out["pairs"] += once
            out["pairs_within"] += once and dij <= k + 1
            out["max_violation"] = max(out["max_violation"], abs(lhs - rhs))
    return out


def pair_tree_recurrence_check(d, k, radius):
    """Max violation of A A^{[k]} = A^{[k+1]} + (d-1) A^{[k-1]} over all interior pairs.

    Distances come from BFS in the materialized tree ball, whose interior
    (root distance <= radius - k - 1) sees exact tree distances to k+1.
    """
    bg = regular_tree_ball(d, radius)
    g = bg.graph
    interior = bg.interior_indices(k + 1)
    max_violation = 0
    for j in interior:
        dist_j = bfs_distances(g, j)
        for i in interior:
            lhs = sum(1 for l in g.neighbors[i] if dist_j[l] == k)
            dij = dist_j[i]
            rhs = (1 if dij == k + 1 else 0) + (d - 1) * (1 if dij == k - 1 else 0)
            max_violation = max(max_violation, abs(lhs - rhs))
    return max_violation


def floyd_warshall(g):
    """All-pairs distances by Floyd-Warshall (independent of BFS)."""
    n = g.vertex_count
    inf = float("inf")
    dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for u in range(n):
        for v in g.neighbors[u]:
            dist[u][v] = 1
    for w in range(n):
        dw = dist[w]
        for i in range(n):
            diw = dist[i][w]
            if diw == inf:
                continue
            di = dist[i]
            for j in range(n):
                alt = diw + dw[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def brute_count_cycles(g, j):
    """Count simple j-cycles once each via subset + orientation enumeration."""
    count = 0
    adj = [set(nb) for nb in g.neighbors]
    for subset in combinations(range(g.vertex_count), j):
        anchor = subset[0]
        for perm in permutations(subset[1:]):
            if perm[0] > perm[-1]:
                continue  # one orientation per cycle
            cyc = (anchor,) + perm
            if all(cyc[(i + 1) % j] in adj[cyc[i]] for i in range(j)):
                count += 1
    return count


def hankel_positive(moments):
    """Leading Hankel minors [m_{i+j}] all have nonnegative determinant."""
    values = list(moments)
    for s in range((len(values) - 1) // 2 + 1):
        mat = [[values[i + j] for j in range(s + 1)] for i in range(s + 1)]
        if _det_fraction(mat) < 0:
            return False
    return True


def _det_fraction(mat):
    n = len(mat)
    m = [row[:] for row in mat]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor:
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return det


def weighted_path_moment(gamma, m):
    """Moment m by brute enumeration of weighted lattice paths from level 0.

    Steps: up (weight 1) and down (weight gamma[level - 1]); matches the
    three-term recursion's combinatorics.
    """

    def c(i):
        return gamma[min(i, len(gamma) - 1)]

    def rec(level, steps):
        if steps == 0:
            return Fraction(1) if level == 0 else Fraction(0)
        total = rec(level + 1, steps - 1)
        if level > 0:
            total += c(level - 1) * rec(level - 1, steps - 1)
        return total

    return rec(0, m)


def _composite_simpson(f, a, b, n):
    h = (b - a) / n
    total = f(a) + f(b)
    total += 4.0 * sum(f(a + (2 * i + 1) * h) for i in range(n // 2))
    total += 2.0 * sum(f(a + 2 * i * h) for i in range(1, n // 2))
    return total * h / 3.0


def adaptive_simpson(f, a, b, tol=1e-11, n0=64, n_max=2**18):
    """Composite Simpson with mesh doubling until two estimates agree.

    Globally adaptive in the mesh size; a Richardson step sharpens the final
    estimate.  Termination uses tol as an absolute-or-relative threshold, so
    large-magnitude integrands cannot push the stop criterion below the
    floating-point noise floor (which would stall an interval-adaptive
    scheme).
    """
    n = n0
    prev = _composite_simpson(f, a, b, n)
    while n <= n_max:
        n *= 2
        cur = _composite_simpson(f, a, b, n)
        if abs(cur - prev) <= max(tol, tol * abs(cur)):
            return cur + (cur - prev) / 15.0
        prev = cur
    return prev


def semicircle_moment_quad(m, tol=1e-12):
    """Semicircle moment by quadrature after x = 2 sin(theta) (smooth integrand)."""
    import math

    def integrand(theta):
        c = math.cos(theta)
        return (2.0 * math.sin(theta)) ** m * (2.0 * c * c / math.pi)

    return adaptive_simpson(integrand, -math.pi / 2.0, math.pi / 2.0, tol)


def km_moment_quad(d, m, tol=1e-12):
    """Kesten-McKay moment by quadrature after x = 2 sqrt(d-1) sin(theta).

    The substitution removes the edge singularity entirely: at d = 2 the
    density weight transforms to the constant 1/pi (simplified analytically
    to avoid the 0/0 at the endpoints).
    """
    import math

    w = 2.0 * math.sqrt(d - 1.0)

    if d == 2:
        def integrand(theta):
            return (2.0 * math.sin(theta)) ** m / math.pi
    else:
        def integrand(theta):
            s, c = math.sin(theta), math.cos(theta)
            x = w * s
            return x**m * (d * w * w * c * c) / (2.0 * math.pi * (d * d - x * x))

    return adaptive_simpson(integrand, -math.pi / 2.0, math.pi / 2.0, tol)


# Polynomials are coefficient tuples, constant first, as in the package.
# poly_add and poly_mul are the only arithmetic on them, here for the
# oracles below and the identities of tests/test_polymoments.py.


def poly_add(p, q, c=1):
    """p + c * q, trailing zeros dropped."""
    out = [0] * max(len(p), len(q))
    for i, a in enumerate(p):
        out[i] += a
    for i, b in enumerate(q):
        out[i] += c * b
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_mul(p, q):
    """p * q, trailing zeros dropped."""
    out = [0] * (len(p) + len(q))
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_add(out, ())


X = (0, 1)


def chebyshev_monic_recursion(k):
    """Monic Chebyshev family: P0 = 1, P1 = x, x*Pn = P(n+1) + P(n-1)."""
    prev, cur = (1,), X
    if k == 0:
        return prev
    for _ in range(k - 1):
        prev, cur = cur, poly_add(poly_mul(X, cur), prev, -1)
    return cur


def tree_distance_poly_recursion(d, k):
    """Q0 = 1, Q1 = x, Q2 = x^2 - d, then x*Qk = Q(k+1) + (d-1)*Q(k-1)."""
    if k == 0:
        return (1,)
    if k == 1:
        return X
    prev, cur = X, (-d, 0, 1)
    for _ in range(k - 2):
        prev, cur = cur, poly_add(poly_mul(X, cur), prev, -(d - 1))
    return cur


def integrate_poly(p, base):
    """Pair a polynomial's coefficients with a moment sequence (= its integral)."""
    if len(p) > len(base):
        raise ValueError(f"need base moments to order {len(p) - 1}, have {len(base) - 1}")
    return sum((c * base[j] for j, c in enumerate(p)), Fraction(0))


def pushforward_moments(p, base, max_m):
    """Moments m = 0..max_m of p(X), where X has the given base moments.

    Expands p^m and pairs it with the base moments, so the base must
    extend to degree deg(p) * max_m.
    """
    moments = [Fraction(1)]
    power = (1,)
    for _ in range(max_m):
        power = poly_mul(power, p)
        moments.append(integrate_poly(power, base))
    return moments
