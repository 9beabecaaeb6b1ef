"""Independent oracles used by the tests.

Everything here recomputes expected values by a route disjoint from the
package implementation: brute-force enumeration, Floyd-Warshall distances,
and adaptive quadrature.  Keep it that way; these are the cross-checks.
random_graph only generates seeded inputs.
"""
import random
from fractions import Fraction
from itertools import combinations, permutations

from freespec.freeprod import word_neighbors
from freespec.graphs import from_edge_list


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


def brute_closed_walks(g, source, m):
    """Count closed m-walks at source by explicit enumeration."""
    if m == 0:
        return 1

    def rec(v, steps):
        if steps == 0:
            return 1 if v == source else 0
        return sum(rec(u, steps - 1) for u in g.neighbors[v])

    return rec(source, m)


def brute_distance_k_walks(spec, k, m):
    """Closed m-walks at the root of the distance-k graph of a free power.

    Depth-first enumeration of every walk, without pruning.  Each step's
    distance-k sphere comes from a k-step BFS over word_neighbors, so
    neither the closed-form word metric nor the segment pools are used.
    """
    spheres = {}

    def sphere(w):
        if w not in spheres:
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
            spheres[w] = frontier
        return spheres[w]

    def rec(w, steps):
        if steps == 0:
            return 1 if not w else 0
        return sum(rec(y, steps - 1) for y in sphere(w))

    return rec((), m)


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


def weighted_path_moment(beta, gamma, m):
    """Moment m by brute enumeration of weighted lattice paths from level 0.

    Steps: up (weight 1), stay (weight beta[level]), down (weight
    gamma[level - 1]); matches the three-term recursion's combinatorics.
    """

    def b(i):
        return beta[min(i, len(beta) - 1)]

    def c(i):
        return gamma[min(i, len(gamma) - 1)]

    def rec(level, steps):
        if steps == 0:
            return Fraction(1) if level == 0 else Fraction(0)
        total = rec(level + 1, steps - 1)
        if b(level):
            total += b(level) * rec(level, steps - 1)
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
