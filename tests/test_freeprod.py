"""Tests for free powers: word metric, balls, neighbor enumeration, walk engines.

The metric-vs-BFS oracle tests are the blocking gate for this module: the
closed-form word distance must match in-ball BFS exactly wherever geodesics
are guaranteed to stay inside the ball.
"""
from collections import Counter
import hashlib
import random
from math import perm
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freespec.errors import (
    BudgetExceededError,
    Budgets,
    FreespecError,
    RadiusTooSmallError,
    UnreducedWordError,
)
from freespec import freeprod
from freespec.freeprod import (
    FreePowerSpec,
    _word_bfs,
    decomposition_check,
    distance_k_neighbors,
    free_power,
    tree_recurrence_check,
    validate_word,
    vacuum_moments_distance_k,
    word_neighbors,
)
from freespec.graphs import (
    BUILTIN_GRAPHS,
    bfs_distances,
    builtin_graph,
    complete_graph,
    cycle_graph,
    distance_k_graph,
    from_edge_list,
    path_graph,
)
from oracles import (
    MaterializedBall,
    bfs_sphere,
    brute_distance_k_walks,
    diameter,
    free_cumulant_walk_counts,
    geodesic_neighbors,
    graph_edges,
    layered_distance_k_walks,
    make_word,
    pair_decomposition_check,
    pair_tree_recurrence_check,
    regular_tree_ball,
    root_distance,
    vacuum_moment,
    walk_table,
    word_distance,
)

K2 = complete_graph(2)
K3 = complete_graph(3)
K4 = complete_graph(4)
C4 = cycle_graph(4)
C5 = cycle_graph(5)
P3 = path_graph(3)
P4 = path_graph(4)
STAR3 = from_edge_list(4, [(0, 1), (0, 2), (0, 3)], 0)
STAR3_LEAF = from_edge_list(4, [(0, 1), (0, 2), (0, 3)], 1)
STAR6 = from_edge_list(7, [(0, v) for v in range(1, 7)], 0)
STAR8 = from_edge_list(9, [(0, v) for v in range(1, 9)], 0)
C12 = cycle_graph(12)
GRID3 = from_edge_list(  # rooted at a corner
    9, [(v, v + 1) for v in range(9) if v % 3 < 2] + [(v, v + 3) for v in range(6)], 0
)
PETERSEN = from_edge_list(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
    0,
)
BINARY_TREE2 = from_edge_list(7, [((v - 1) // 2, v) for v in range(1, 7)], 0)


def test_free_power_spec_fields():
    spec = free_power(K3, 2)
    assert spec.sigma == 2
    assert diameter(spec) == 1
    assert spec.apsp == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    spec = free_power(P3, 3)
    assert spec.sigma == 1
    assert diameter(spec) == 2
    # the distance table and sigma are derived from the base, not stored
    assert FreePowerSpec._fields == ("base", "copies")
    assert spec == FreePowerSpec(P3, 3) and hash(spec) == hash(FreePowerSpec(P3, 3))
    assert spec != free_power(P3, 2)


def test_free_power_rejects_bad_bases():
    with pytest.raises(ValueError):
        free_power(K3, 0)
    from freespec.graphs import from_edge_list

    disconnected = from_edge_list(4, [(0, 1), (2, 3)], 0)
    with pytest.raises(ValueError):
        free_power(disconnected, 2)


def test_word_validation():
    spec = free_power(K3, 2)
    with pytest.raises(UnreducedWordError):
        make_word(spec, [(0, 0)])  # root vertex as a letter
    with pytest.raises(UnreducedWordError):
        make_word(spec, [(0, 1), (0, 2)])  # same copy twice
    with pytest.raises(UnreducedWordError):
        make_word(spec, [(5, 1)])  # copy out of range


def test_word_distance_examples():
    spec = free_power(K3, 2)
    y = make_word(spec, [(1, 2), (0, 1)])
    assert word_distance(spec, (), y) == root_distance(spec, y) == 2
    a = make_word(spec, [(0, 1)])
    b = make_word(spec, [(1, 2)])
    assert word_distance(spec, a, b) == 2
    c = make_word(spec, [(0, 2)])
    assert word_distance(spec, a, c) == 1


def metric_vs_bfs_mismatches(base, copies, radius):
    """Count disagreements between the closed form and in-ball BFS distances.

    Pairs are admissible when max root distance + base diameter <= radius,
    which guarantees geodesics stay inside the ball.
    """
    spec = free_power(base, copies)
    bg = MaterializedBall(spec, radius)
    cutoff = radius - diameter(spec)
    admissible = [i for i, r in enumerate(bg.root_distances) if r <= cutoff]
    mismatches = 0
    for i in admissible:
        dist = bfs_distances(bg.graph, i)
        wi = bg.words[i]
        for j in admissible:
            if word_distance(spec, wi, bg.words[j]) != dist[j]:
                mismatches += 1
    return mismatches


def test_metric_oracle_k3():
    assert metric_vs_bfs_mismatches(K3, 2, 4) == 0


def test_metric_oracle_c4():
    assert metric_vs_bfs_mismatches(C4, 2, 5) == 0


def test_metric_oracle_tree():
    assert metric_vs_bfs_mismatches(K2, 3, 6) == 0


def _random_ball_word(rng, words):
    return words[rng.randrange(len(words))]


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_word_distance_is_a_metric(seed):
    rng = random.Random(seed)
    spec = free_power(C4, 3)
    words = tuple(_word_bfs(spec, (), 4))
    x, y, z = (_random_ball_word(rng, words) for _ in range(3))
    dxy = word_distance(spec, x, y)
    assert dxy == word_distance(spec, y, x)
    assert (dxy == 0) == (x == y)
    assert dxy <= word_distance(spec, x, z) + word_distance(spec, z, y)


def test_ball_sizes():
    assert len(_word_bfs(free_power(K2, 3), (), 2)) == 10
    assert len(_word_bfs(free_power(K3, 2), (), 1)) == 5
    assert len(_word_bfs(free_power(K3, 2), (), 2)) == 13
    assert len(_word_bfs(free_power(K2, 4), (), 2)) == 17


def test_tree_ball_degenerate_cases():
    line = regular_tree_ball(2, 3)
    assert len(line.words) == 7
    assert all(line.graph.degree(v) <= 2 for v in range(7))
    star = regular_tree_ball(3, 1)
    assert star.graph.degree(0) == 3
    assert star.graph.edge_count == 3


def test_ball_degrees():
    # root degree N * sigma; non-root word v.u has degree deg(v) + (N-1) * sigma
    for base, copies in [(K3, 2), (C4, 2), (P3, 3), (K2, 4)]:
        spec = free_power(base, copies)
        bg = MaterializedBall(spec, 4)
        g = bg.graph
        assert g.degree(0) == copies * spec.sigma
        for i, w in enumerate(bg.words):
            if not w or bg.root_distances[i] > bg.radius - 1:
                continue
            _, v = divmod(w[0], base.vertex_count)
            assert g.degree(i) == base.degree(v) + (copies - 1) * spec.sigma


def test_distance_k_neighbors_counts_on_trees():
    for d in range(2, 6):
        spec = free_power(K2, d)
        for k in range(1, 6):
            assert len(distance_k_neighbors(spec, (), k)) == d * (d - 1) ** (k - 1)


def test_distance_k_neighbors_examples():
    spec = free_power(K3, 2)
    assert len(distance_k_neighbors(spec, (), 2)) == 8
    for base, copies in [(K3, 2), (C4, 2), (P3, 2)]:
        s = free_power(base, copies)
        nbrs = distance_k_neighbors(s, (), 1)
        assert len(nbrs) == copies * s.sigma
        assert sorted(nbrs) == sorted(word_neighbors(s, ()))


def test_distance_k_neighbors_against_ball_bfs():
    # words within the safe region must see exactly the BFS distance-k sphere
    # of the materialized ball, from the package's word BFS and from the
    # geodesic rule
    for base, copies, radius, k in [(K3, 2, 5, 2), (C4, 2, 6, 2), (P3, 2, 6, 3), (K2, 3, 6, 2)]:
        spec = free_power(base, copies)
        bg = MaterializedBall(spec, radius)
        cutoff = radius - k - diameter(spec)
        for i, w in enumerate(bg.words):
            if bg.root_distances[i] > cutoff:
                continue
            dist = bfs_distances(bg.graph, i)
            expected = sorted(
                (bg.words[j] for j in range(len(bg.words)) if dist[j] == k),
                key=lambda t: (len(t), t),
            )
            assert list(distance_k_neighbors(spec, w, k)) == expected
            assert list(geodesic_neighbors(spec, w, k)) == expected


def test_geodesic_neighbors_root_distance_bound():
    # the rule's bound must act as a filter on root distance of the
    # package's sphere, and nothing more
    for base, copies, radius in [(K3, 3, 3), (C4, 2, 4), (P3, 3, 4), (P4, 2, 4), (K2, 3, 4)]:
        spec = free_power(base, copies)
        for w, rd in _word_bfs(spec, (), radius).items():
            for k in (1, 2, 3):
                full = distance_k_neighbors(spec, w, k)
                for bound in range(max(rd - k - 1, 0), rd + k + 2):
                    expected = tuple(y for y in full if root_distance(spec, y) <= bound)
                    got = geodesic_neighbors(spec, w, k, max_root_distance=bound)
                    assert got == expected, (w, k, bound)


def test_vacuum_moment_distance_k_trivial():
    for base, copies in [(K3, 2), (C4, 3), (P3, 2)]:
        spec = free_power(base, copies)
        assert vacuum_moments_distance_k(spec, 1, 2)[2] == copies * spec.sigma
        assert vacuum_moments_distance_k(spec, 2, 0) == [1]
        assert vacuum_moments_distance_k(spec, 2, 1)[1] == 0


def test_vacuum_moment_distance_k_examples():
    assert vacuum_moments_distance_k(free_power(K3, 2), 2, 2)[2] == 8
    assert vacuum_moments_distance_k(free_power(K2, 3), 2, 2)[2] == 6


def _brute_moments(spec, k, max_m):
    return [brute_distance_k_walks(spec, k, m) for m in range(max_m + 1)]


def test_walk_engines_agree():
    cases = [(K3, 2, 2, 4), (C4, 2, 2, 3), (P3, 2, 2, 4), (P3, 3, 3, 3)]
    for base, copies, k, max_m in cases:
        spec = free_power(base, copies)
        moments = vacuum_moments_distance_k(spec, k, max_m)
        assert moments == _brute_moments(spec, k, max_m)
    # on K2 bases (regular trees) the types are the word lengths
    for d, k, max_m in [(2, 2, 6), (3, 2, 8), (3, 3, 6), (4, 2, 6), (4, 3, 4), (5, 4, 2)]:
        spec = free_power(K2, d)
        moments = vacuum_moments_distance_k(spec, k, max_m)
        assert moments == layered_distance_k_walks(spec, k, max_m)


def test_pruning_soundness():
    # the walk engines drop words a closed walk cannot reach in time;
    # unpruned enumeration of every closed walk must give the same counts
    for base, copies, k, max_m in [(K3, 2, 2, 4), (C4, 2, 2, 3), (K2, 3, 2, 4)]:
        spec = free_power(base, copies)
        pruned = vacuum_moments_distance_k(spec, k, max_m)
        assert pruned == _brute_moments(spec, k, max_m)


def test_walk_polynomial_matches_layered_oracle():
    # the walk DP over types against the layered DP run on G^{*N} itself
    cases = [(K3, 4), (C4, 4), (C5, 4), (P3, 4), (P4, 4), (K4, 3)]
    for base, top_n in cases:
        for k, max_m in [(1, 5), (2, 5), (3, 4)]:
            for copies in range(1, top_n + 1):
                spec = free_power(base, copies)
                expected = layered_distance_k_walks(spec, k, max_m)
                assert vacuum_moments_distance_k(spec, k, max_m) == expected, (
                    base.vertex_count, k, copies,
                )


def test_root_automorphisms():
    # K_{1,6} at its centre has 720, past the element bound, and K_{1,8}
    # has 8! candidates, past the candidate bound: the identity stands in
    sizes = {
        K3: 2, K4: 6, C4: 2, C5: 2, P3: 1, P4: 1, STAR3: 6, STAR3_LEAF: 2, STAR6: 1,
        STAR8: 1, PETERSEN: 12, GRID3: 2, C12: 2, BINARY_TREE2: 8,
    }
    for base, size in sizes.items():
        group = freeprod._root_automorphisms(base)
        assert len(group) == size == len(set(group))
        n = base.vertex_count
        assert tuple(range(n)) in group
        edges = set(graph_edges(base))
        for h in group:
            assert h[base.root] == base.root
            assert {tuple(sorted((h[u], h[v]))) for u, v in edges} == edges


def _pendant_path_tree():
    """A binary tree whose 32 leaves carry pendant paths of lengths 0..31.

    It has 559 vertices and only the identity automorphism, but sibling
    subtrees differ only below the leaves.
    """
    depth = 5
    n = 2 ** (depth + 1) - 1
    edges = [((v - 1) // 2, v) for v in range(1, n)]
    for length, leaf in enumerate(range(2**depth - 1, 2 ** (depth + 1) - 1)):
        prev = leaf
        for _ in range(length):
            edges.append((prev, n))
            prev, n = n, n + 1
    return from_edge_list(n, edges, 0)


def test_root_automorphisms_bounds_the_search():
    # 31 of the 32 leaves share a class (root distance 5, degree 2), so at
    # least 31! candidates would be tried: the count is past the bound
    # before any is built
    tree = _pendant_path_tree()
    start = time.perf_counter()
    assert freeprod._root_automorphisms(tree) == (tuple(range(tree.vertex_count)),)
    assert time.perf_counter() - start < 10


def test_free_power_is_quick_on_large_bases():
    # rechecking the BFS distances over all n^3 triples took 15 s per
    # free_power on this base; its identity group leaves 558 orbits
    tree = _pendant_path_tree()
    start = time.perf_counter()
    assert free_power(tree, 1).sigma == 2
    assert vacuum_moments_distance_k(free_power(tree, 2), 1, 2) == [1, 0, 4]
    assert time.perf_counter() - start < 5


def test_walk_polynomial_quotient_on_star_bases():
    # root-fixing groups of order 6 and 2, and the identity fallback; the
    # oracle takes 15 s on K_{1,6}^{*3} at k=2, m<=5, so that case stops at 4
    for base in (STAR3, STAR3_LEAF, STAR6):
        for k in (1, 2):
            max_m = 4 if base is STAR6 and k == 2 else 5
            for copies in (1, 2, 3):
                spec = free_power(base, copies)
                expected = layered_distance_k_walks(spec, k, max_m)
                assert vacuum_moments_distance_k(spec, k, max_m) == expected, (
                    base.root, base.vertex_count, k, copies,
                )


# sha256 of the walk tables of a builtin base for every cap from 1 to k*max_m/2
_WALK_TABLE_DIGESTS = {
    ("k3", 1, 6): "7eef5d2b5a7cf97e33dd6c43c1d27b581e5eaa5999fff1659e52cc080949394f",
    ("k3", 2, 5): "8bd01e7368ceca77e7228e2f18043edbf8a0adde768dd9681c758e38f42fd81b",
    ("k3", 3, 4): "7ec5b3398a6f5b0511956e3d3d2b91106ee2855eeb494b422e3c76b7a0ed212b",
    ("k4", 1, 6): "acf6944af756b4fabd67a8d8f7280df6fa8fe4bc7ed414f52317483eeca564b0",
    ("k4", 2, 5): "fc0f7b30a6bee993047bf4ea786e4c7a51ff294e8d8562f8337d1fc483bf060a",
    ("k4", 3, 4): "1cd223f8890cb39271e9b506c5996549aeda89329dbfecb945fcfb9310941572",
    ("c4", 1, 6): "e02016df90e6a70a0876c709cc0f3e10ee714bcfd96af3d3b245887fe6a3985c",
    ("c4", 2, 5): "322647466e03da2877e346b324d2ab77c9999ba1107343980c7638821480c077",
    ("c4", 3, 4): "a53615f470c7fe1814a5ec000b449dfbeaed55606901d8c3a48256cd196b1414",
    ("c5", 1, 6): "8a458655e07ac4f39b857a39373e0dd8041b8b43aae518ef4439f0489aa165c4",
    ("c5", 2, 5): "5581b4e759348e0fb4abdc180b7b829f71f35d9edbefed36b8fc01e623f3d597",
    ("c5", 3, 4): "ab42310b5bf1d7ae6653ea89239834f3be988aca2b57913ae6857dd1e034151c",
    ("p3", 1, 6): "a4fe5abde2f441da1d1104b4262d6264b233474a3b413dd19e1cac7f5d5ce645",
    ("p3", 2, 5): "985a189cb34fd8ef5fa9813f6fb3b2b75402704c029127f41788065f2a3656e6",
    ("p3", 3, 4): "72fc2e56ceeee2523c48609e119e6ee363f3210174f5a3d0540600ef4e16d345",
    ("p4", 1, 6): "d1c57eb21d18a4049317a001891dbd07ede7b3438fa0da207fe792189f7215db",
    ("p4", 2, 5): "97a96f133e24c9b93cca270ead04d0d5b9150fca750f92df80b2d8e8383b01ac",
    ("p4", 3, 4): "ab06aed659b8b90b75dcfcf6166b277e1a22db5027ca3649f43b5b4c11bcbeb3",
}


def test_walk_tables_are_pinned():
    # every coefficient of every cap, where the other tests read the tables
    # only through evaluations at small N and their top coefficient; the
    # digests were taken from the copy-counting DP the type DP replaced
    assert {name for name, _, _ in _WALK_TABLE_DIGESTS} == set(BUILTIN_GRAPHS) - {"k2"}
    for (name, k, max_m), digest in _WALK_TABLE_DIGESTS.items():
        base = builtin_graph(name)
        tables = [
            walk_table(base, k, max_m, cap, Budgets(10**9))
            for cap in range(1, k * max_m // 2 + 1)
        ]
        assert hashlib.sha256(repr(tables).encode()).hexdigest() == digest, (name, k, max_m)


def test_walk_table_at_k1_matches_free_cumulants():
    # at k = 1 the root law of G^{*N} is the N-fold free convolution of G's;
    # the table at m <= 12 has degree at most 6 in N, so its evaluations
    # with falling factorials at N = 1..7 pin every coefficient
    for name in sorted(set(BUILTIN_GRAPHS) - {"k2"}):
        base = builtin_graph(name)
        table = walk_table(base, 1, 12, 6)
        for copies in range(1, 8):
            got = [sum(w * perm(copies, j) for j, w in enumerate(row)) for row in table]
            assert got == free_cumulant_walk_counts(base, copies, 12), (name, copies)


@st.composite
def connected_bases(draw):
    """A connected graph on 3 to 6 vertices, at a random root.

    A random spanning tree (each vertex hangs below an earlier one) plus
    random edges.
    """
    n = draw(st.integers(3, 6))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), unique=True))
    return from_edge_list(n, tree + extra, draw(st.integers(0, n - 1)))


@given(connected_bases(), st.integers(1, 3), st.integers(1, 3))
@example(K4, 2, 3)
@example(C5, 2, 3)
@example(P4, 3, 3)
@settings(max_examples=60, deadline=None)
def test_distance_k_neighbors_are_the_bfs_sphere_on_random_bases(base, copies, k):
    # each word of the 2-ball gets exactly its k-step BFS sphere, from the
    # package and from the geodesic rule, and the rule's root distance bound
    # filters that sphere and does nothing more
    spec = free_power(base, copies)
    for w, rd in _word_bfs(spec, (), 2).items():
        sphere = sorted(bfs_sphere(spec, w, k), key=lambda t: (len(t), t))
        assert list(distance_k_neighbors(spec, w, k)) == sphere, w
        for bound in range(rd - k, rd + k + 1):
            expected = [y for y in sphere if root_distance(spec, y) <= bound]
            got = geodesic_neighbors(spec, w, k, max_root_distance=bound)
            assert list(got) == expected, (w, bound)


@given(connected_bases(), st.integers(1, 3), st.integers(1, 3), st.integers(1, 4))
# bases this small reach neither bound of _root_automorphisms; these two
# pass the automorphism bound (720) and the candidate bound (8!)
@example(STAR6, 2, 2, 4)
@example(STAR8, 2, 1, 4)
@settings(max_examples=300, deadline=None)
def test_walk_quotient_matches_layered_oracle_on_random_bases(base, copies, k, max_m):
    spec = free_power(base, copies)
    assert vacuum_moments_distance_k(spec, k, max_m) == layered_distance_k_walks(spec, k, max_m)


def test_the_words_of_one_type_have_equal_walk_counts():
    # the type DP's premise: the root-fixing automorphisms of G^{*N} map a
    # word onto every word of its type, so the t-step walks from the root,
    # counted word by word on G^{*3} itself, reach all N (N-1)^(L-1) times
    # (product of orbit sizes) words of a type, each as often
    for base in (K4, C4, P4, STAR3_LEAF, PETERSEN):
        n = base.vertex_count
        group = freeprod._root_automorphisms(base)
        rep = [min(h[v] for h in group) for v in range(n)]
        orbit = [rep.count(rep[v]) for v in range(n)]
        spec = free_power(base, 3)
        for k in (1, 2):
            layer = {(): 1}
            for _ in range(3):
                nxt = {}
                for w, count in layer.items():
                    for y in geodesic_neighbors(spec, w, k):
                        nxt[y] = nxt.get(y, 0) + count
                layer = nxt
                types = {}
                for w, count in layer.items():
                    types.setdefault(tuple(rep[letter % n] for letter in w), []).append(count)
                for word_type, counts in types.items():
                    size = 3 * 2 ** (len(word_type) - 1) if word_type else 1
                    for v in word_type:
                        size *= orbit[v]
                    assert len(counts) == size and len(set(counts)) == 1, word_type


@pytest.mark.parametrize(
    "name, k, max_m, copies, charge",
    [
        ("c4", 2, 6, 2, 340), ("c4", 2, 6, 3, 354), ("c4", 2, 6, 4, 354), ("c4", 2, 6, 5, 354),
        ("p3", 3, 5, 2, 461), ("p3", 3, 5, 3, 551), ("p3", 3, 5, 4, 551), ("p3", 3, 5, 5, 551),
    ],
)
def test_walk_layered_cells_fit_their_charge(name, k, max_m, copies, charge):
    # the cells of perfbench's walk-layered workload, each at the walk
    # expansions it charges and at one less: a change to the DP's work moves
    # these counts and says why
    spec = free_power(builtin_graph(name), copies)
    assert vacuum_moments_distance_k(spec, k, max_m, Budgets(charge))
    with pytest.raises(BudgetExceededError) as info:
        vacuum_moments_distance_k(spec, k, max_m, Budgets(charge - 1))
    assert str(info.value) == f"budget exceeded: {charge} walk expansions (budget {charge - 1})"


def test_a_huge_free_power_is_refused_from_its_pool_count():
    # K3^{*10^6} has 2 * 10^6 words at root distance 1: the neighbours of the
    # root are refused from the Moore bound of their ball, before anything
    # N-sized is built
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="ball vertices"):
            distance_k_neighbors(free_power(K3, 10**6), (), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_the_moore_bound_is_charged_radius_by_radius():
    # k3^*2 has largest degree 4: 5 words within radius 1 of a word and 17
    # within 2; the count at the first radius past the limit is named
    spec = free_power(K3, 2)
    freeprod._charge_moore_bound(spec, 2, Budgets(ball_vertices=17))
    for limit, count in ((16, 17), (5, 17), (4, 5), (0, 5)):
        with pytest.raises(BudgetExceededError) as info:
            freeprod._charge_moore_bound(spec, 2, Budgets(ball_vertices=limit))
        assert (info.value.count, info.value.what) == (count, "ball vertices")
    # degree 2 (the line K2^*2) grows by 2 per radius, and degree 1 (K2^*1)
    # stops at 2: a radius of 10^9 costs nothing
    start = time.perf_counter()
    line, edge = free_power(K2, 2), free_power(K2, 1)
    freeprod._charge_moore_bound(line, 5, Budgets(ball_vertices=11))
    freeprod._charge_moore_bound(edge, 10**9, Budgets(ball_vertices=2))
    for spec, limit, count in (
        (line, 10, 11), (line, 11, 13), (line, 10**6, 10**6 + 1), (line, 0, 3), (edge, 1, 2)
    ):
        with pytest.raises(BudgetExceededError) as info:
            freeprod._charge_moore_bound(spec, 10**9, Budgets(ball_vertices=limit))
        assert info.value.count == count, (spec, limit)
    with pytest.raises(BudgetExceededError, match="ball vertices"):
        distance_k_neighbors(free_power(K3, 2), (), 10**9)
    assert time.perf_counter() - start < 1


def test_the_moore_bound_bounds_every_ball():
    # the charge stands for the words the BFS builds: within r of any word
    # of the root's 2-ball lie at most the Moore count at r
    for name in BUILTIN_GRAPHS:
        for copies in (1, 2, 3):
            spec = free_power(builtin_graph(name), copies)
            degree = max(map(len, spec.base.neighbors)) + (copies - 1) * spec.sigma
            for w in _word_bfs(spec, (), 2):
                for r in (1, 2, 3):
                    moore = 1 + degree * sum((degree - 1) ** i for i in range(r))
                    assert len(_word_bfs(spec, w, r)) <= moore, (name, copies, w, r)


def test_walk_budget():
    # the charge grows with N up to N = 3 and stays there: c4, k=2, m<=4
    # charges 13, 109 and 112 walk expansions for N = 1, 2 and >= 3, and
    # k4, whose three non-root vertices are one orbit, 68 at k=2, m<=4; each
    # fits its charge and is refused at one less
    cases = [(C4, 1, 13), (C4, 2, 109), (C4, 3, 112), (C4, 4, 112), (C4, 8, 112), (K4, 4, 68)]
    for base, copies, charge in cases:
        spec = free_power(base, copies)
        assert vacuum_moments_distance_k(spec, 2, 4, Budgets(charge))
        with pytest.raises(BudgetExceededError) as info:
            vacuum_moments_distance_k(spec, 2, 4, Budgets(charge - 1))
        assert info.value.what == "walk expansions"


def test_a_huge_k_is_refused_from_the_pool_letters():
    # the segment pool is charged by its letters, root distance by root
    # distance: on a tree they number 1 + 2 + ... + c, so k = 10^9 is refused
    # near c = 14142, before any row; with N = 1 a segment has one letter,
    # and no root distance past the base is counted
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="walk expansions"):
        vacuum_moments_distance_k(free_power(K2, 3), 10**9, 2)
    assert vacuum_moments_distance_k(free_power(P4, 1), 10**9, 2) == [1, 0, 0]
    assert time.perf_counter() - start < 5


def test_walk_engine_eight_steps_on_k3():
    # 185 walk expansions over the word lengths, the types of k3; the
    # copy-counting DP this replaced took about 2.6e3
    spec = free_power(K3, 2)
    got = vacuum_moments_distance_k(spec, 2, 8, Budgets(185))
    assert got == layered_distance_k_walks(spec, 2, 8)
    assert got == [1, 0, 8, 0, 128, 160, 2976, 8960, 86656]


def _materialized_moment(spec, k, m):
    bg = MaterializedBall(spec, m * k)
    return vacuum_moment(distance_k_graph(bg.graph, k), m)


def test_vacuum_moments_match_materialized_balls_small():
    # base K3 / C4, N = 2, k = 2, m <= 3
    for base in (K3, C4):
        spec = free_power(base, 2)
        moments = vacuum_moments_distance_k(spec, 2, 3)
        for m in range(1, 4):
            assert moments[m] == _materialized_moment(spec, 2, m)


@pytest.mark.slow
def test_vacuum_moments_match_materialized_balls_trees():
    # K2 base, d <= 4, k <= 3, m <= 4, skipping balls of more than 10^6
    # words, 1 + d (1 + (d - 1) + ... + (d - 1)^(r - 1)) at radius r.  One
    # ball per (d, k) at the largest materializable radius m*k; smaller m
    # read off the same graph (walks cannot reach vertices the smaller ball
    # would have dropped, per the prune-bound argument tested above).
    ran = 0
    for d in (2, 3, 4):
        spec = free_power(K2, d)
        for k in (1, 2, 3):
            moments = vacuum_moments_distance_k(spec, k, 4)
            top_m = max(
                m for m in range(1, 5) if 1 + d * sum((d - 1) ** i for i in range(m * k)) <= 10**6
            )
            bg = MaterializedBall(spec, top_m * k)
            dk = distance_k_graph(bg.graph, k)
            for m in range(1, top_m + 1):
                ran += 1
                assert moments[m] == vacuum_moment(dk, m)
    assert ran >= 30


class NotAdjacentError(FreespecError):
    """The two word vertices are not adjacent in the free power."""


def edge_copy_is_top(spec, j, l):
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


def test_edge_copy_is_top():
    spec = free_power(K3, 2)
    j = make_word(spec, [(0, 1)])
    assert edge_copy_is_top(spec, j, ()) is True
    stacked = make_word(spec, [(1, 2), (0, 1)])
    assert edge_copy_is_top(spec, j, stacked) is False
    sideways = make_word(spec, [(0, 2)])
    assert edge_copy_is_top(spec, j, sideways) is True
    with pytest.raises(NotAdjacentError):
        edge_copy_is_top(spec, j, make_word(spec, [(1, 1), (0, 2)]))


def test_decomposition_check_trees():
    for d, k in [(3, 3), (2, 3), (4, 4)]:
        assert decomposition_check(free_power(K2, d), k, k + 2) == 0


def test_decomposition_check_small_bases():
    for base in (K3, C4, P3):
        assert decomposition_check(free_power(base, 2), 3, 5) == 0


def test_decomposition_check_radius_guard():
    spec = free_power(K3, 2)
    with pytest.raises(RadiusTooSmallError):
        decomposition_check(spec, 3, 4)
    with pytest.raises(ValueError):
        decomposition_check(spec, 2, 5)
    # the check builds no ball, so the ball budget does not bound it
    assert decomposition_check(spec, 3, 5, Budgets(ball_vertices=0)) == 0


class _PlantedSpec(FreePowerSpec):
    """A free power whose root degree sigma reads one more than the base's."""

    @property
    def sigma(self):
        return self.base.degree(self.base.root) + 1


@pytest.mark.parametrize("base, copies", [(K3, 2), (C4, 2), (P3, 3), (K2, 3)])
def test_a_wrong_fresh_copy_count_fails_both_checks(base, copies):
    # the fresh-copy count (N - 1) * sigma is what the check tests: with
    # sigma one too many, the package and the pair oracle both see it
    planted = _PlantedSpec(base, copies)
    oracle = pair_decomposition_check(planted, 3, 5)["max_violation"]
    assert decomposition_check(planted, 3, 5) == oracle == copies - 1


def test_a_single_copy_ball_stops_at_the_base():
    # G^{*1} is G: the BFS stops where the base ends, so a radius of 10^8
    # costs what the base's eccentricity does
    assert _word_bfs(free_power(P4, 1), (), 10**8) == {(): 0, (1,): 1, (2,): 2, (3,): 3}
    assert decomposition_check(free_power(K3, 1), 3, 10**8) == 0


def test_ball_is_the_bfs_of_the_root():
    # words within each root distance, with that distance, in BFS order
    for base, copies, radius in [(K3, 2, 5), (C4, 3, 4), (P3, 3, 5), (P4, 2, 5), (K2, 3, 6)]:
        spec = free_power(base, copies)
        rds = _word_bfs(spec, (), radius)
        assert list(rds)[0] == ()
        assert all(r == root_distance(spec, w) for w, r in rds.items())
        assert list(rds.values()) == sorted(rds.values())
        for w, r in rds.items():
            for nb in word_neighbors(spec, w):
                assert (nb in rds) == (root_distance(spec, nb) <= radius)


def test_decomposition_rows_match_the_pair_oracle():
    # the oracle visits every interior pair; the pairs within k+1, each
    # unordered pair once, are pinned
    for base, copies, pairs in [(K3, 2, 643), (C4, 2, 1168), (P3, 2, 144), (K2, 3, 361)]:
        spec = free_power(base, copies)
        oracle = pair_decomposition_check(spec, 3, 5)
        assert decomposition_check(spec, 3, 5) == oracle["max_violation"] == 0
        assert oracle["pairs_within"] == pairs < oracle["pairs"]


_FREE_ORACLE_CASES = [
    (name, copies, radius)
    for name in BUILTIN_GRAPHS
    for copies in (1, 2, 3)
    for radius in (5, 6)
    # k4^*3 at radius 6 takes the oracle about 25 s
    if (name, copies, radius) != ("k4", 3, 6)
]


@pytest.mark.slow
@pytest.mark.parametrize("name, copies, radius", _FREE_ORACLE_CASES)
def test_free_check_matches_the_pair_oracle(name, copies, radius):
    # one row per type against every interior pair of the closed-form
    # metric's loop, k = 3
    spec = free_power(builtin_graph(name), copies)
    oracle = pair_decomposition_check(spec, 3, radius, near=True)
    assert decomposition_check(spec, 3, radius) == oracle["max_violation"] == 0


def _word_type(spec, word):
    """A word's letters' vertices up to the root-fixing automorphisms of the base."""
    group = freeprod._root_automorphisms(spec.base)
    n = spec.base.vertex_count
    return tuple(min(h[letter % n] for h in group) for letter in word)


@pytest.mark.parametrize(
    "spec, k, cutoff, later_only",
    [
        pytest.param(free_power(builtin_graph(name), copies), 3, 4, True, id=f"{name}^*{copies}")
        for name in BUILTIN_GRAPHS
        for copies in (1, 2, 3)
    ]
    + [
        pytest.param(free_power(K2, 3), 3, 4, False, id="tree-d3-k3"),
        pytest.param(free_power(K2, 3), 2, 5, False, id="tree-d3-k2"),
    ],
)
def test_the_words_of_one_type_have_one_row_profile(spec, k, cutoff, later_only):
    # the premise of one row per type, word by word over the interior: the
    # words of one type keep rows of one profile, the multiset of (d(x, y),
    # #hits, #hits no longer than y) over the y kept, whatever the violations
    profiles = {}
    for x in _word_bfs(spec, (), cutoff):
        profile = Counter(
            (dxy, len(hits), sum(len(l) <= len(y) for l in hits))
            for dxy, y, hits in freeprod._check_pairs(spec, [x], k, cutoff, later_only)
        )
        assert profiles.setdefault(_word_type(spec, x), profile) == profile, x
    # and the check reads one word of each of those types, each once
    words = freeprod._check_words(spec, k, cutoff, Budgets())
    assert sorted(_word_type(spec, x) for x in words) == sorted(profiles)


def test_tree_rows_match_the_pair_oracle():
    for d, k, radius in [(3, 2, 6), (2, 3, 8), (4, 3, 7), (3, 3, 7), (4, 2, 6)]:
        assert tree_recurrence_check(d, k, radius) == pair_tree_recurrence_check(d, k, radius)


def _counted_work(monkeypatch, run):
    """Letters of the neighbour words run() lists: a check reads every distance off a BFS row."""
    work = [0]
    neighbors = freeprod.word_neighbors

    def counted_neighbors(spec, word):
        out = neighbors(spec, word)
        work[0] += sum(map(len, out))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(freeprod, "word_neighbors", counted_neighbors)
        run()
    return work[0]


@pytest.mark.parametrize(
    "check, args, spec, cutoff",
    [
        (decomposition_check, (free_power(K3, 2), 3, 5), free_power(K3, 2), 4),
        (decomposition_check, (free_power(C4, 2), 3, 6), free_power(C4, 2), 5),
        (tree_recurrence_check, (3, 2, 6), free_power(K2, 3), 3),
        (tree_recurrence_check, (4, 3, 7), free_power(K2, 4), 3),
        (decomposition_check, (free_power(P4, 1), 3, 9), free_power(P4, 1), 8),
    ],
)
def test_check_rows_are_charged_before_the_first(monkeypatch, check, args, spec, cutoff):
    # D * (1 + D + ... + D^(k+1)) neighbour scans of at most rd + k + 2
    # letters for each type within the cutoff, with D the maximum degree;
    # the types are counted here from the interior's words
    k = args[1]
    degree = max(map(len, spec.base.neighbors)) + (spec.copies - 1) * spec.sigma
    types = {_word_type(spec, w): root_distance(spec, w) for w in _word_bfs(spec, (), cutoff)}
    row = degree * sum(degree**i for i in range(k + 2))
    charge = sum(rd + k + 2 for rd in types.values()) * row
    with pytest.raises(BudgetExceededError) as info:
        check(*args, Budgets(charge - 1))
    assert str(info.value) == (
        f"budget exceeded: {charge} check-row letters (budget {charge - 1})"
    )

    def short():
        with pytest.raises(BudgetExceededError):
            check(*args, Budgets(charge - 1))

    # past the budget no row runs; within it the rows stay within the charge
    assert _counted_work(monkeypatch, short) == 0
    work = _counted_work(monkeypatch, lambda: check(*args, Budgets(charge)))
    assert 0 < work <= charge


def test_tree_recurrence_check():
    assert tree_recurrence_check(3, 2, 6) == 0
    assert tree_recurrence_check(2, 3, 8) == 0
    assert tree_recurrence_check(4, 3, 7) == 0
    with pytest.raises(RadiusTooSmallError):
        tree_recurrence_check(3, 4, 5)


def test_tree_square_identity():
    # A^2 = A^{[2]} + d I on the interior of a tree ball
    d, radius = 3, 6
    bg = regular_tree_ball(d, radius)
    g = bg.graph
    interior = bg.interior_indices(1)
    for i in interior:
        dist = bfs_distances(g, i)
        for j in interior:
            a2 = sum(1 for l in g.neighbors[i] if j in g.neighbors[l])
            expected = (d if i == j else 0) + (1 if dist[j] == 2 else 0)
            assert a2 == expected
