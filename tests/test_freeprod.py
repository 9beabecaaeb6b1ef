"""Tests for free powers: word metric, balls, neighbor enumeration, walk engines.

The metric-vs-BFS oracle tests are the blocking gate for this module: the
closed-form word distance must match in-ball BFS exactly wherever geodesics
are guaranteed to stay inside the ball.
"""
import gc
import random
import time
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freespec.errors import (
    BudgetExceededError,
    FreespecError,
    RadiusTooSmallError,
    UnreducedWordError,
)
from freespec import freeprod
from freespec.freeprod import (
    FreePowerSpec,
    ball,
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
    brute_distance_k_walks,
    diameter,
    graph_edges,
    layered_distance_k_walks,
    make_word,
    pair_decomposition_check,
    pair_tree_recurrence_check,
    regular_tree_ball,
    root_distance,
    vacuum_moment,
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
    words = tuple(ball(spec, 4))
    x, y, z = (_random_ball_word(rng, words) for _ in range(3))
    dxy = word_distance(spec, x, y)
    assert dxy == word_distance(spec, y, x)
    assert (dxy == 0) == (x == y)
    assert dxy <= word_distance(spec, x, z) + word_distance(spec, z, y)


def test_ball_sizes():
    assert len(ball(free_power(K2, 3), 2)) == 10
    assert len(ball(free_power(K3, 2), 1)) == 5
    assert len(ball(free_power(K3, 2), 2)) == 13
    assert len(ball(free_power(K2, 4), 2)) == 17


def test_tree_ball_degenerate_cases():
    line = regular_tree_ball(2, 3)
    assert len(line.words) == 7
    assert all(line.graph.degree(v) <= 2 for v in range(7))
    star = regular_tree_ball(3, 1)
    assert star.graph.degree(0) == 3
    assert star.graph.edge_count == 3


def test_ball_budget():
    # 766 words fit K2^{*3} at radius 8; the ball is charged from its count,
    # and the error names the count at the first radius past the budget
    spec = free_power(K2, 3)
    assert len(ball(spec, 8, max_vertices=766)) == 766
    for budget, count in ((50, 94), (765, 766)):
        with pytest.raises(BudgetExceededError) as info:
            ball(spec, 8, max_vertices=budget)
        assert str(info.value) == f"budget exceeded: {count} ball vertices (budget {budget})"


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
    for base, copies, radius, k in [(K3, 2, 5, 2), (C4, 2, 6, 2), (P3, 2, 6, 3), (K2, 3, 6, 2)]:
        spec = free_power(base, copies)
        bg = MaterializedBall(spec, radius)
        cutoff = radius - k - diameter(spec)
        for i, w in enumerate(bg.words):
            if bg.root_distances[i] > cutoff:
                continue
            dist = bfs_distances(bg.graph, i, depth_cap=k)
            expected = sorted(
                (bg.words[j] for j in range(len(bg.words)) if dist[j] == k),
                key=lambda t: (len(t), t),
            )
            assert list(distance_k_neighbors(spec, w, k)) == expected


def test_distance_k_neighbors_root_distance_bound():
    # the bound must act as a filter on root distance, and nothing more
    for base, copies, radius in [(K3, 3, 3), (C4, 2, 4), (P3, 3, 4), (P4, 2, 4), (K2, 3, 4)]:
        spec = free_power(base, copies)
        for w, rd in ball(spec, radius).items():
            for k in (1, 2, 3):
                full = distance_k_neighbors(spec, w, k)
                for bound in range(max(rd - k - 1, 0), rd + k + 2):
                    expected = tuple(y for y in full if root_distance(spec, y) <= bound)
                    got = distance_k_neighbors(spec, w, k, max_root_distance=bound)
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
    # K2 bases take the radial engine; the layered oracle must agree with it
    for d, k, max_m in [(2, 2, 6), (3, 2, 8), (3, 3, 6), (4, 2, 6), (4, 3, 4), (5, 4, 2)]:
        spec = free_power(K2, d)
        radial = vacuum_moments_distance_k(spec, k, max_m)
        assert radial == layered_distance_k_walks(spec, k, max_m)


def test_pruning_soundness():
    # the walk engines drop words a closed walk cannot reach in time;
    # unpruned enumeration of every closed walk must give the same counts
    for base, copies, k, max_m in [(K3, 2, 2, 4), (C4, 2, 2, 3), (K2, 3, 2, 4)]:
        spec = free_power(base, copies)
        pruned = vacuum_moments_distance_k(spec, k, max_m)
        assert pruned == _brute_moments(spec, k, max_m)


def test_walk_polynomial_matches_layered_oracle():
    # the walk DP over min(N, k*max_m/2) copies, evaluated at N, against
    # the layered DP run on G^{*N} itself
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
    # K_{1,6} at its centre has 720, past the bound: the identity stands in
    sizes = {K3: 2, K4: 6, C4: 2, C5: 2, P3: 1, P4: 1, STAR3: 6, STAR3_LEAF: 2, STAR6: 1}
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
    # an unbounded search tries every combination of the 31 sibling swaps
    tree = _pendant_path_tree()
    start = time.perf_counter()
    assert freeprod._root_automorphisms(tree) == (tuple(range(tree.vertex_count)),)
    assert time.perf_counter() - start < 10


def test_free_power_is_quick_on_large_bases():
    # rechecking the BFS distances over all n^3 triples took 15 s per
    # free_power on this base, paid again for every copy count a walk tracks
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


def test_walk_charge_is_orbit_weighted():
    # k4, k=2, m<=4 at N >= 4 charged 1719 expansions before the quotient;
    # each orbit representative is charged for every word of its orbit
    spec = free_power(K4, 4)
    assert vacuum_moments_distance_k(spec, 2, 4, budget=1719)
    with pytest.raises(BudgetExceededError):
        vacuum_moments_distance_k(spec, 2, 4, budget=1718)


def test_segment_pool_budget():
    # k4^*5 at bound 5 holds 339k words: the pool is refused from its count,
    # which names the words within the first radius past the budget
    with pytest.raises(BudgetExceededError) as err:
        freeprod._segment_pool(free_power(K4, 5), 5, 1000)
    assert (err.value.count, err.value.what) == (2355, "segment-pool words")
    # the walk DP checks its pools first: k3^*2 at bound 2 holds 12 words
    with pytest.raises(BudgetExceededError) as err:
        vacuum_moments_distance_k(free_power(K3, 2), 2, 4, budget=10)
    assert err.value.what == "segment-pool words"
    # the pool kept on a spec is held to the budget too
    spec = free_power(K3, 2)
    freeprod._segment_pool(spec, 2)
    with pytest.raises(BudgetExceededError):
        freeprod._segment_pool(spec, 2, 11)
    assert freeprod._segment_pool(spec, 2, 12)


def test_a_refused_pool_builds_nothing():
    # k4^*5 at bound 5 is refused from its count, before any of its 339k
    # words (about 140 bytes each) is built
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="segment-pool words"):
            freeprod._segment_pool(free_power(K4, 5), 5, 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_segment_pool_cache_is_bounded():
    # pools are kept on their spec alone, so what is cached is bounded by the
    # specs still alive: dropping them frees every pool
    refs = []
    for copies in range(2, 6):
        spec = free_power(K3, copies)
        pool = freeprod._segment_pool(spec, 2)
        assert freeprod._segment_pool(spec, 2) is pool
        assert spec._pool_cache[2] is pool
        refs.append(weakref.ref(spec))
        del spec, pool
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_walk_dp_pools_do_not_outlive_it(monkeypatch):
    # the pools live on the specs the DP builds, which it drops on return
    spec = free_power(K4, 3)
    expected = layered_distance_k_walks(spec, 2, 4)
    specs = []
    inner = freeprod.free_power

    def tracked(base, copies):
        spec = inner(base, copies)
        specs.append(weakref.ref(spec))
        return spec

    monkeypatch.setattr(freeprod, "free_power", tracked)
    monkeypatch.setattr(freeprod, "_walk_tables", {})
    assert vacuum_moments_distance_k(spec, 2, 4) == expected
    gc.collect()
    assert len(specs) > 1 and all(ref() is None for ref in specs)


def test_walk_dp_keeps_its_pools(monkeypatch):
    # k3, k=1, m<=4 at N=2 interleaves words of 1 and 2 copies, whose
    # neighbors come from the pools of k3^*1 and k3^*2: each is built once
    spec = free_power(K3, 2)
    expected = layered_distance_k_walks(spec, 1, 4)
    builds = []
    inner = freeprod._segment_pool

    def counted(spec, bound, budget=None):
        if bound not in spec._pool_cache:
            builds.append(spec.copies)
        return inner(spec, bound, budget)

    monkeypatch.setattr(freeprod, "_segment_pool", counted)
    monkeypatch.setattr(freeprod, "_walk_tables", {})
    assert vacuum_moments_distance_k(spec, 1, 4) == expected
    assert sorted(builds) == [1, 2]


def test_walk_budget():
    with pytest.raises(BudgetExceededError):
        vacuum_moments_distance_k(free_power(K3, 4), 2, 6, budget=100)
    # the charge grows with N up to k*max_m/2 copies and stays there
    # (c4, k=2, m<=4 charges 4, 125, 286 and 410 for N = 1, 2, 3, >= 4)
    for copies, fits in ((1, True), (2, True), (3, False), (4, False), (8, False)):
        spec = free_power(C4, copies)
        if fits:
            assert vacuum_moments_distance_k(spec, 2, 4, budget=200)
        else:
            with pytest.raises(BudgetExceededError):
                vacuum_moments_distance_k(spec, 2, 4, budget=200)
        assert vacuum_moments_distance_k(spec, 2, 4, budget=10**4)


def test_walk_engine_small_n_pays_for_its_own_copies():
    # N = 2 tracks two copies, not k*max_m/2 = 8: about 2.6e3 expansions,
    # where tracking five copies already takes 5.9e5
    spec = free_power(K3, 2)
    got = vacuum_moments_distance_k(spec, 2, 8, budget=10**4)
    assert got == layered_distance_k_walks(spec, 2, 8)
    assert got == [1, 0, 8, 0, 128, 160, 2976, 8960, 86656]


def _materialized_moment(spec, k, m, max_vertices):
    bg = MaterializedBall(spec, m * k, max_vertices)
    return vacuum_moment(distance_k_graph(bg.graph, k), m)


def test_vacuum_moments_match_materialized_balls_small():
    # base K3 / C4, N = 2, k = 2, m <= 3
    for base in (K3, C4):
        spec = free_power(base, 2)
        moments = vacuum_moments_distance_k(spec, 2, 3)
        for m in range(1, 4):
            assert moments[m] == _materialized_moment(spec, 2, m, 10**6)


@pytest.mark.slow
def test_vacuum_moments_match_materialized_balls_trees():
    # K2 base, d <= 4, k <= 3, m <= 4, skipping balls beyond the vertex budget.
    # One ball per (d, k) at the largest materializable radius m*k; smaller m
    # read off the same graph (walks cannot reach vertices the smaller ball
    # would have dropped, per the prune-bound argument tested above).
    budget = 10**6
    ran = 0
    for d in (2, 3, 4):
        spec = free_power(K2, d)
        for k in (1, 2, 3):
            moments = vacuum_moments_distance_k(spec, k, 4)
            top_m = None
            for m in range(4, 0, -1):
                try:
                    bg = MaterializedBall(spec, m * k, budget)
                except BudgetExceededError:
                    continue  # not small enough to materialize
                top_m = m
                break
            assert top_m is not None
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
        spec = free_power(K2, d)
        report = decomposition_check(spec, k, k + 2)
        assert report.max_violation == 0
        assert report.d_entries_nonzero == 0
        assert report.delta_entries_nonzero == 0


def test_decomposition_check_small_bases():
    for base in (K3, C4, P3):
        spec = free_power(base, 2)
        report = decomposition_check(spec, 3, 5)
        assert report.max_violation == 0
        assert report.pairs_checked > 100


def test_decomposition_check_radius_guard():
    spec = free_power(K3, 2)
    with pytest.raises(RadiusTooSmallError):
        decomposition_check(spec, 3, 4)
    with pytest.raises(ValueError):
        decomposition_check(spec, 2, 5)
    # the radius-ball is charged from its count, which passes 10 at radius 2
    with pytest.raises(BudgetExceededError, match="^budget exceeded: 13 ball vertices"):
        decomposition_check(spec, 3, 5, max_vertices=10)


def test_ball_counts_are_the_ball_sizes():
    # the closed form, on every builtin base, against the BFS it stands for
    for name in BUILTIN_GRAPHS:
        for copies, radius in [(1, 5), (2, 6), (3, 5), (5, 4)]:
            spec = free_power(builtin_graph(name), copies)
            counts = [len(ball(spec, r)) for r in range(radius + 1)]
            assert [freeprod._ball_size(spec, r, 10**9) for r in range(radius + 1)] == counts
            # the segment pool is that ball, by root distance, with bottom copies
            pools = freeprod._segment_pool(spec, radius)
            words = [w for pool in pools for w, _ in pool]
            assert len(set(words)) == len(words) == counts[-1]
            n = spec.base.vertex_count
            for c, pool in enumerate(pools):
                for w, bottom in pool:
                    validate_word(spec, w)
                    assert root_distance(spec, w) == c
                    assert bottom == (w[-1] // n if w else -1)
            # it names the count at the first radius past its budget
            budget = counts[-2] - 1
            first = next(count for count in counts if count > budget)
            with pytest.raises(BudgetExceededError, match=f"^budget exceeded: {first} ball"):
                freeprod._ball_size(spec, radius, budget)


def test_a_single_copy_ball_stops_at_the_base():
    # G^{*1} is G: the count and the BFS stop where the base ends, so a
    # radius of 10^8 costs what the base's eccentricity does
    spec = free_power(P4, 1)
    assert freeprod._ball_size(spec, 10**8, 4) == len(ball(spec, 10**8, 4)) == 4
    assert decomposition_check(free_power(K3, 1), 3, 10**8).max_violation == 0


def test_ball_is_the_bfs_of_the_root():
    # words within each root distance, with that distance, in BFS order
    for base, copies, radius in [(K3, 2, 5), (C4, 3, 4), (P3, 3, 5), (P4, 2, 5), (K2, 3, 6)]:
        spec = free_power(base, copies)
        rds = ball(spec, radius)
        assert list(rds)[0] == ()
        assert all(r == root_distance(spec, w) for w, r in rds.items())
        assert list(rds.values()) == sorted(rds.values())
        for w, r in rds.items():
            for nb in word_neighbors(spec, w):
                assert (nb in rds) == (root_distance(spec, nb) <= radius)


def test_decomposition_rows_match_the_pair_oracle():
    # rows visit exactly the oracle's pairs within k+1, and agree on the rest
    for base, copies, pairs in [(K3, 2, 643), (C4, 2, 1168), (P3, 2, 144), (K2, 3, None)]:
        spec = free_power(base, copies)
        report = decomposition_check(spec, 3, 5)
        oracle = pair_decomposition_check(spec, 3, 5)
        assert report.max_violation == oracle["max_violation"] == 0
        assert report.d_entries_nonzero == oracle["d_nonzero"]
        assert report.delta_entries_nonzero == oracle["delta_nonzero"]
        assert report.pairs_checked == oracle["pairs_within"] < oracle["pairs"]
        assert pairs is None or report.pairs_checked == pairs


_FREE_ORACLE_CASES = [
    (name, copies, radius)
    for name in BUILTIN_GRAPHS
    if name != "k2"
    for copies in (2, 3)
    for radius in (5, 6)
    # k4^*3 at radius 6 takes about a minute for the check and the oracle
    if (name, copies, radius) != ("k4", 3, 6)
]


@pytest.mark.slow
@pytest.mark.parametrize("name, copies, radius", _FREE_ORACLE_CASES)
def test_free_check_matches_the_pair_oracle(name, copies, radius):
    # all four fields against the closed-form metric's loop, k = 3
    spec = free_power(builtin_graph(name), copies)
    # k4^*3 at radius 5 charges 154,912,428 row scans, past the default budget
    report = decomposition_check(spec, 3, radius, budget=2 * 10**8)
    oracle = pair_decomposition_check(spec, 3, radius, near=True)
    assert report == freeprod.DecompositionReport(
        oracle["max_violation"], oracle["pairs_within"],
        oracle["d_nonzero"], oracle["delta_nonzero"],
    )
    assert report.max_violation == 0


def test_tree_rows_match_the_pair_oracle():
    for d, k, radius in [(3, 2, 6), (2, 3, 8), (4, 3, 7), (3, 3, 7), (4, 2, 6)]:
        assert tree_recurrence_check(d, k, radius) == pair_tree_recurrence_check(d, k, radius)


def _counted_work(monkeypatch, run):
    """Neighbour words listed by run(): every distance a check reads is a BFS row."""
    work = [0]
    neighbors = freeprod.word_neighbors

    def counted_neighbors(spec, word):
        out = neighbors(spec, word)
        work[0] += len(out)
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
    ],
)
def test_check_rows_are_charged_before_the_first(monkeypatch, check, args, spec, cutoff):
    # interior words x (1 + D + ... + D^(k+1)) x D, with D the maximum degree
    k = args[1]
    degree = max(map(len, spec.base.neighbors)) + (spec.copies - 1) * spec.sigma
    charge = len(ball(spec, cutoff)) * sum(degree**i for i in range(k + 2)) * degree
    ball_work = _counted_work(monkeypatch, lambda: ball(spec, cutoff))
    with pytest.raises(BudgetExceededError) as info:
        check(*args, budget=0)
    assert str(info.value) == f"budget exceeded: {charge} check-row neighbour scans (budget 0)"

    def short():
        with pytest.raises(BudgetExceededError):
            check(*args, budget=charge - 1)

    # past the budget nothing runs, not even the ball; within it only the
    # interior's ball is built
    assert _counted_work(monkeypatch, short) == 0
    work = _counted_work(monkeypatch, lambda: check(*args, budget=charge))
    assert 0 < work - ball_work <= charge


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
        dist = bfs_distances(g, i, depth_cap=2)
        for j in interior:
            a2 = sum(1 for l in g.neighbors[i] if j in g.neighbors[l])
            expected = (d if i == j else 0) + (1 if dist[j] == 2 else 0)
            assert a2 == expected
