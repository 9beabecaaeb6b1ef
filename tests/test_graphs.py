"""Tests for the rooted-graph core: builders, BFS, moments, cycles, decomposition."""
import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import intmat
from freespec import graphs
from freespec.errors import (
    BudgetExceededError,
    Budgets,
    GraphFormatError,
    LoopEdgeError,
    RootOutOfRangeError,
    SizeTooSmallError,
    VertexOutOfRangeError,
)
from freespec.graphs import (
    _half_walk_vectors,
    bfs_distances,
    builtin_graph,
    closed_walk_counts,
    complete_graph,
    count_k_cycles,
    cycle_graph,
    decompose_square,
    distance_k_graph,
    from_edge_list,
    parse_graph_text,
    path_graph,
    square_check,
    trace_moments,
)
from freespec.regular import PairingConfig, pairing_model
from oracles import (
    brute_closed_walks,
    brute_count_cycles,
    floyd_warshall,
    format_graph_text,
    graph_edges,
    random_graph,
    trace_moment,
    vacuum_moment,
)


def test_from_edge_list_k3():
    edges = [(0, 1), (1, 2), (0, 2)]
    g = from_edge_list(3, edges, 0)
    assert g == complete_graph(3)
    assert g.edge_count == len(edges)  # no duplicate collapsed


def test_from_edge_list_rejects_loops():
    with pytest.raises(LoopEdgeError):
        from_edge_list(2, [(0, 0)], 0)


def test_from_edge_list_c4():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)], 0)
    assert g == cycle_graph(4)


def test_from_edge_list_validation():
    with pytest.raises(RootOutOfRangeError):
        from_edge_list(3, [(0, 1)], 3)
    with pytest.raises(VertexOutOfRangeError):
        from_edge_list(3, [(0, 5)], 0)


def test_duplicate_edges_collapse_with_flag():
    edges = [(0, 1), (1, 0), (1, 2)]
    g = from_edge_list(3, edges, 0)
    assert g.edge_count < len(edges)  # a duplicate collapsed
    assert g.edge_count == 2


def test_builders():
    assert complete_graph(2).neighbors == ((1,), (0,))
    assert complete_graph(2).degree(0) == 1
    assert all(cycle_graph(4).degree(v) == 2 for v in range(4))
    assert [path_graph(3).degree(v) for v in range(3)] == [1, 2, 1]
    for builder, bad in [(complete_graph, 1), (path_graph, 1), (cycle_graph, 2)]:
        with pytest.raises(SizeTooSmallError):
            builder(bad)


def test_bfs_distances():
    assert bfs_distances(cycle_graph(4), 0) == [0, 1, 2, 1]
    assert bfs_distances(complete_graph(3), 0) == [0, 1, 1]
    assert bfs_distances(path_graph(3), 0) == [0, 1, 2]


def test_bfs_unreachable_flagged():
    g = from_edge_list(4, [(0, 1), (2, 3)], 0)
    assert bfs_distances(g, 0) == [0, 1, None, None]


def test_distance_k_graph_examples():
    dk = distance_k_graph(cycle_graph(4), 2)
    assert set(graph_edges(dk)) == {(0, 2), (1, 3)}
    assert distance_k_graph(complete_graph(3), 2).edge_count == 0
    dk = distance_k_graph(path_graph(4), 2)
    assert set(graph_edges(dk)) == {(0, 2), (1, 3)}


def test_distance_k_graph_matches_floyd_warshall():
    for seed in range(6):
        g = random_graph(9, 0.4, seed=seed)
        dist = floyd_warshall(g)
        for k in (1, 2, 3):
            dk = distance_k_graph(g, k)
            expected = {
                (u, v)
                for u in range(9)
                for v in range(u + 1, 9)
                if dist[u][v] == k
            }
            assert set(graph_edges(dk)) == expected


def test_distance_k_graph_past_the_diameter_is_built_at_once():
    # each BFS stops at its empty frontier, not after k rounds
    start = time.perf_counter()
    dk = distance_k_graph(cycle_graph(50), 10**6)
    assert time.perf_counter() - start < 1
    assert dk.vertex_count == 50 and dk.edge_count == 0


def test_distance_1_graph_is_identity_on_connected():
    for g in [complete_graph(4), cycle_graph(5), path_graph(4)]:
        assert distance_k_graph(g, 1) == g


def test_distance_k_graph_of_a_disconnected_graph_is_built_per_component():
    # the path 0-1-2 and the 4-cycle 3-4-5-6: each row holds its own
    # component's vertices at distance k, and no pair across components
    g = from_edge_list(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 3)], 0)
    assert distance_k_graph(g, 1) == g
    assert distance_k_graph(g, 2).neighbors == ((2,), (), (0,), (5,), (6,), (3,), (4,))
    assert distance_k_graph(g, 3).edge_count == 0


def test_distance_partition_covers_all_pairs():
    # every pair sits at exactly one distance, so edge counts add up
    for g in [complete_graph(5), cycle_graph(7), path_graph(6), random_graph(8, 0.5, 3)]:
        if not g.connected:
            continue
        n = g.vertex_count
        diam = max(d for row in (bfs_distances(g, v) for v in range(n)) for d in row)
        total = sum(distance_k_graph(g, k).edge_count for k in range(1, diam + 1))
        assert total == n * (n - 1) // 2


def test_vacuum_moment_examples():
    assert vacuum_moment(complete_graph(2), 2) == 1
    assert vacuum_moment(complete_graph(3), 3) == 2
    assert vacuum_moment(complete_graph(3), 3) == brute_closed_walks(complete_graph(3), 0, 3)
    for g in [complete_graph(4), cycle_graph(5), path_graph(4)]:
        assert vacuum_moment(g, 1) == 0
        assert vacuum_moment(g, 0) == 1


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_vacuum_moment_matches_dense_matrix_power(seed):
    g = random_graph(3 + seed % 8, 0.5, seed)
    a = intmat.adjacency_matrix(g)
    power = intmat.identity(g.vertex_count)
    for m in range(11):
        assert vacuum_moment(g, m) == power[g.root][g.root]
        power = intmat.mat_mul(power, a)


def test_trace_moment_examples():
    assert trace_moment(complete_graph(3), 2) == 2
    assert trace_moment(cycle_graph(4), 4) == 8  # eigenvalues (2, 0, -2, 0): 32 / 4
    assert trace_moment(cycle_graph(5), 4) == 6
    for g in [complete_graph(4), cycle_graph(5)]:
        assert trace_moment(g, 1) == 0


def test_trace_moment_against_brute_force():
    for g in [cycle_graph(4), path_graph(4), random_graph(7, 0.5, 11)]:
        n = g.vertex_count
        for m in range(6):
            total = sum(brute_closed_walks(g, v, m) for v in range(n))
            assert trace_moments(g, m)[m] == Fraction(total, n)


@st.composite
def small_graphs(draw):
    """Any simple graph on 1 to 9 vertices, rooted at 0."""
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return from_edge_list(n, edges, 0)


@given(small_graphs())
@example(from_edge_list(6, [(0, 1), (0, 2), (0, 3), (3, 4)], 0))  # irregular, 5 isolated
@example(from_edge_list(4, [(1, 2), (2, 3)], 0))  # the root is isolated
@example(from_edge_list(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6)], 0))  # disconnected
@settings(max_examples=40, deadline=None)
def test_trace_moments_match_dense_traces(g):
    # max_m decides how deep the excursions are walked and, past n, how
    # many traces the recurrence adds, so every max_m is checked, each at
    # every m <= max_m
    n = g.vertex_count
    a = intmat.adjacency_matrix(g)
    power = intmat.identity(n)
    traces = []
    for _ in range(13):
        traces.append(Fraction(sum(power[i][i] for i in range(n)), n))
        power = intmat.mat_mul(power, a)
    for max_m in range(13):
        expected = traces[: max_m + 1]
        assert trace_moments(g, max_m) == expected


def test_trace_moments_of_distance_k_graphs_sum_the_closed_walks():
    # closed_walk_counts joins whole half walks at every vertex, while
    # trace_moments counts each closed walk once from its least vertex,
    # with walks and a determinant of its own
    for seed in range(3):
        g = pairing_model(PairingConfig(n=40, d=3, seed=seed))
        for k in (1, 2, 3):
            dk = distance_k_graph(g, k)
            for max_m in range(13):
                rows = [closed_walk_counts(dk, v, max_m) for v in range(dk.vertex_count)]
                sums = [Fraction(sum(col), dk.vertex_count) for col in zip(*rows)]
                assert trace_moments(dk, max_m) == sums


@pytest.mark.parametrize("n", range(2, 21))
def test_trace_moments_count_long_walks_on_complete_graphs(n):
    # K_n has eigenvalues n - 1 once and -1 n - 1 times; past max_m = n
    # every trace comes from the recurrence on det(I - zA), and max_m on
    # either side of n sets how many fields the determinant packs
    expected = [Fraction((n - 1) ** m + (n - 1) * (-1) ** m, n) for m in range(61)]
    for max_m in (0, 1, 2, 3, n - 1, n, n + 1, 60):
        assert trace_moments(complete_graph(n), max_m) == expected[: max_m + 1]


def bipartite_traces(a, b, max_m):
    """(1/n) tr(A^m) of K_{a,b}: its eigenvalues are +-sqrt(ab) and zeros."""
    n = a + b
    return [Fraction(n if m == 0 else 2 * (a * b) ** (m // 2) * (m % 2 == 0), n)
            for m in range(max_m + 1)]


@pytest.mark.parametrize("a, b", [(1, 1), (1, 6), (1, 8), (2, 3), (3, 3), (4, 7), (6, 6)])
def test_packed_determinant_of_complete_bipartite_graphs(a, b):
    # K_{1,b} is a star.  The labels are rotated so that the part of a
    # starts first, in the middle and last: the excursions change with the
    # labels, the traces may not.  Every max_m from 0 to past 2n is read,
    # since d = min(n, max_m) sets the packing
    n = a + b
    for shift in sorted({0, n // 2, n - a}):
        edges = [((u + shift) % n, (a + v + shift) % n) for u in range(a) for v in range(b)]
        g = from_edge_list(n, edges, 0)
        for max_m in range(2 * n + 4):
            assert trace_moments(g, max_m) == bipartite_traces(a, b, max_m)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_packed_determinant_without_edges(n):
    # D = 0: every field is 0 but the constant one
    for max_m in range(n + 4):
        assert trace_moments(from_edge_list(n, [], 0), max_m) == [1] + [0] * max_m


def test_trace_moments_on_the_workload_shape():
    # the distance-2 graph of a 1000-vertex 3-regular pairing at max_m 6:
    # degree 6, so the packed fields are wider than a machine word
    dk = distance_k_graph(pairing_model(PairingConfig(n=1000, d=3, seed=7)), 2)
    n = dk.vertex_count
    degree = max(map(len, dk.neighbors))
    assert degree == 6
    assert max(math.comb(n, m) * degree**m for m in range(7)).bit_length() > 64
    rows = [closed_walk_counts(dk, v, 6) for v in range(n)]
    assert trace_moments(dk, 6) == [Fraction(sum(col), n) for col in zip(*rows)]


@st.composite
def relabelled_graphs(draw):
    """A small graph and a permutation of its vertices."""
    g = draw(small_graphs())
    return g, draw(st.permutations(range(g.vertex_count)))


def relabel(g, perm):
    return from_edge_list(
        g.vertex_count, [(perm[u], perm[v]) for u, v in graph_edges(g)], perm[g.root]
    )


@given(relabelled_graphs())
# a star centred at n - 1 relabelled to one centred at 0
@example((from_edge_list(7, [(v, 6) for v in range(6)], 0), list(range(6, -1, -1))))
# the path 0-6-1-5-2-4-3 relabelled to the path 0-1-2-3-4-5-6
@example((from_edge_list(7, [(0, 6), (6, 1), (1, 5), (5, 2), (2, 4), (4, 3)], 0),
          [0, 2, 4, 6, 5, 3, 1]))
@settings(max_examples=40, deadline=None)
def test_trace_moments_do_not_depend_on_the_labels(case):
    # the excursions from each vertex depend on the labels, the traces must not
    g, perm = case
    h = relabel(g, perm)
    for max_m in range(13):
        assert trace_moments(h, max_m) == trace_moments(g, max_m)


def test_trace_moments_budget():
    # k4 at max_m 4: each vertex is charged 1*3 + 3*3 = 12 expansions
    g = complete_graph(4)
    assert trace_moments(g, 4, Budgets(48)) == trace_moments(g, 4)
    with pytest.raises(BudgetExceededError) as info:
        trace_moments(g, 4, Budgets(47))
    assert (info.value.count, info.value.budget) == (48, 47)
    assert str(info.value) == "budget exceeded: 48 trace-walk expansions (budget 47)"


def test_a_trace_refused_at_its_first_vertex_sizes_no_packing(monkeypatch):
    # C_2000 at max_m 10^6 packs 2001 fields of about 3200 bits: the walks
    # of all n vertices are charged at once, so a budget short of even the
    # first vertex's refuses it before any field width is worked out or
    # any vertex is walked
    monkeypatch.setattr(graphs, "_field_width", None)
    g = cycle_graph(2000)
    per_vertex = graphs._walk_charge(g, 2000)
    with pytest.raises(BudgetExceededError) as info:
        trace_moments(g, 10**6, Budgets(per_vertex - 1))
    assert (info.value.count, info.value.budget) == (2000 * per_vertex, per_vertex - 1)
    assert "_descending_neighbors" not in vars(g)


def test_the_field_width_is_the_largest_binomial_term():
    # the running product gives the bit length of max C(n, m) D^m, m <= d,
    # worked out here from the binomials themselves
    for n in range(0, 41):
        for d in range(n + 1):
            for degree in range(0, 9):
                terms = [math.comb(n, m) * degree**m for m in range(d + 1)]
                assert graphs._field_width(n, d, degree) == 2 + max(terms).bit_length()


def excursion_expansions(g, v, max_m):
    """Neighbour entries trace_moments scans from v: v's own, then those of
    each vertex of x_0..x_(L-1), the walks above v, L = (min(n, max_m) - 1) // 2."""
    level = {u for u in g.neighbors[v] if u > v}
    taken = g.degree(v)
    if level:
        for _ in range((min(g.vertex_count, max_m) - 1) // 2):
            taken += sum(g.degree(w) for w in level)
            level = {u for w in level for u in g.neighbors[w] if u > v}
    return taken


def test_trace_moments_charge_bounds_the_expansions():
    # the charge is an upper bound: a budget one short of the expansions
    # taken refuses, for trace_moments over all vertices and for the whole
    # half walks of closed_walk_counts from one source
    for g in [path_graph(5), cycle_graph(6), random_graph(9, 0.4, 3), complete_graph(5)]:
        n = g.vertex_count
        for max_m in range(1, 13):
            half = (max_m + 1) // 2
            taken = sum(excursion_expansions(g, v, max_m) for v in range(n))
            with pytest.raises(BudgetExceededError):
                trace_moments(g, max_m, Budgets(taken - 1))
            for v in range(n):
                walked = sum(
                    g.degree(u) for vec in _half_walk_vectors(g, v, half)[:half] for u in vec
                )
                with pytest.raises(BudgetExceededError):
                    closed_walk_counts(g, v, max_m, Budgets(walked - 1))


def test_second_moments_are_degrees():
    for seed in range(5):
        g = random_graph(8, 0.45, seed)
        assert vacuum_moment(g, 2) == g.degree(g.root)
        assert trace_moment(g, 2) == Fraction(2 * g.edge_count, g.vertex_count)


def test_count_k_cycles_examples():
    assert count_k_cycles(complete_graph(3), 3) == 1
    assert count_k_cycles(cycle_graph(4), 4) == 1
    assert count_k_cycles(complete_graph(4), 3) == 4


def test_count_k_cycles_against_brute_force():
    for seed in range(8):
        g = random_graph(8, 0.5, seed=100 + seed)
        for j in (3, 4, 5):
            assert count_k_cycles(g, j) == brute_count_cycles(g, j)


def test_count_k_cycles_past_the_recursion_limit():
    # the search holds a path of 1500 vertices, past Python's default
    # recursion limit of 1000
    assert count_k_cycles(cycle_graph(1500), 1500) == 1


def test_count_k_cycles_past_the_vertex_count_is_0_without_a_search():
    # a simple j-cycle has j distinct vertices: no node is charged
    for g in (complete_graph(5), cycle_graph(7)):
        assert count_k_cycles(g, g.vertex_count + 1, Budgets(0)) == 0
        assert count_k_cycles(g, 10**9, Budgets(0)) == 0


def test_count_k_cycles_budget():
    with pytest.raises(BudgetExceededError) as info:
        count_k_cycles(complete_graph(8), 6, Budgets(10))
    assert str(info.value) == "budget exceeded: 11 cycle-enumeration nodes (budget 10)"


def test_decompose_square_identity_on_random_graphs():
    for seed in range(50):
        g = random_graph(4 + seed % 9, 0.5, seed=seed)
        atilde2, dmat, delta = map(intmat.densify, decompose_square(g))
        a = intmat.adjacency_matrix(g)
        lhs = intmat.mat_mul(a, a)
        rhs = intmat.mat_add(intmat.mat_add(atilde2, dmat), delta)
        assert lhs == rhs


def test_decompose_square_on_tree():
    g = path_graph(5)
    atilde2, dmat, delta = map(intmat.densify, decompose_square(g))
    assert all(all(x == 0 for x in row) for row in delta)
    dist = floyd_warshall(g)
    for i in range(5):
        for j in range(5):
            if atilde2[i][j]:
                assert dist[i][j] == 2


def test_decompose_square_k3_c4():
    atilde2, dmat, delta = map(intmat.densify, decompose_square(complete_graph(3)))
    assert dmat == [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
    assert delta == intmat.adjacency_matrix(complete_graph(3))
    assert all(all(x == 0 for x in row) for row in atilde2)

    atilde2, dmat, delta = map(intmat.densify, decompose_square(cycle_graph(4)))
    assert dmat == [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]
    assert all(all(x == 0 for x in row) for row in delta)
    for i in range(4):
        for j in range(4):
            assert atilde2[i][j] == (2 if (i - j) % 4 == 2 else 0)


def test_square_check_reads_the_gap_to_the_split(monkeypatch):
    # an entry added to the split, and a diagonal dropped from it, show as gaps
    assert square_check(from_edge_list(3, [(0, 1)], 0)) == 0  # an isolated vertex
    g = cycle_graph(5)
    assert square_check(g) == 0
    atilde2, dmat, delta = decompose_square(g)
    atilde2[0][2] += 3
    monkeypatch.setattr(graphs, "decompose_square", lambda _: (atilde2, dmat, delta))
    assert square_check(g) == 3
    atilde2[0][2] -= 3
    dmat[4] = {}
    assert square_check(g) == 2


def test_square_split_is_sparse():
    # a 3-regular graph on 5000 vertices: every row of the split holds at
    # most 1 + 3 * 2 entries, and the check builds no n x n matrix
    g = pairing_model(PairingConfig(n=5000, d=3, seed=1))
    assert all(sum(map(len, parts)) <= 7 for parts in zip(*decompose_square(g)))
    assert square_check(g) == 0


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_entrywise_order_implies_moment_order(seed):
    # removing edges can only lower root walk counts (entrywise matrix order)
    import random as _random

    rng = _random.Random(seed)
    g = random_graph(8, 0.6, seed)
    edges = graph_edges(g)
    if not edges:
        return
    kept = [e for e in edges if rng.random() < 0.6]
    sub = from_edge_list(8, kept, 0)
    for m in range(0, 9, 2):
        assert vacuum_moment(sub, m) <= vacuum_moment(g, m)


def test_graph_text_round_trip():
    for name in ("k2", "k3", "k4", "c4", "c5", "p3", "p4"):
        g = builtin_graph(name)
        assert parse_graph_text(format_graph_text(g)) == g


def test_graph_text_comments_and_errors():
    g = parse_graph_text("# a triangle\n3 0\n0 1\n1 2\n# done\n0 2\n")
    assert g == complete_graph(3)
    with pytest.raises(GraphFormatError):
        parse_graph_text("")
    with pytest.raises(GraphFormatError):
        parse_graph_text("3\n0 1\n")
    with pytest.raises(GraphFormatError):
        parse_graph_text("3 0\n0 1 2\n")
