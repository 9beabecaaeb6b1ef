"""Tests for exact polynomial algebra, Jacobi moments, and density bridges."""
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freespec.experiments import chebyshev_reference_moments
from freespec.graphs import bfs_distances
from freespec.polymoments import (
    SEMICIRCLE,
    JacobiParams,
    chebyshev_monic,
    jacobi_moments,
    kesten_mckay_moments,
    kesten_mckay_params,
    km_density,
    km_density_max,
    km_support,
    monic_orthogonal_poly,
    semicircle_density,
    semicircle_moments,
    tree_distance_k_law_moments,
    tree_distance_poly,
)
from oracles import (
    X,
    chebyshev_monic_recursion,
    hankel_positive,
    integrate_poly,
    km_moment_quad,
    poly_add,
    poly_mul,
    pushforward_moments,
    regular_tree_ball,
    semicircle_moment_quad,
    tree_distance_poly_recursion,
    vacuum_moment,
    weighted_path_moment,
)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def scale_arg(p, c):
    """P(c*x) for a rational scale c."""
    c = Fraction(c)
    return poly_add([coef * c**j for j, coef in enumerate(p)], ())


def chebyshev_classical(k):
    """Second-kind Chebyshev family: U0 = 1, U1 = 2x, U(k+1) = 2x*Uk - U(k-1).

    k = -1 returns the zero polynomial by convention.
    """
    if k < -1:
        raise ValueError("k must be >= -1")
    if k == -1:
        return ()
    prev, cur = (1,), (0, 2)
    if k == 0:
        return prev
    for _ in range(k - 1):
        prev, cur = cur, poly_add(poly_mul((0, 2), cur), prev, -1)
    return cur


def tree_poly_chebyshev_identity(d, k):
    """Exact bridge between Q_k and the scaled second-kind Chebyshev form.

    Verifies coefficientwise that
      (d-1)^{k/2} U_k(x / (2 sqrt(d-1))) - (d-1)^{(k-2)/2} U_{k-2}(x / (2 sqrt(d-1)))
    equals Q_k(x).  Both sides are rational because U_j has parity j, so the
    half-integer powers of (d-1) always pair up.
    """
    if d < 2 or k < 1:
        raise ValueError("need d >= 2 and k >= 1")

    def scaled(u, offset):
        out = [Fraction(0)] * len(u)
        for j, c in enumerate(u):
            if c == 0:
                continue
            if (offset - j) % 2:
                raise ValueError("parity violation; U_j should have parity j")
            out[j] = c * Fraction((d - 1) ** ((offset - j) // 2), 2**j)
        return out

    lhs = poly_add(scaled(chebyshev_classical(k), k), scaled(chebyshev_classical(k - 2), k - 2), -1)
    return lhs == tree_distance_poly(d, k)


def scaled_limit_poly(d, k):
    """d^{-k/2} * Q_k(sqrt(d) * x), exactly (Q_k has parity k)."""
    if d < 2:
        raise ValueError("d must be >= 2")
    q = tree_distance_poly(d, k)
    out = [Fraction(0)] * len(q)
    for j, c in enumerate(q):
        if c == 0:
            continue
        if (k - j) % 2:
            raise ValueError("parity violation; Q_k should have parity k")
        out[j] = c / Fraction(d ** ((k - j) // 2))
    return tuple(out)


def test_poly_arithmetic():
    assert poly_mul((1, 2), (1, 1)) == (1, 3, 2)  # (1 + 2x)(1 + x)
    assert poly_mul(poly_mul(X, X), X) == (0, 0, 0, 1)
    assert poly_add((1, 1), (1, 1), -1) == ()
    assert poly_mul((), (1, 1)) == () and poly_add((1,), (), 5) == (1,)
    assert scale_arg((0, 0, 4), Fraction(1, 2)) == (0, 0, 1)


def test_chebyshev_monic():
    assert chebyshev_monic(0) == (1,)
    assert chebyshev_monic(1) == (0, 1)
    assert chebyshev_monic(2) == (-1, 0, 1)
    assert chebyshev_monic(3) == (0, -2, 0, 1)


def test_chebyshev_classical():
    assert chebyshev_classical(-1) == ()
    assert chebyshev_classical(2) == (-1, 0, 4)
    for k in range(9):
        assert scale_arg(chebyshev_classical(k), Fraction(1, 2)) == chebyshev_monic(k)


def test_tree_distance_poly():
    assert tree_distance_poly(3, 2) == (-3, 0, 1)
    for d in (2, 3, 4, 7):
        assert tree_distance_poly(d, 3) == (0, -(2 * d - 1), 0, 1)
        assert tree_distance_poly(d, 0) == (1,)
        assert tree_distance_poly(d, 1) == (0, 1)


def test_orthogonal_poly_recursion_matches_the_hand_written_families():
    for k in range(12):
        assert chebyshev_monic(k) == chebyshev_monic_recursion(k)
        for d in range(2, 9):
            assert tree_distance_poly(d, k) == tree_distance_poly_recursion(d, k)


def test_orthogonal_poly_recursion_at_a_large_k():
    # the package recursion and the hand-written families both run in ints
    assert chebyshev_monic(150) == chebyshev_monic_recursion(150)
    assert tree_distance_poly(1000, 150) == tree_distance_poly_recursion(1000, 150)


def test_polynomials_are_canonical_coefficient_tuples():
    # each coefficient is an int when integral and a Fraction otherwise
    for p in (chebyshev_monic(7), tree_distance_poly(5, 6)):
        assert type(p) is tuple and all(type(c) is int for c in p)
    params = JacobiParams(gamma=(Fraction(1, 2), Fraction(3, 2), Fraction(1, 3)))
    p2 = poly_add(poly_mul(X, X), (1,), -Fraction(1, 2))
    p3 = poly_add(poly_mul(X, p2), X, -Fraction(3, 2))  # x^3 - 2x
    p4 = poly_add(poly_mul(X, p3), p2, -Fraction(1, 3))
    for k, p in enumerate([(1,), X, p2, p3, p4]):
        assert monic_orthogonal_poly(params, k) == p
    assert [type(c) for c in monic_orthogonal_poly(params, 3)] == [int, int, int, int]
    assert [type(c) for c in monic_orthogonal_poly(params, 4)] == [Fraction, int, Fraction, int, int]


def test_orthogonal_poly_argument_checks():
    with pytest.raises(ValueError, match="k must be nonnegative"):
        chebyshev_monic(-1)
    with pytest.raises(ValueError, match="d must be >= 2"):
        tree_distance_poly(1, 2)
    with pytest.raises(ValueError, match="k must be nonnegative"):
        tree_distance_poly(3, -1)


def _tree_poly_rows(d, k, radius):
    """Q_k(A) rows for interior sources of a tree ball, via repeated A-apply."""
    bg = regular_tree_ball(d, radius)
    g = bg.graph
    n = g.vertex_count
    sources = bg.interior_indices(k)
    src = np.array(sources)
    edges_from = np.fromiter(
        (u for u in range(n) for _ in g.neighbors[u]), dtype=np.int64
    )
    edges_to = np.fromiter(
        (v for u in range(n) for v in g.neighbors[u]), dtype=np.int64
    )
    x = np.zeros((n, len(sources)), dtype=np.int64)
    x[src, np.arange(len(sources))] = 1
    coeffs = tree_distance_poly(d, k)
    acc = coeffs[0] * x.copy()
    power = x
    for c in coeffs[1:]:
        nxt = np.zeros_like(power)
        np.add.at(nxt, edges_to, power[edges_from])
        power = nxt
        if c:
            acc += c * power
    return bg, sources, acc


@pytest.mark.slow
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_tree_poly_equals_distance_adjacency(d, k):
    # Q_k(A) rows match the distance-k indicator on interior sources
    bg, sources, rows = _tree_poly_rows(d, k, k + 4)
    g = bg.graph
    for col, i in enumerate(sources):
        dist = bfs_distances(g, i)
        indicator = np.array([1 if dv == k else 0 for dv in dist], dtype=np.int64)
        assert np.array_equal(rows[:, col], indicator)


def test_tree_poly_matrix_identity_small_dense():
    # pure-Python dense-matrix complement of the vectorized row check
    import intmat

    for d, k in [(2, 3), (3, 2)]:
        bg = regular_tree_ball(d, k + 4)
        a = intmat.adjacency_matrix(bg.graph)
        coeffs = tree_distance_poly(d, k)
        q_of_a = intmat.poly_of_matrix(coeffs, a)
        for i in bg.interior_indices(k):
            dist = bfs_distances(bg.graph, i)
            for j in range(len(bg.words)):
                assert q_of_a[i][j] == (1 if dist[j] == k else 0)


def test_tree_law_identity_bridge():
    for d in (2, 3, 4, 7):
        for k in range(1, 7):
            assert tree_poly_chebyshev_identity(d, k)


def test_scaled_limit_poly():
    for d in (2, 5, 100):
        assert scaled_limit_poly(d, 2) == chebyshev_monic(2)
        diff = poly_add(scaled_limit_poly(d, 3), chebyshev_monic(3), -1)
        assert diff == (0, Fraction(1, d))
    # exact worst coefficient deviations (symbolic expansion oracle):
    # k=4: 2/d, k=5: 4/d - 1/d^2, k=6: 9/d - 3/d^2; all O(1/d)
    d = 10**6
    exact_worst = {
        1: Fraction(0),
        2: Fraction(0),
        3: Fraction(1, d),
        4: Fraction(2, d),
        5: Fraction(4, d) - Fraction(1, d * d),
        6: Fraction(9, d) - Fraction(3, d * d),
    }
    for k in range(1, 7):
        diff = poly_add(scaled_limit_poly(d, k), chebyshev_monic(k), -1)
        worst = max((abs(c) for c in diff), default=Fraction(0))
        assert worst == exact_worst[k]
        assert worst <= Fraction(9, d)


def test_jacobi_moments_semicircle_catalan():
    ms = semicircle_moments(16)
    for i, cat in enumerate(CATALAN):
        assert ms[2 * i] == cat
        if 2 * i + 1 <= 16:
            assert ms[2 * i + 1] == 0


def test_jacobi_moments_against_path_enumeration():
    cases = [
        (1,),                    # semicircle
        (3, 2),                  # Kesten-McKay d = 3
        (Fraction(2, 3),),
        (2, Fraction(1, 2), 5),
    ]
    for gamma in cases:
        ms = jacobi_moments(JacobiParams(gamma), 8)
        for m in range(9):
            assert ms[m] == weighted_path_moment(gamma, m)


def test_jacobi_moments_are_a_tuple_of_fractions_from_one():
    # integer and rational arithmetic alike give exact Fractions with m_0 = 1
    for params, p in [
        (SEMICIRCLE, (0, 1)),
        (kesten_mckay_params(3), tree_distance_poly(3, 2)),
        (JacobiParams(gamma=(Fraction(2, 3),)), (1, 0, 2)),
        (JacobiParams(gamma=(Fraction(2, 3),)), (Fraction(1, 2), 1)),
        (SEMICIRCLE, ()),
    ]:
        ms = jacobi_moments(params, 5, p)
        assert type(ms) is tuple and len(ms) == 6 and ms[0] == 1
        assert all(type(m) is Fraction for m in ms)


def test_jacobi_params_validation():
    with pytest.raises(ValueError):
        JacobiParams(gamma=(0,))
    with pytest.raises(ValueError):
        JacobiParams(gamma=())


def test_kesten_mckay_moments_small():
    for d in (2, 3, 4, 5):
        ms = kesten_mckay_moments(d, 4)
        assert ms[2] == d
        assert ms[4] == 2 * d * d - d
        assert ms[1] == 0 and ms[3] == 0
    assert kesten_mckay_moments(2, 4)[4] == 6  # arcsine law


def test_kesten_mckay_moments_match_tree_walks():
    # mu_d moments are closed-walk counts at the root of the d-regular tree
    for d in (2, 3, 4, 5):
        bg = regular_tree_ball(d, 4)
        ms = kesten_mckay_moments(d, 6)
        for m in range(7):
            assert ms[m] == vacuum_moment(bg.graph, m)


def test_moments_match_quadrature():
    sc = semicircle_moments(10)
    for m in range(11):
        assert abs(float(sc[m]) - semicircle_moment_quad(m)) < 1e-10
    # tolerance 1e-8 scaled by magnitude: high moments reach ~1e5, where an
    # f64 quadrature cannot hit 1e-8 absolutely but easily hits it relatively
    for d in (2, 3, 4, 6):
        ms = kesten_mckay_moments(d, 10)
        for m in range(11):
            tol = 1e-8 * max(1.0, abs(float(ms[m])))
            assert abs(float(ms[m]) - km_moment_quad(d, m)) < tol


def test_km_density_values():
    assert km_density(2, 0.0) == pytest.approx(1 / (2 * math.pi), abs=1e-12)
    assert km_density(3, 0.0) == pytest.approx(math.sqrt(8) / (6 * math.pi), abs=1e-12)
    for d in (3, 4, 6):
        edge = km_support(d)
        assert km_density(d, edge) == 0.0
        assert km_density(d, edge + 0.5) == 0.0
        assert km_density(d, -edge) == 0.0


def test_km_density_max_dominates():
    for d in (3, 4, 6, 7, 10):
        peak = km_density_max(d)
        w = km_support(d)
        assert all(
            km_density(d, -w + 2 * w * i / 400) <= peak + 1e-12 for i in range(401)
        )
    with pytest.raises(ValueError):
        km_density_max(2)


def test_semicircle_density():
    assert semicircle_density(0.0) == pytest.approx(1 / math.pi)
    assert semicircle_density(2.0) == 0.0
    assert semicircle_density(-3.0) == 0.0


def test_pushforward_identity():
    base = semicircle_moments(6)
    assert jacobi_moments(SEMICIRCLE, 6, (0, 1)) == base
    assert list(pushforward_moments((0, 1), base, 6)) == list(base)


def test_pushforward_square_minus_one():
    pf = jacobi_moments(SEMICIRCLE, 4, (-1, 0, 1))
    assert list(pf) == [1, 0, 1, 1, 3]
    assert pushforward_moments((-1, 0, 1), semicircle_moments(8), 4) == list(pf)


def test_pushforward_tree_poly():
    pf = jacobi_moments(kesten_mckay_params(3), 2, tree_distance_poly(3, 2))
    assert pf[2] == 6  # d(d-1) distance-2 vertices


def test_pushforward_of_constants():
    # degree 0 and the zero polynomial need only the bottom of the chain
    assert list(jacobi_moments(SEMICIRCLE, 5, (3,))) == [3**m for m in range(6)]
    assert list(jacobi_moments(SEMICIRCLE, 3, ())) == [1, 0, 0, 0]


def test_tree_law_matches_the_pushforward_oracle():
    for d in range(2, 7):
        for k in range(5):
            q = tree_distance_poly_recursion(d, k)
            base = kesten_mckay_moments(d, (len(q) - 1) * 12)
            assert list(tree_distance_k_law_moments(d, k, 12)) == pushforward_moments(
                q, base, 12
            ), (d, k)


def test_chebyshev_law_matches_the_pushforward_oracle():
    for k in range(6):
        p = chebyshev_monic_recursion(k)
        base = semicircle_moments((len(p) - 1) * 10)
        assert list(chebyshev_reference_moments(k, 10)) == pushforward_moments(p, base, 10)


@given(
    st.lists(
        st.fractions(min_value=Fraction(1, 9), max_value=4, max_denominator=9),
        min_size=1, max_size=4,
    ),
    st.lists(st.integers(-3, 3), min_size=1, max_size=4),
    st.integers(0, 4),
)
@example([Fraction(1)], [0, 1], 4)
@example([Fraction(2, 3), 3], [-1, 0, 2], 4)
@settings(max_examples=60, deadline=None)
def test_jacobi_moments_of_a_polynomial_match_the_pushforward(gamma, coeffs, max_m):
    params = JacobiParams(gamma)
    p = tuple(coeffs)  # trailing zeros too
    base = jacobi_moments(params, max(len(p) - 1, 0) * max_m)
    for m in range(min(len(base), 7)):
        assert base[m] == weighted_path_moment(params.gamma, m)
    assert list(jacobi_moments(params, max_m, p)) == pushforward_moments(p, base, max_m)


def test_tree_law_is_quick_at_high_order():
    # the polynomial-power pushforward took 11.6 s here; the chain takes 0.4 s
    started = time.perf_counter()
    law = tree_distance_k_law_moments(3, 2, 600)
    assert time.perf_counter() - started < 5.0
    assert law[2] == 6 and law[1] == 0


def test_orthogonality_chebyshev_semicircle():
    base = semicircle_moments(14)
    for i in range(7):
        for j in range(7):
            pairing = integrate_poly(poly_mul(chebyshev_monic(i), chebyshev_monic(j)), base)
            if i == j:
                assert pairing == 1
            else:
                assert pairing == 0


def test_orthogonality_tree_polys_kesten_mckay():
    for d in (2, 3, 4, 5):
        base = kesten_mckay_moments(d, 14)
        for i in range(7):
            for j in range(7):
                pairing = integrate_poly(
                    poly_mul(tree_distance_poly(d, i), tree_distance_poly(d, j)), base
                )
                if i != j:
                    assert pairing == 0
                elif i == 0:
                    assert pairing == 1
                else:
                    assert pairing == d * (d - 1) ** (i - 1)


def test_chebyshev_mean_and_variance_under_semicircle():
    base = semicircle_moments(14)
    for k in range(1, 7):
        assert integrate_poly(chebyshev_monic(k), base) == 0
        assert integrate_poly(poly_mul(chebyshev_monic(k), chebyshev_monic(k)), base) == 1


def test_hankel_positivity():
    assert hankel_positive(semicircle_moments(12))
    assert hankel_positive(kesten_mckay_moments(3, 12))
    assert hankel_positive(tree_distance_k_law_moments(3, 2, 8))
    assert not hankel_positive([1, 0, -1])  # negative variance
