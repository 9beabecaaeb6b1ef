"""Tests for the experiment harness: references, normalization, sampling."""
import math
from fractions import Fraction

import pytest

from freespec import experiments
from freespec.experiments import (
    chebyshev_reference_moments,
    free_clt_experiment,
    normalized_value,
    pushforward_histogram,
    sample_law,
    tree_check_experiment,
)
from freespec.freeprod import free_power, vacuum_moments_distance_k
from freespec.graphs import (
    BUILTIN_GRAPHS,
    builtin_graph,
    complete_graph,
    cycle_graph,
    path_graph,
)
from freespec.polymoments import km_support
from freespec.reports import Budgets, ExactScaled, render_csv, render_json
from oracles import (
    exact_less,
    layered_distance_k_walks,
    report_row,
    signed_square,
    walk_table,
)

K2 = complete_graph(2)
K3 = complete_graph(3)
C4 = cycle_graph(4)
K4 = complete_graph(4)
P3 = path_graph(3)


def test_normalized_value():
    v = normalized_value(7, 8, 2)
    assert v == ExactScaled(Fraction(7, 8))
    v = normalized_value(2, 8, 3)  # (2/8)/sqrt(8), whose square is 1/128
    assert (v.rational, v.square) == (None, Fraction(1, 128))
    assert v == ExactScaled(Fraction(1, 8), 2)
    assert v.to_float() == pytest.approx(2 / 8**1.5)


def test_exact_scaled_comparisons():
    # 2/sqrt(8) ~ 0.7071 vs 3/4: cross-multiplied square compare
    a, b = (Fraction(2), 8), (Fraction(3, 4), 1)
    assert exact_less(a, b) and not exact_less(b, a)
    assert exact_less((Fraction(-1), 2), (Fraction(1, 10), 1))
    # the stored signed square orders values as the oracle orders their inputs
    inputs = [a, b, (Fraction(-1), 2), (Fraction(1, 10), 1), (Fraction(-3), 12),
              (Fraction(1, 2), 4), (Fraction(0), 5), (Fraction(-7, 9), 1)]
    for x in inputs:
        for y in inputs:
            engine = signed_square(ExactScaled(*x)) < signed_square(ExactScaled(*y))
            assert engine == exact_less(x, y), (x, y)
    assert ExactScaled(Fraction(1, 2), 4) == ExactScaled(Fraction(1, 4))


def test_tree_check_rows_exact():
    rep = tree_check_experiment(3, 2, 4)
    assert report_row(rep, 3, 2).value == ExactScaled(Fraction(6))
    assert report_row(rep, 3, 0).value == ExactScaled(Fraction(1))
    assert all(r.abs_err == 0 for r in rep.rows)
    rep = tree_check_experiment(2, 3, 4)
    assert report_row(rep, 2, 2).value == ExactScaled(Fraction(2))
    assert all(r.abs_err == 0 for r in rep.rows)


def test_chebyshev_reference_moments():
    refs = chebyshev_reference_moments(2, 4)
    assert list(refs) == [1, 0, 1, 1, 3]
    refs = chebyshev_reference_moments(1, 4)
    assert list(refs) == [1, 0, 1, 0, 2]


def test_free_clt_k3_closed_form():
    rep = free_clt_experiment(K3, "k3", 2, (2, 4, 8), 2)
    for n, want in [(2, Fraction(1, 2)), (4, Fraction(3, 4)), (8, Fraction(7, 8))]:
        row = report_row(rep, n, 2)
        assert row.value == ExactScaled(want)
        assert row.reference == ExactScaled(Fraction(1))
        assert row.abs_err == ExactScaled(Fraction(1, n))


def test_free_clt_k1_m2_is_exact():
    for base, name in [(K3, "k3"), (C4, "c4"), (P3, "p3")]:
        rep = free_clt_experiment(base, name, 1, (2, 3), 2)
        for n in (2, 3):
            assert report_row(rep, n, 2).value == ExactScaled(Fraction(1))
            assert report_row(rep, n, 2).abs_err == 0


def test_free_clt_budget_skips_cells():
    rep = free_clt_experiment(K3, "k3", 2, (2, 4), 4, budgets=Budgets(walk_expansions=10))
    assert all(r.skipped for r in rep.rows)
    csv = render_csv(rep)
    assert ",,,," in csv  # empty value columns for skipped cells


def test_free_clt_builds_surds_without_factoring():
    # an odd k*m row divides by sqrt(N * sigma), kept as its signed square:
    # nothing is factored or charged beyond the walk (which fits in 15 here)
    n = 10**6 + 3
    rep = free_clt_experiment(K4, "k4", 1, (n,), 3, Budgets(walk_expansions=98))
    assert not any(row.skipped for row in rep.rows)
    value = report_row(rep, n, 3).value
    assert (value.rational, value.square) == (None, Fraction(4, 3 * n))
    assert value == ExactScaled(Fraction(2), 3 * n)
    assert report_row(rep, n, 3).abs_err == value


def test_free_clt_surds_of_large_primes():
    # N = 10^30 + 57 is prime: the canonical form factors nothing, so no
    # row waits on N * sigma's prime factors or is skipped for them
    n = 10**30 + 57
    rep = free_clt_experiment(K4, "k4", 1, (n,), 7)
    assert not any(row.skipped for row in rep.rows)
    assert render_csv(rep).splitlines()[-1].split(",")[6] == "2.4248711306e-14"
    # N = 2^61 - 1: the cells as rendered from the squarefree-root form
    n = 2**61 - 1
    assert render_csv(free_clt_experiment(K4, "k4", 1, (n,), 7)).splitlines()[1:] == [
        f"free-clt,k4,N,{n},1,{cells}" for cells in (
            "0,1,1,0,0",
            "1,0,0,0,",
            "2,1,1,0,0",
            "3,7.60421697914e-10,0,7.60421697914e-10,",
            "4,2,2,1.44560289665e-19,7.22801448324e-20",
            "5,3.80210848957e-09,0,3.80210848957e-09,",
            "6,5,5,2.60208521397e-18,5.20417042793e-19",
            "7,1.59688556562e-08,0,1.59688556562e-08,",
        )
    ]


def test_large_d_errors():
    # large-d is the free CLT of K2, whose free power K2^{*d} is the d-regular tree
    rep = free_clt_experiment(K2, "tree", 2, (3, 50), 6)
    assert report_row(rep, 3, 2).abs_err == ExactScaled(Fraction(1, 3))
    assert report_row(rep, 50, 2).abs_err == ExactScaled(Fraction(1, 50))
    rep1 = free_clt_experiment(K2, "tree", 1, (3, 50), 4)
    for d in (3, 50):
        assert report_row(rep1, d, 2).value == ExactScaled(Fraction(1))
        assert report_row(rep1, d, 2).abs_err == 0
    rep3 = free_clt_experiment(K2, "tree", 3, (3,), 2)
    assert report_row(rep3, 3, 2).value == ExactScaled(Fraction(3 * 2 * 2, 27))


def test_reports_deterministic():
    rep1 = tree_check_experiment(3, 2, 6)
    rep2 = tree_check_experiment(3, 2, 6)
    assert render_csv(rep1) == render_csv(rep2)
    assert render_json(rep1) == render_json(rep2)


def test_csv_layout():
    csv = render_csv(tree_check_experiment(3, 1, 2))
    lines = csv.strip().split("\n")
    assert lines[0] == (
        "experiment,graph,param_name,param_value,k,m,value,reference,abs_err,rel_err"
    )
    assert lines[1].startswith("tree-check,tree-d3,d,3,1,0,1,1,0,")
    assert csv.endswith("\n")


def test_sample_law_semicircle_stats():
    samples = sample_law("semicircle", 100_000, 12345)
    n = len(samples)
    mean = sum(samples) / n
    m2 = sum(x * x for x in samples) / n
    assert abs(mean) < 0.02
    assert abs(m2 - 1.0) < 0.05
    assert all(-2.0 <= x <= 2.0 for x in samples)


def test_sample_law_km_support():
    samples = sample_law("km:3", 5000, 7)
    w = km_support(3)
    assert all(-w <= x <= w for x in samples)


def test_sample_law_deterministic():
    a = sample_law("semicircle", 1000, 9)
    b = sample_law("semicircle", 1000, 9)
    assert a == b


def test_sample_law_rejects_km2():
    with pytest.raises(ValueError):
        sample_law("km:2", 10, 1)


def test_pushforward_histogram():
    samples = sample_law("semicircle", 50_000, 42)
    edges, counts = pushforward_histogram((-1, 0, 1), samples, 10)
    assert len(edges) == 11 and len(counts) == 10
    assert sum(counts) == 50_000
    transformed = [x * x - 1 for x in samples]
    assert abs(sum(transformed) / len(transformed)) < 0.02
    assert math.isclose(edges[0], min(transformed))


def test_walk_polynomial_free_clt_limit():
    # W[m][j] counts closed-walk classes touching j copies: its degree is at
    # most km/2 and its top coefficient over sigma^(km/2) is the N -> oo
    # limit E[P_k(s)^m] of the normalized moment, exactly and for no N
    for name in BUILTIN_GRAPHS:
        base = builtin_graph(name)
        sigma = base.degree(base.root)
        for k in (1, 2, 3):
            max_m = 5 if k == 3 else 6
            table = walk_table(base, k, max_m, k * max_m // 2)
            refs = chebyshev_reference_moments(k, max_m)
            for m, row in enumerate(table):
                half = k * m // 2
                top = max((j for j, w in enumerate(row) if w), default=0)
                assert top <= half, (name, k, m)
                if k * m % 2:
                    assert refs[m] == 0, (k, m)
                else:
                    assert Fraction(row[half], sigma**half) == refs[m], (name, k, m)


def test_walk_overrun_skips_larger_n_at_once(monkeypatch):
    # the DP's cost grows with N up to N = 3 only, so an overrun at N = 3
    # means every larger N overruns too: the N = 4 and N = 8 cells of the
    # same run are skipped without running the DP again
    runs = []
    inner = experiments.vacuum_moments_distance_k

    def counted(spec, *args):
        runs.append(spec.copies)
        return inner(spec, *args)

    monkeypatch.setattr(experiments, "vacuum_moments_distance_k", counted)
    # c4, k = 2, m <= 4 charges 109 walk expansions at N = 2 and 112 past it
    budgets = Budgets(walk_expansions=111)
    rep = free_clt_experiment(C4, "c4", 2, (2, 3, 4, 8), 4, budgets)
    assert runs == [2, 3]
    assert [n for n in (2, 3, 4, 8) if not report_row(rep, n, 2).skipped] == [2]
    runs.clear()
    rep = free_clt_experiment(C4, "c4", 2, (3, 4, 8), 4, budgets)
    assert runs == [3] and all(row.skipped for row in rep.rows)


def test_free_clt_cells_run_at_their_own_n():
    # each cell against the layered DP on G^{*N} itself
    rep = free_clt_experiment(C4, "c4", 2, (2, 3, 4, 5), 6)
    assert [r.param_value for r in rep.rows] == [n for n in (2, 3, 4, 5) for _ in range(7)]
    for n in (2, 3, 4, 5):
        counts = layered_distance_k_walks(free_power(C4, n), 2, 6)
        for m in range(7):
            assert report_row(rep, n, m).value == normalized_value(counts[m], 2 * n, 2 * m)


def test_walk_polynomial_newton_differences():
    # Newton forward differences at N = 1 of the closed-walk count vanish
    # past km/2; pinned values measured with the layered DP over N = 1..9
    cases = [
        (K3, 2, 4, [0, 128, 992, 2016, 1152]),
        (P3, 3, 4, [0, 78, 1380, 6342, 11760, 9600, 2880]),
        (K3, 1, 6, [22, 238, 456, 240]),
    ]
    for base, k, m, expected in cases:
        values = [
            vacuum_moments_distance_k(free_power(base, n), k, m)[m]
            for n in range(1, len(expected) + 2)
        ]
        diffs = []
        while values:
            diffs.append(values[0])
            values = [b - a for a, b in zip(values, values[1:])]
        assert diffs == expected + [0], (k, m)
