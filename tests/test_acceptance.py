"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines.  Tolerances are pinned here exactly as contracted; the statistical
criteria use the fixed seed 0 throughout.
"""
import time
from fractions import Fraction

import intmat
from freespec import cli
from freespec.experiments import free_clt_experiment
from freespec.freeprod import (
    decomposition_check,
    free_power,
    tree_recurrence_check,
    vacuum_moments_distance_k,
)
from freespec.graphs import (
    bfs_distances,
    complete_graph,
    cycle_graph,
    decompose_square,
    path_graph,
)
from freespec.polymoments import (
    kesten_mckay_moments,
    semicircle_moments,
    tree_distance_k_law_moments,
)
from freespec.regular import cycles_experiment, regular_limit_experiment
from oracles import (
    MaterializedBall,
    diameter,
    exact_less,
    km_moment_quad,
    random_graph,
    report_row,
    word_distance,
)

SEED = 0
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def _errors_decrease(err_small, err_large):
    """Endpoint comparison: strictly smaller, except exact zero stays zero."""
    if err_small == 0:
        return err_large == 0
    return exact_less(err_large, err_small)


def test_criterion_1_tree_exact_suite():
    started = time.monotonic()
    for d in (2, 3, 4, 5):
        spec = free_power(complete_graph(2), d)
        for k in (1, 2, 3, 4):
            counts = vacuum_moments_distance_k(spec, k, 8)
            refs = tree_distance_k_law_moments(d, k, 8)
            for m in range(9):
                assert counts[m] == refs[m], (d, k, m)
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 1 (tree distance-k exact suite, {elapsed:.2f}s): PASS")


def test_criterion_2_decompositions_exact():
    # square decomposition on 50 seeded random graphs of sizes 4..12
    for seed in range(50):
        g = random_graph(4 + seed % 9, 0.5, seed=seed)
        atilde2, dmat, delta = map(intmat.densify, decompose_square(g))
        a = intmat.adjacency_matrix(g)
        rhs = intmat.mat_add(intmat.mat_add(atilde2, dmat), delta)
        assert intmat.max_abs_diff(intmat.mat_mul(a, a), rhs) == 0
    # tree recurrence entrywise, d <= 4, 2 <= k <= 4
    for d in (2, 3, 4):
        for k in (2, 3, 4):
            radius = k + (4 if d <= 3 else 3)
            assert tree_recurrence_check(d, k, radius) == 0, (d, k)
    # free-power decomposition, N = 2, k = 3, radius 5
    for base in (complete_graph(3), cycle_graph(4), path_graph(3)):
        spec = free_power(base, 2)
        report = decomposition_check(spec, 3, 5)
        assert report.max_violation == 0, base
    print("\nACCEPTANCE 2 (decomposition identities exact): PASS")


def test_criterion_3_free_clt():
    started = time.monotonic()
    rep = free_clt_experiment(complete_graph(3), "k3", 2, (2, 4, 8), 2)
    for n, want in [(2, Fraction(1, 2)), (4, Fraction(3, 4)), (8, Fraction(7, 8))]:
        row = report_row(rep, n, 2)
        assert row.value.sqrt_den == 1 and row.value.frac == want
        assert row.reference.frac == 1
    for base, name in [
        (complete_graph(3), "k3"),
        (cycle_graph(4), "c4"),
        (path_graph(3), "p3"),
    ]:
        for k in (1, 2):
            rep = free_clt_experiment(base, name, k, (2, 4, 8), 4)
            for m in range(5):
                err2 = report_row(rep, 2, m).abs_err
                err8 = report_row(rep, 8, m).abs_err
                assert _errors_decrease(err2, err8), (name, k, m)
    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    print(f"\nACCEPTANCE 3 (free CLT normalized moments, {elapsed:.2f}s): PASS")


def test_criterion_4_large_d():
    # the d-regular tree is K2^{*d}: large-d is the free CLT of K2
    for k in (1, 2, 3):
        rep = free_clt_experiment(complete_graph(2), "tree", k, (3, 50), 6)
        for m in range(7):
            err3 = report_row(rep, 3, m).abs_err
            err50 = report_row(rep, 50, m).abs_err
            assert _errors_decrease(err3, err50), (k, m)
    for d in (3, 50):
        rep = free_clt_experiment(complete_graph(2), "tree", 2, (d,), 2)
        assert report_row(rep, d, 2).abs_err == Fraction(1, d)
    print("\nACCEPTANCE 4 (large-d tree convergence): PASS")


def test_criterion_5_kesten_mckay_consistency():
    for d in (2, 3, 4, 6):
        ms = kesten_mckay_moments(d, 10)
        for m in range(11):
            tol = 1e-8 * max(1.0, abs(float(ms[m])))
            assert abs(float(ms[m]) - km_moment_quad(d, m)) < tol, (d, m)
    sc = semicircle_moments(16)
    for i, cat in enumerate(CATALAN):
        assert sc[2 * i] == cat
        if 2 * i + 1 <= 16:
            assert sc[2 * i + 1] == 0
    print("\nACCEPTANCE 5 (Kesten-McKay / semicircle moments): PASS")


def test_criterion_6_word_metric_oracle():
    cases = [
        (complete_graph(3), 2, 4),
        (cycle_graph(4), 2, 5),
        (complete_graph(2), 3, 6),
    ]
    for base, copies, radius in cases:
        spec = free_power(base, copies)
        bg = MaterializedBall(spec, radius)
        cutoff = radius - diameter(spec)
        admissible = [i for i, r in enumerate(bg.root_distances) if r <= cutoff]
        mismatches = 0
        for i in admissible:
            dist = bfs_distances(bg.graph, i)
            for j in admissible:
                if word_distance(spec, bg.words[i], bg.words[j]) != dist[j]:
                    mismatches += 1
        assert mismatches == 0, (base.vertex_count, copies)
    print("\nACCEPTANCE 6 (word metric vs BFS oracle): PASS")


def test_criterion_7_regular_limit():
    started = time.monotonic()
    rep = regular_limit_experiment(3, 2, (100, 500, 2000), samples=20, max_m=6, seed=SEED)
    for m in range(7):
        err_small = report_row(rep, 100, m).abs_err
        err_large = report_row(rep, 2000, m).abs_err
        assert _errors_decrease(err_small, err_large), m
    rep1000 = regular_limit_experiment(3, 2, (1000,), samples=20, max_m=2, seed=SEED)
    mean_m2 = report_row(rep1000, 1000, 2).value.frac
    assert abs(mean_m2 - 6) < Fraction(3, 10)
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 7 (random-regular limit, {elapsed:.2f}s): PASS")


def test_criterion_8_cycle_statistics():
    rep = cycles_experiment(3, 3, (1000,), samples=200, seed=SEED)
    mean = report_row(rep, 1000, None).value
    assert abs(mean.frac - Fraction(4, 3)) < Fraction(3, 10)
    for j in (3, 4):
        rep = cycles_experiment(3, j, (100, 2000), samples=50, seed=SEED)
        small, large = (report_row(rep, n, None).value.frac for n in (100, 2000))
        assert large / 2000 < small / 100, j
    print("\nACCEPTANCE 8 (cycle count statistics): PASS")


def test_criterion_9_determinism(capsys):
    argv_sets = [
        ["tree-check", "--d", "3", "--k", "2", "--max-m", "6"],
        ["free-clt", "--graph", "builtin:c4", "--k", "2", "--N", "2,4", "--max-m", "3"],
        ["regular-random", "--d", "3", "--k", "2", "--n-list", "50,100",
         "--samples", "5", "--max-m", "4", "--seed", "17"],
    ]
    for argv in argv_sets:
        outputs = []
        for threads in ("1", "2", "4"):
            for fmt in ("csv", "json"):
                assert cli.main(argv + ["--threads", threads, "--format", fmt]) == 0
                outputs.append((fmt, capsys.readouterr().out))
        csvs = {out for fmt, out in outputs if fmt == "csv"}
        jsons = {out for fmt, out in outputs if fmt == "json"}
        assert len(csvs) == 1 and len(jsons) == 1, argv
    print("\nACCEPTANCE 9 (byte-identical reports across thread counts): PASS")
