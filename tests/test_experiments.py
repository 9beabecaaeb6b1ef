"""Tests for the experiment harness: references, normalization, sampling."""
import math
from fractions import Fraction

import pytest

from freespec.experiments import (
    SamplerConfig,
    chebyshev_reference_moments,
    free_clt_experiment,
    normalized_value,
    pushforward_histogram,
    sample_law,
    tree_large_d_experiment,
    tree_check_experiment,
)
from freespec.graphs import complete_graph, cycle_graph, path_graph
from freespec.polymoments import Poly, km_support
from freespec.reports import Budgets, ExactScaled, render_csv, render_json

K3 = complete_graph(3)
C4 = cycle_graph(4)
P3 = path_graph(3)


def test_normalized_value():
    v = normalized_value(7, 8, 2)
    assert v == ExactScaled(Fraction(7, 8))
    v = normalized_value(2, 8, 3)  # (2/8)/sqrt(8), canonically (1/8)/sqrt(2)
    assert v.frac == Fraction(1, 8) and v.sqrt_den == 2
    assert v.to_float() == pytest.approx(2 / 8**1.5)


def test_exact_scaled_comparisons():
    # 2/sqrt(8) vs 3/4: (2/1)^2 * ... cross-multiplied square compare
    a = ExactScaled(Fraction(2), 8)   # ~0.7071
    b = ExactScaled(Fraction(3, 4))   # 0.75
    assert a < b and not b < a
    assert ExactScaled(Fraction(-1), 2) < ExactScaled(Fraction(1, 10))
    assert ExactScaled(Fraction(1, 2), 4) == ExactScaled(Fraction(1, 4))


def test_tree_check_rows_exact():
    rep = tree_check_experiment(3, 2, 4)
    assert rep.row(3, 2).value == ExactScaled(Fraction(6))
    assert rep.row(3, 0).value == ExactScaled(Fraction(1))
    assert all(r.abs_err == 0 for r in rep.rows)
    rep = tree_check_experiment(2, 3, 4)
    assert rep.row(2, 2).value == ExactScaled(Fraction(2))
    assert all(r.abs_err == 0 for r in rep.rows)


def test_chebyshev_reference_moments():
    refs = chebyshev_reference_moments(2, 4)
    assert list(refs) == [1, 0, 1, 1, 3]
    refs = chebyshev_reference_moments(1, 4)
    assert list(refs) == [1, 0, 1, 0, 2]


def test_free_clt_k3_closed_form():
    rep = free_clt_experiment(K3, "k3", 2, (2, 4, 8), 2)
    for n, want in [(2, Fraction(1, 2)), (4, Fraction(3, 4)), (8, Fraction(7, 8))]:
        row = rep.row(n, 2)
        assert row.value == ExactScaled(want)
        assert row.reference == ExactScaled(Fraction(1))
        assert row.abs_err == ExactScaled(Fraction(1, n))


def test_free_clt_k1_m2_is_exact():
    for base, name in [(K3, "k3"), (C4, "c4"), (P3, "p3")]:
        rep = free_clt_experiment(base, name, 1, (2, 3), 2)
        for n in (2, 3):
            assert rep.row(n, 2).value == ExactScaled(Fraction(1))
            assert rep.row(n, 2).abs_err == 0


def test_free_clt_budget_skips_cells():
    rep = free_clt_experiment(K3, "k3", 2, (2, 4), 4, budgets=Budgets(walk_expansions=10))
    assert all(r.skipped for r in rep.rows)
    csv = render_csv(rep)
    assert ",,,," in csv  # empty value columns for skipped cells


def test_large_d_errors():
    rep = tree_large_d_experiment(2, (3, 50), 6)
    assert rep.row(3, 2).abs_err == ExactScaled(Fraction(1, 3))
    assert rep.row(50, 2).abs_err == ExactScaled(Fraction(1, 50))
    rep1 = tree_large_d_experiment(1, (3, 50), 4)
    for d in (3, 50):
        assert rep1.row(d, 2).value == ExactScaled(Fraction(1))
        assert rep1.row(d, 2).abs_err == 0
    rep3 = tree_large_d_experiment(3, (3,), 2)
    assert rep3.row(3, 2).value == ExactScaled(Fraction(3 * 2 * 2, 27))


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
    samples = sample_law(SamplerConfig(seed=12345, count=100_000, bins=10))
    n = len(samples)
    mean = sum(samples) / n
    m2 = sum(x * x for x in samples) / n
    assert abs(mean) < 0.02
    assert abs(m2 - 1.0) < 0.05
    assert all(-2.0 <= x <= 2.0 for x in samples)


def test_sample_law_km_support():
    cfg = SamplerConfig(seed=7, count=5000, bins=10, law="km:3")
    samples = sample_law(cfg)
    w = km_support(3)
    assert all(-w <= x <= w for x in samples)


def test_sample_law_deterministic():
    a = sample_law(SamplerConfig(seed=9, count=1000, bins=5))
    b = sample_law(SamplerConfig(seed=9, count=1000, bins=5))
    assert a == b


def test_sample_law_rejects_km2():
    with pytest.raises(ValueError):
        sample_law(SamplerConfig(seed=1, count=10, bins=2, law="km:2"))


def test_pushforward_histogram():
    samples = sample_law(SamplerConfig(seed=42, count=50_000, bins=10))
    edges, counts = pushforward_histogram(Poly([-1, 0, 1]), samples, 10)
    assert len(edges) == 11 and len(counts) == 10
    assert sum(counts) == 50_000
    transformed = [x * x - 1 for x in samples]
    assert abs(sum(transformed) / len(transformed)) < 0.02
    assert math.isclose(edges[0], min(transformed))
