"""Tests for the configuration-model sampler and regular-graph experiments."""
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import pytest

from freespec import regular
from freespec.errors import ComplexityRefusalError, ParityError, RetriesExhaustedError
from freespec.graphs import complete_graph, count_k_cycles
from freespec.regular import (
    PairingConfig,
    cycle_limit_reference,
    cycle_sample,
    cycles_experiment,
    derive_seed,
    pairing_model,
    regular_limit_experiment,
    sample_workers,
    trace_sample,
)
from freespec.reports import Budgets, ExactScaled


def test_pairing_model_k4():
    g = pairing_model(PairingConfig(n=4, d=3, seed=1))
    assert g == complete_graph(4)


def test_pairing_model_parity():
    with pytest.raises(ParityError):
        PairingConfig(n=5, d=3, seed=0)


def test_pairing_model_infeasible():
    with pytest.raises(RetriesExhaustedError):
        pairing_model(PairingConfig(n=2, d=3, seed=0, max_retries=50))


def test_pairing_model_simple_and_regular():
    for seed in range(10):
        g = pairing_model(PairingConfig(n=30, d=3, seed=seed))
        assert all(g.degree(v) == 3 for v in range(30))
        for v in range(30):
            assert v not in g.neighbors[v]
            assert len(set(g.neighbors[v])) == 3


def test_pairing_model_deterministic():
    a = pairing_model(PairingConfig(n=50, d=3, seed=99))
    b = pairing_model(PairingConfig(n=50, d=3, seed=99))
    assert a == b
    c = pairing_model(PairingConfig(n=50, d=3, seed=100))
    assert a != c  # overwhelmingly likely; pinned by the fixed seeds


def test_derive_seed_deterministic_and_spread():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    seen = {derive_seed(0, i) for i in range(1000)}
    assert len(seen) == 1000


def test_cycle_limit_reference():
    assert cycle_limit_reference(3, 3) == Fraction(4, 3)
    assert cycle_limit_reference(3, 4) == Fraction(2)


def test_cycle_average_two_regular():
    # 2-regular graphs are disjoint cycle unions; the limiting mean triangle
    # count is (d-1)^j / (2j) = 1/6, like every other d
    mean = cycles_experiment(2, 3, (300,), samples=60, seed=5).row(300, None).value
    assert abs(float(mean.frac) - float(cycle_limit_reference(2, 3))) < 0.15


def test_cycle_average_values_match_counts():
    rep = cycles_experiment(3, 3, (40,), samples=4, seed=21)
    expected = []
    for i in range(4):
        g = pairing_model(PairingConfig(n=40, d=3, seed=derive_seed(21, 3, i)))
        expected.append(count_k_cycles(g, 3))
    assert rep.row(40, None).value == ExactScaled(Fraction(sum(expected), 4))


def test_refused_cell_runs_no_further_sample(monkeypatch):
    # serially, sample 0 of n=200 is refused at 10^4 nodes: that cell's
    # other samples never run
    calls = []

    def cycle_sample_counted(d, j, n, seed, i, max_nodes):
        calls.append((n, i))
        return cycle_sample(d, j, n, seed, i, max_nodes)

    monkeypatch.setattr(regular, "cycle_sample", cycle_sample_counted)
    rep = cycles_experiment(
        4, 8, (20, 200), samples=3, seed=0, budgets=Budgets(walk_expansions=10**4)
    )
    assert calls == [(20, 0), (20, 1), (20, 2), (200, 0)]
    assert [row.skipped for row in rep.rows] == [False, True]


def test_regular_limit_experiment_k1():
    rep = regular_limit_experiment(3, 1, (20, 40), samples=3, max_m=4, seed=5)
    for n in (20, 40):
        assert rep.row(n, 2).value == ExactScaled(Fraction(3))
        assert rep.row(n, 2).abs_err == 0
        assert rep.row(n, 0).value == ExactScaled(Fraction(1))


def test_regular_limit_experiment_reference_column():
    rep = regular_limit_experiment(3, 2, (30,), samples=2, max_m=2, seed=8)
    assert rep.row(30, 2).reference == ExactScaled(Fraction(6))


def test_cycles_experiment_report():
    rep = cycles_experiment(3, 3, (30, 60), samples=5, seed=2)
    assert [r.param_value for r in rep.rows] == [30, 60]
    assert all(r.k == 3 for r in rep.rows)
    assert all(r.reference == ExactScaled(Fraction(4, 3)) for r in rep.rows)


def test_sample_workers_clamp():
    cores = os.cpu_count() or 1
    assert sample_workers(1, 20) == 1
    assert sample_workers(3, 1) == 1
    assert sample_workers(10**6, 4) == min(4, cores)
    assert sample_workers(2, 20) == min(2, cores)


def test_samples_give_the_same_results_on_a_spawned_pool():
    # a sample is a pure function of its int arguments, so neither the
    # process nor the start method changes its result; errors come back whole
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
        traces = [pool.submit(trace_sample, 3, 2, 30, 4, 7, i) for i in range(2)]
        cycles = [pool.submit(cycle_sample, 4, 4, 20, 7, i, 10**6) for i in range(2)]
        refused = pool.submit(cycle_sample, 4, 8, 200, 0, 0, 10**4)
        assert [f.result() for f in traces] == [trace_sample(3, 2, 30, 4, 7, i) for i in range(2)]
        assert [f.result() for f in cycles] == [cycle_sample(4, 4, 20, 7, i, 10**6) for i in range(2)]
        with pytest.raises(ComplexityRefusalError) as info:
            refused.result()
    assert (info.value.nodes, info.value.budget) == (10**4 + 1, 10**4)
