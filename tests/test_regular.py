"""Tests for the configuration-model sampler and regular-graph experiments."""
import functools
import hashlib
import multiprocessing
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import pytest

from freespec import cli, regular
from freespec.errors import BudgetExceededError, ParityError, RetriesExhaustedError
from freespec.graphs import complete_graph, count_k_cycles, from_edge_list
from freespec.regular import (
    PairingConfig,
    cycle_limit_reference,
    cycle_sample,
    cycles_experiment,
    derive_seed,
    fisher_yates,
    pairing_model,
    regular_limit_experiment,
    sample_workers,
    trace_sample,
)
from freespec.reports import Budgets, ExactScaled
from oracles import format_graph_text, report_row


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


def _crafted_shuffles(monkeypatch, orders):
    """Make each shuffle of pairing_model hand out the next of orders."""
    orders = iter(orders)

    def shuffle(rng, stubs):
        order = next(orders)
        assert sorted(order) == sorted(stubs)
        stubs[:] = order

    monkeypatch.setattr(regular, "fisher_yates", shuffle)
    return orders


def _stub_order(pairs):
    return [v for pair in pairs for v in pair]


@pytest.mark.parametrize("n, d, rejected, simple", [
    (4, 3, [
        # a loop in the last pair (at n = 4 it comes with a double edge)
        [(0, 1), (0, 1), (0, 2), (1, 2), (2, 3), (3, 3)],
        # double edges in the same orientation
        [(0, 1), (0, 1), (0, 2), (1, 3), (2, 3), (2, 3)],
        # double edges in reversed orientation
        [(0, 1), (1, 0), (0, 2), (1, 3), (2, 3), (3, 2)],
    ], [(1, 0), (2, 3), (0, 2), (3, 1), (0, 3), (2, 1)]),
    # a loop in the last pair as the only defect
    (4, 2, [[(0, 1), (1, 2), (2, 0), (3, 3)]], [(0, 1), (2, 1), (2, 3), (3, 0)]),
])
def test_pairing_model_rejects_every_defect(monkeypatch, n, d, rejected, simple):
    orders = _crafted_shuffles(
        monkeypatch, [*map(_stub_order, rejected), _stub_order(simple), []]
    )
    g = pairing_model(PairingConfig(n=n, d=d, seed=0))
    assert g == from_edge_list(n, simple, 0)
    assert next(orders) == []  # the simple pairing was the last one drawn


def test_pairing_model_gives_up_after_max_retries(monkeypatch):
    double = _stub_order([(0, 1), (1, 0), (0, 2), (1, 3), (2, 3), (3, 2)])
    orders = _crafted_shuffles(monkeypatch, [double] * 5 + [[]])
    with pytest.raises(RetriesExhaustedError):
        pairing_model(PairingConfig(n=4, d=3, seed=0, max_retries=5))
    assert next(orders) == []  # every retry drew, and no more


@pytest.mark.parametrize("seed", [0, 1, 5, 2**32 + 7, 2**64 - 1])
def test_fisher_yates_is_random_shuffle(seed):
    # the same permutation and generator state as random.Random.shuffle, on
    # lengths across the bit-length steps, a pairing-sized list and lists
    # longer than one word batch, shuffled again and again as pairing does
    for length in [*range(71), 800, 1024, 1025, 2049, 4000]:
        expected, got = list(range(length)), list(range(length))
        reference, rng = random.Random(seed), random.Random(seed)
        for _ in range(3):
            reference.shuffle(expected)
            fisher_yates(rng, got)
            assert got == expected, length
            assert rng.getstate() == reference.getstate(), length


@pytest.mark.parametrize("n, d, seed, digest", [
    (4, 3, 1, "19d4d846b78900495f3e6583aa86e634495bfafc69b154404f6d4b901d0b4db1"),
    (30, 3, 7, "f14a0a4467eade18d873a6d6c442064f86c5c9369810d7dd015d94bb799b3ae4"),
    (100, 4, 5, "201b3fed4763f62734227b393d4746d831d2aeee891e61378e59b5162f8bd36d"),
    (200, 4, 2**63 + 11, "ebe32935cca81176ea4e6acd08d839d5c381870378ee1e7c859302ddb26475f3"),
    (2000, 3, 12345, "f9664b622daf7fddfd6dde2e29964828b653c679062cfacb2f3831a85796a86a"),
    (50, 5, 9, "7c47382b7596f516496588360f98b0d1852a8a70e394466f5b21efc5bb48a268"),
])
def test_pairing_model_stream_is_pinned(n, d, seed, digest):
    # digests of the graphs drawn with random.Random.shuffle: a seed keeps
    # its graph on every Python version
    g = pairing_model(PairingConfig(n=n, d=d, seed=seed))
    assert hashlib.sha256(format_graph_text(g).encode()).hexdigest() == digest


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
    rep = cycles_experiment(2, 3, (300,), samples=60, seed=5)
    mean = report_row(rep, 300, None).value
    assert abs(float(mean.rational) - float(cycle_limit_reference(2, 3))) < 0.15


def test_cycle_average_values_match_counts():
    rep = cycles_experiment(3, 3, (40,), samples=4, seed=21)
    expected = []
    for i in range(4):
        g = pairing_model(PairingConfig(n=40, d=3, seed=derive_seed(21, 3, i)))
        expected.append(count_k_cycles(g, 3))
    assert report_row(rep, 40, None).value == ExactScaled(Fraction(sum(expected), 4))


def test_refused_cell_runs_no_further_sample(monkeypatch):
    # serially, sample 0 of n=200 is refused at 10^4 nodes: that cell's
    # other samples never run
    calls = []

    def cycle_sample_counted(d, j, n, seed, i, budgets):
        calls.append((n, i))
        return cycle_sample(d, j, n, seed, i, budgets)

    monkeypatch.setattr(regular, "cycle_sample", cycle_sample_counted)
    rep = cycles_experiment(
        4, 8, (20, 200), samples=3, seed=0, budgets=Budgets(walk_expansions=10**4)
    )
    assert calls == [(20, 0), (20, 1), (20, 2), (200, 0)]
    assert [row.skipped for row in rep.rows] == [False, True]


def test_regular_limit_experiment_k1():
    rep = regular_limit_experiment(3, 1, (20, 40), samples=3, max_m=4, seed=5)
    for n in (20, 40):
        assert report_row(rep, n, 2).value == ExactScaled(Fraction(3))
        assert report_row(rep, n, 2).abs_err == 0
        assert report_row(rep, n, 0).value == ExactScaled(Fraction(1))


def test_regular_limit_experiment_reference_column():
    rep = regular_limit_experiment(3, 2, (30,), samples=2, max_m=2, seed=8)
    assert report_row(rep, 30, 2).reference == ExactScaled(Fraction(6))


def test_cycles_experiment_report():
    rep = cycles_experiment(3, 3, (30, 60), samples=5, seed=2)
    assert [r.param_value for r in rep.rows] == [30, 60]
    assert all(r.k == 3 for r in rep.rows)
    assert all(r.reference == ExactScaled(Fraction(4, 3)) for r in rep.rows)


def test_sample_workers_clamp():
    # the CPUs this process may run on, where the platform says which
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    assert sample_workers(1, 20) == 1
    assert sample_workers(3, 1) == 1
    assert sample_workers(10**6, 4) == min(4, cores)
    assert sample_workers(2, 20) == min(2, cores)


def test_one_allowed_cpu_starts_no_pool(monkeypatch, capsys):
    # an affinity mask of one CPU runs --threads 4 in the calling process
    import concurrent.futures.process

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", no_pool)
    assert sample_workers(4, 20) == 1
    argv = ["cycles", "--d", "3", "--j", "3", "--n-list", "30", "--samples", "4"]
    reports = []
    for threads in ("4", "1"):
        assert cli.main(argv + ["--threads", threads]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def _marked_sample(folder, n, i, budget):
    # leaves a file for every sample that starts; sample 0 of n = 0 is
    # refused, and the other samples of n = 0 take a while
    open(os.path.join(folder, f"{n}-{i}"), "w").close()
    if n == 0 and i == 0:
        raise BudgetExceededError(budget + 1, budget, "units")
    if n == 0:
        time.sleep(0.05)
    return i


def test_a_pool_cell_past_its_budget_leaves_its_samples_unstarted(tmp_path, monkeypatch):
    # once a cell reads a refused sample, its pool map cancels the samples
    # that no worker has taken yet; the next cell still reads all of its own
    monkeypatch.setattr(regular, "sample_workers", lambda threads, samples: 2)
    sample = functools.partial(_marked_sample, str(tmp_path))
    cells = regular._sampled_cells(lambda n: functools.partial(sample, n), [0, 1], 40, 2, 5, sum)
    assert cells == [None, sum(range(40))]
    started = [name for name in os.listdir(tmp_path) if name.startswith("0-")]
    assert 1 <= len(started) < 20


def test_samples_give_the_same_results_on_a_spawned_pool():
    # a sample is a pure function of its arguments, ints and the meter, so
    # neither the process nor the start method changes its result; errors
    # come back whole
    budgets = Budgets(10**6)
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
        traces = [pool.submit(trace_sample, 3, 2, 30, 4, 7, i, budgets) for i in range(2)]
        cycles = [pool.submit(cycle_sample, 4, 4, 20, 7, i, budgets) for i in range(2)]
        refused = pool.submit(cycle_sample, 4, 8, 200, 0, 0, Budgets(10**4))
        assert [f.result() for f in traces] == [
            trace_sample(3, 2, 30, 4, 7, i, budgets) for i in range(2)
        ]
        assert [f.result() for f in cycles] == [cycle_sample(4, 4, 20, 7, i, budgets) for i in range(2)]
        with pytest.raises(BudgetExceededError) as info:
            refused.result()
    assert (info.value.count, info.value.budget) == (10**4 + 1, 10**4)
