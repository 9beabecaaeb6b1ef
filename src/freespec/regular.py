"""Random d-regular graphs: pairing model, cycle statistics, limit experiment.

Sampling is rejection-based: a uniform perfect matching on half-edges is
resampled until it yields a simple graph, which makes the draw uniform over
simple d-regular graphs.  All randomness derives deterministically from the
configured seeds.

Each sample of an experiment re-derives its own seed from its coordinates,
so samples run in any order and on any process: with threads > 1 they run
on one process pool shared by the experiment's cells, and the parent
combines their exact results in sample order.
"""
from __future__ import annotations

import functools
import math
import os
import random
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from .errors import ComplexityRefusalError, ParityError, RetriesExhaustedError
from .experiments import run_cells
from .graphs import RootedGraph, count_k_cycles, distance_k_graph, from_edge_list, trace_moments
from .polymoments import tree_distance_k_law_moments
from .reports import Budgets, ExactScaled, Report, ReportRow, moment_rows

_MASK64 = (1 << 64) - 1


def derive_seed(*parts: int) -> int:
    """Deterministic 64-bit child seed from integer coordinates (splitmix64)."""
    h = 0x9E3779B97F4A7C15
    for part in parts:
        h = (h ^ (part & _MASK64)) & _MASK64
        h = (h + 0x9E3779B97F4A7C15) & _MASK64
        h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK64
        h = (h ^ (h >> 31)) & _MASK64
    return h


@dataclass(frozen=True)
class PairingConfig:
    n: int
    d: int
    seed: int
    max_retries: int = 1000

    def __post_init__(self):
        if self.n <= 0 or self.d < 2:
            raise ValueError("need n > 0 and d >= 2")
        if (self.n * self.d) % 2:
            raise ParityError(f"n*d = {self.n * self.d} is odd")


def pairing_model(cfg: PairingConfig) -> RootedGraph:
    """A uniform simple d-regular graph on n vertices, rooted at 0.

    Pairs n*d half-edges by a uniform shuffle and resamples on any loop or
    multi-edge.  A pairing is simple with probability about
    exp(-(d^2-1)/4), so large d (or an infeasible (n, d)) runs out of
    max_retries and raises RetriesExhaustedError.
    """
    rng = random.Random(cfg.seed)
    stubs = [v for v in range(cfg.n) for _ in range(cfg.d)]
    for _ in range(cfg.max_retries):
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            key = (u, v) if u < v else (v, u)
            if key in edges:
                ok = False
                break
            edges.add(key)
        if ok:
            g = from_edge_list(cfg.n, sorted(edges), 0)
            assert all(g.degree(v) == cfg.d for v in range(cfg.n))
            return g
    raise RetriesExhaustedError(cfg.max_retries, cfg.d)


@dataclass(frozen=True)
class EnsembleStats:
    """Per-sample statistics with exact mean and a float standard error."""

    values: tuple
    mean: Fraction
    std_err: float


def _ensemble(values) -> EnsembleStats:
    vals = tuple(values)
    mean = Fraction(sum(vals), len(vals))
    if len(vals) > 1:
        var = sum((Fraction(v) - mean) ** 2 for v in vals) / (len(vals) - 1)
        std_err = math.sqrt(float(var) / len(vals))
    else:
        std_err = 0.0
    return EnsembleStats(values=vals, mean=mean, std_err=std_err)


def trace_sample(d: int, k: int, n: int, max_m: int, seed: int, i: int) -> list[Fraction]:
    """Trace moments of the distance-k graph of sample i of order n."""
    g = pairing_model(PairingConfig(n=n, d=d, seed=derive_seed(seed, n, i)))
    return trace_moments(distance_k_graph(g, k), max_m)


def cycle_sample(d: int, j: int, n: int, seed: int, i: int, max_nodes: int) -> int:
    """Simple j-cycle count of sample i of order n."""
    g = pairing_model(PairingConfig(n=n, d=d, seed=derive_seed(seed, j, i)))
    return count_k_cycles(g, j, max_nodes=max_nodes)


def sample_workers(threads: int, samples: int) -> int:
    """Worker processes for a run: at most threads, samples per cell and cores."""
    return max(1, min(threads, samples, os.cpu_count() or 1))


class _Deferred:
    """A sample run in the calling process when its result is read."""

    def __init__(self, fn, *args):
        self._call = functools.partial(fn, *args)

    def result(self):
        return self._call()

    def cancel(self) -> bool:
        return True


@contextmanager
def _sample_runner(threads: int, samples: int):
    """Yield submit(fn, *args), whose return value has result() and cancel().

    With one worker a sample runs in the calling process when its result is
    read, and nothing new is imported.  Otherwise samples run on a process
    pool, which is joined on exit; an error cancels the samples not started.

    Workers are forked where the platform can fork.  A forked worker shares
    the pages of the modules its parent imported, so its peak RSS stays near
    that of a serial run; a spawned one imports them again, about 1 MB more
    than the serial run's peak on regular-trace.  The pool forks all its
    workers before it starts its manager thread, so the caller must not run
    threads of its own while it starts; the CLI runs none.
    """
    workers = sample_workers(threads, samples)
    if workers == 1:
        yield _Deferred
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context(method))
    try:
        yield pool.submit
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def cycle_average(
    n: int,
    d: int,
    j: int,
    samples: int,
    seed: int,
    max_nodes: int = 10**7,
) -> EnsembleStats:
    """Mean number of simple j-cycles over independent d-regular samples."""
    if samples < 1:
        raise ValueError("samples must be positive")
    return _ensemble(cycle_sample(d, j, n, seed, i, max_nodes) for i in range(samples))


def cycle_limit_reference(d: int, j: int) -> Fraction:
    """Limiting mean j-cycle count of the uniform d-regular ensemble."""
    return Fraction((d - 1) ** j, 2 * j)


def regular_limit_experiment(
    d: int,
    k: int,
    n_list,
    samples: int,
    max_m: int,
    seed: int,
    budgets: Budgets = Budgets(),
    threads: int = 1,
) -> Report:
    """Mean trace moments of distance-k graphs of random d-regular graphs.

    The reference is the exact root-walk moment of the d-regular tree's
    distance-k graph, computed on the polynomial side.  Samples run on up
    to threads worker processes; the report is the same for every value.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    refs = tree_distance_k_law_moments(d, k, max_m)

    with _sample_runner(threads, samples) as submit:
        pending = {
            n: [submit(trace_sample, d, k, n, max_m, seed, i) for i in range(samples)]
            for n in n_list
        }

        def cell(n: int):
            totals = [Fraction(0)] * (max_m + 1)
            for sample in pending[n]:
                moments = sample.result()
                for m in range(max_m + 1):
                    totals[m] += moments[m]
            return [ExactScaled(t / samples) for t in totals]

        cells = zip(n_list, run_cells(cell, list(n_list)))
    rows = moment_rows("regular-random", f"random-regular-d{d}", "n", k, cells, refs)
    return Report(rows=rows, seed=seed, budgets=budgets)


def cycles_experiment(
    d: int,
    j: int,
    n_list,
    samples: int,
    seed: int,
    budgets: Budgets = Budgets(),
    threads: int = 1,
) -> Report:
    """Mean j-cycle counts across orders n, against the d-regular limit value.

    Each enumeration may expand budgets.walk_expansions nodes.  Cells whose
    enumeration runs past it are marked skipped and the run continues.
    Samples run on up to threads worker processes; the report is the same
    for every value.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    ref = ExactScaled(cycle_limit_reference(d, j))

    with _sample_runner(threads, samples) as submit:
        pending = {
            n: [
                submit(cycle_sample, d, j, n, seed, i, budgets.walk_expansions)
                for i in range(samples)
            ]
            for n in n_list
        }

        def cell(n: int):
            try:
                return Fraction(sum(sample.result() for sample in pending[n]), samples)
            except ComplexityRefusalError:
                for sample in pending[n]:
                    sample.cancel()
                return None

        results = run_cells(cell, list(n_list))
    rows = [
        ReportRow(
            experiment="cycles",
            graph=f"random-regular-d{d}",
            param_name="n",
            param_value=n,
            k=j,
            m=None,
            value=None if mean is None else ExactScaled(mean),
            reference=ref,
            skipped=mean is None,
        )
        for n, mean in zip(n_list, results)
    ]
    return Report(rows=rows, seed=seed, budgets=budgets)
