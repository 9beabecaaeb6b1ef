"""Random d-regular graphs: pairing model, cycle statistics, limit experiment.

Sampling is rejection-based: a uniform perfect matching on half-edges is
resampled until it yields a simple graph, which makes the draw uniform over
simple d-regular graphs.  All randomness derives deterministically from the
configured seeds.

Each sample of an experiment re-derives its own seed from its coordinates,
so samples run in any order and on any process.  Both experiments get their
cells from one sample path, _sampled_cells: each cell reads its samples
through a map, the builtin map with one worker and the map of one process
pool otherwise, and combines their exact results in sample order.
"""
from __future__ import annotations

import functools
import operator
import os
import random
import sys
from array import array
from fractions import Fraction
from itertools import repeat

from .errors import (
    BudgetExceededError,
    Budgets,
    Frozen,
    ParityError,
    RetriesExhaustedError,
    WorkerDiedError,
)
from .experiments import run_cells
from .graphs import RootedGraph, count_k_cycles, distance_k_graph, from_edge_list, trace_moments
from .polymoments import tree_distance_k_law_moments
from .reports import ExactScaled, Report, ReportRow, moment_rows

_MASK64 = (1 << 64) - 1
# 32-bit words a shuffle draws from its generator in one call; it bounds the
# transient memory of a shuffle, whatever the list's length
_WORD_BATCH = 1024


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


def check_order(n: int, d: int) -> None:
    """Raise unless the pairing model can pair n vertices of degree d."""
    if n <= 0 or d < 2:
        raise ValueError("need n > 0 and d >= 2")
    if (n * d) % 2:
        raise ParityError(f"n*d = {n * d} is odd")


class PairingConfig(Frozen):
    _fields = ("n", "d", "seed", "max_retries")

    def __init__(self, n: int, d: int, seed: int, max_retries: int = 1000):
        check_order(n, d)
        super().__init__(n, d, seed, max_retries)


def fisher_yates(rng: random.Random, x: list) -> None:
    """Shuffle x in place exactly as rng.shuffle(x) does, for len(x) < 2**32.

    rng.shuffle(x) swaps x[i] with x[j] for i from len(x) - 1 down to 1,
    where j = getrandbits(k) with k = (i + 1).bit_length(), redrawn while
    j > i.  In CPython getrandbits(k) for k <= 32 is the top k bits of one
    32-bit Mersenne Twister output, and getrandbits(32 * w) is the next w
    outputs, least significant first.  Every step takes at least one
    output, so drawing in one call no more outputs than steps remain takes
    exactly the outputs the steps would take one by one: the permutation
    and the generator's state after it are those of rng.shuffle(x).
    """
    if len(x) < 2:
        return
    i = len(x) - 1
    shift = 32 - len(x).bit_length()
    low = (1 << (31 - shift)) - 1  # below this, i + 1 takes one bit fewer
    while i > 0:
        count = min(i, _WORD_BATCH)
        words = array("I", rng.getrandbits(32 * count).to_bytes(4 * count, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        for j in words:
            j >>= shift
            if j > i:
                continue
            x[i], x[j] = x[j], x[i]
            i -= 1
            if i < low:
                low >>= 1
                shift += 1


def pairing_model(cfg: PairingConfig) -> RootedGraph:
    """A uniform simple d-regular graph on n vertices, rooted at 0.

    Pairs n*d half-edges by a uniform shuffle and resamples on any loop or
    multi-edge.  Stub 2i is paired with stub 2i + 1: the pairing has a loop
    exactly when some pair has equal ends, a test that stops at the first
    loop, and is otherwise simple exactly when its n*d/2 pairs, each with
    its smaller end first, are distinct.  That set of pairs is the edge
    list of the graph.  A pairing is simple with probability about
    exp(-(d^2-1)/4), so large d (or an infeasible (n, d)) runs out of
    max_retries and raises RetriesExhaustedError.

    The shuffles are fisher_yates on random.Random(cfg.seed): the same
    permutations and generator states as random.Random(cfg.seed).shuffle,
    so a seed gives the graph it gave in every earlier version.
    """
    rng = random.Random(cfg.seed)
    stubs = [v for v in range(cfg.n) for _ in range(cfg.d)]
    for _ in range(cfg.max_retries):
        fisher_yates(rng, stubs)
        ends, others = stubs[::2], stubs[1::2]
        if any(map(operator.eq, ends, others)):
            continue
        edges = {(u, v) if u < v else (v, u) for u, v in zip(ends, others)}
        if len(edges) == len(ends):
            g = from_edge_list(cfg.n, edges, 0)
            assert all(g.degree(v) == cfg.d for v in range(cfg.n))
            return g
    raise RetriesExhaustedError(cfg.max_retries, cfg.d)


def trace_sample(
    d: int, k: int, n: int, max_m: int, seed: int, i: int, budgets: Budgets
) -> list[Fraction]:
    """Trace moments of the distance-k graph of sample i of order n.

    The distance-k graph holds at most n * min(n - 1, d * (d - 1)^(k - 1))
    entries.  That bound is charged before the sample is paired, so a graph
    past the budget is refused before anything is built.
    """
    budgets.charge("distance-k graph entries", n * min(n - 1, d * (d - 1) ** (k - 1)))
    g = pairing_model(PairingConfig(n=n, d=d, seed=derive_seed(seed, n, i)))
    return trace_moments(distance_k_graph(g, k), max_m, budgets)


def cycle_sample(d: int, j: int, n: int, seed: int, i: int, budgets: Budgets) -> int:
    """Simple j-cycle count of sample i of order n."""
    g = pairing_model(PairingConfig(n=n, d=d, seed=derive_seed(seed, j, i)))
    return count_k_cycles(g, j, budgets)


def sample_workers(threads: int | None, samples: int) -> int:
    """Worker processes for a run: at most threads (no cap when None),
    samples per cell and the CPUs this process may run on (the host's where
    it has no affinity mask)."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return max(1, min(cpus if threads is None else threads, samples, cpus))


def _sampled_cells(sample, n_list, samples: int, threads: int | None, budgets, reduce) -> list:
    """reduce(results of sample i of n, i in order) for each n in n_list.

    A cell maps sample(n) over (range(samples), repeat(budgets)), and a
    sample past the budget makes it None.  With one worker the builtin map
    runs each sample here when it is read, importing nothing new; else a
    pool's map submits every sample up front, and cancels those not started
    once an error ends its iterator.  A worker that dies raises WorkerDiedError.

    Workers are forked where the platform can fork, so they share the pages
    of the modules the parent imported (a spawned worker imports them again,
    about 1 MB more peak RSS on regular-trace).  The pool forks all its
    workers before it starts its manager thread, so a caller that runs
    threads of its own while it starts must pass threads=1.  The CLI runs
    none, and by default asks for threads=None: a pool on every CPU it may
    run on, whenever a cell has more than one sample.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    workers = sample_workers(threads, samples)
    pool, run, broken = None, map, ()
    if workers > 1:
        import multiprocessing
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context(method))
        run, broken = pool.map, BrokenProcessPool
    try:
        pending = [run(sample(n), range(samples), repeat(budgets)) for n in n_list]

        def cell(results):
            try:
                return reduce(results)
            except BudgetExceededError:
                return None

        return run_cells(cell, pending)
    except broken:
        message = "a worker process ended abruptly (killed, or out of memory)"
        raise WorkerDiedError(message) from None
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


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
    threads: int | None = 1,
) -> Report:
    """Mean trace moments of distance-k graphs of random d-regular graphs.

    The reference is the exact root-walk moment of the d-regular tree's
    distance-k graph, computed on the polynomial side.  A cell with a
    sample past its budget is marked skipped.  Samples run on up to threads
    worker processes (every CPU this process may run on when None); the
    report is the same for every value.
    """
    if k < 1:
        raise ValueError("k must be positive")
    for n in n_list:
        check_order(n, d)
    if max_m < 0:
        raise ValueError("max_m must be nonnegative")

    def mean_moments(results):
        totals = [Fraction(0)] * (max_m + 1)
        for moments in results:
            for m in range(max_m + 1):
                totals[m] += moments[m]
        return [ExactScaled(t / samples) for t in totals]

    means = _sampled_cells(
        lambda n: functools.partial(trace_sample, d, k, n, max_m, seed),
        n_list, samples, threads, budgets, mean_moments,
    )
    cells = zip(n_list, means)
    # a skipped row shows no reference: none is computed if every row is
    shown = any(mean is not None for mean in means)
    refs = tree_distance_k_law_moments(d, k, max_m, budgets) if shown else [None] * (max_m + 1)
    rows = moment_rows("regular-random", f"random-regular-d{d}", "n", k, cells, refs)
    return Report(rows=rows, seed=seed, budgets=budgets)


def cycles_experiment(
    d: int,
    j: int,
    n_list,
    samples: int,
    seed: int,
    budgets: Budgets = Budgets(),
    threads: int | None = 1,
) -> Report:
    """Mean j-cycle counts across orders n, against the d-regular limit value.

    Cells whose enumeration runs past its budget are marked skipped and the
    run continues.
    Samples run on up to threads worker processes (every CPU this process
    may run on when None); the report is the same for every value.
    """
    if j < 3:
        raise ValueError("cycle length must be >= 3")
    for n in n_list:
        check_order(n, d)
    ref = ExactScaled(cycle_limit_reference(d, j))
    means = _sampled_cells(
        lambda n: functools.partial(cycle_sample, d, j, n, seed),
        n_list, samples, threads, budgets,
        lambda counts: Fraction(sum(counts), samples),
    )
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
        )
        for n, mean in zip(n_list, means)
    ]
    return Report(rows=rows, seed=seed, budgets=budgets)
