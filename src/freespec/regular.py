"""Random d-regular graphs: pairing model, cycle statistics, limit experiment.

Sampling is rejection-based: a uniform perfect matching on half-edges is
resampled until it yields a simple graph, which makes the draw uniform over
simple d-regular graphs.  All randomness derives deterministically from the
configured seeds.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParityError, RetriesExhaustedError
from .experiments import run_cells
from .graphs import RootedGraph, count_k_cycles, distance_k_graph, from_edge_list, trace_moments
from .polymoments import tree_distance_k_law_moments
from .reports import Budgets, ExactScaled, Report, ReportRow

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
    multi-edge; infeasible (n, d) surface as RetriesExhaustedError.
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
    raise RetriesExhaustedError(cfg.max_retries)


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
    counts = []
    for i in range(samples):
        g = pairing_model(PairingConfig(n=n, d=d, seed=derive_seed(seed, j, i)))
        counts.append(count_k_cycles(g, j, max_nodes=max_nodes))
    return _ensemble(counts)


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
) -> Report:
    """Mean trace moments of distance-k graphs of random d-regular graphs.

    The reference is the exact root-walk moment of the d-regular tree's
    distance-k graph, computed on the polynomial side.
    """
    refs = tree_distance_k_law_moments(d, k, max_m)

    def cell(n: int):
        totals = [Fraction(0)] * (max_m + 1)
        for i in range(samples):
            g = pairing_model(PairingConfig(n=n, d=d, seed=derive_seed(seed, n, i)))
            dk = distance_k_graph(g, k)
            moments = trace_moments(dk, max_m)
            for m in range(max_m + 1):
                totals[m] += moments[m]
        return [t / samples for t in totals]

    results = run_cells(cell, list(n_list))
    rows = []
    for n, means in zip(n_list, results):
        for m in range(max_m + 1):
            rows.append(
                ReportRow(
                    experiment="regular-random",
                    graph=f"random-regular-d{d}",
                    param_name="n",
                    param_value=n,
                    k=k,
                    m=m,
                    value=ExactScaled(means[m]),
                    reference=ExactScaled(refs[m]),
                )
            )
    return Report(rows=rows, seed=seed, budgets=budgets)


def cycles_experiment(
    d: int,
    j: int,
    n_list,
    samples: int,
    seed: int,
) -> Report:
    """Mean j-cycle counts across orders n, against the d-regular limit value."""
    ref = ExactScaled(cycle_limit_reference(d, j))

    def cell(n: int):
        return cycle_average(n, d, j, samples, seed)

    results = run_cells(cell, list(n_list))
    rows = [
        ReportRow(
            experiment="cycles",
            graph=f"random-regular-d{d}",
            param_name="n",
            param_value=n,
            k=j,
            m=None,
            value=ExactScaled(stats.mean),
            reference=ref,
        )
        for n, stats in zip(n_list, results)
    ]
    return Report(rows=rows, seed=seed)
