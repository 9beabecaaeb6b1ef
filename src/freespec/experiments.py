"""Experiment harness tying walk engines to exact limit-law references.

Every reference moment comes from the polynomial side (one Jacobi-chain
routine, polymoments.jacobi_moments); every computed moment comes from the
walk engines.  The two sides share no code, so agreement is a genuine
cross-validation.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import BudgetExceededError, Frozen
from .freeprod import free_power, vacuum_moments_distance_k
from .graphs import RootedGraph, complete_graph
from .polymoments import (
    SEMICIRCLE,
    Poly,
    chebyshev_monic,
    jacobi_moments,
    km_density,
    km_density_max,
    km_support,
    tree_distance_k_law_moments,
)
from .reports import Budgets, ExactScaled, Report, moment_rows


def run_cells(fn, items, threads: int = 1) -> list:
    """Evaluate fn over items in order, in the calling thread.

    threads is accepted and ignored.  Cells are pure-Python CPU work, so a
    thread pool gave no speedup under the GIL; the parameter stays because
    perfbench/traced.py wraps this function and passes it through.
    """
    return [fn(item) for item in items]


def normalized_value(count: int, scale_base: int, power: int) -> ExactScaled:
    """count / scale_base^(power/2) as an exact value.

    Even powers give a plain rational; odd powers keep a 1/sqrt(scale_base)
    factor symbolically.
    """
    if power % 2 == 0:
        return ExactScaled(Fraction(count, scale_base ** (power // 2)))
    return ExactScaled(Fraction(count, scale_base ** (power // 2)), scale_base)


def chebyshev_reference_moments(k: int, max_m: int):
    """E[P_k(s)^m] for the semicircle variable s, m = 0..max_m, exact."""
    return jacobi_moments(SEMICIRCLE, max_m, chebyshev_monic(k))


def tree_check_experiment(
    d: int,
    k: int,
    max_m: int,
    budgets: Budgets = Budgets(),
) -> Report:
    """Walk counts on the d-regular tree's distance-k graph vs the polynomial law.

    Both sides are exact integers; every row must have abs_err 0.
    """
    spec = free_power(complete_graph(2), d)
    counts = vacuum_moments_distance_k(spec, k, max_m, budget=budgets.walk_expansions)
    values = [ExactScaled(count) for count in counts]
    rows = moment_rows(
        "tree-check", f"tree-d{d}", "d", k, [(d, values)],
        tree_distance_k_law_moments(d, k, max_m),
    )
    return Report(rows=rows, budgets=budgets)


def free_clt_experiment(
    base: RootedGraph,
    graph_name: str,
    k: int,
    n_list,
    max_m: int,
    budgets: Budgets = Budgets(),
) -> Report:
    """Normalized vacuum moments of distance-k graphs of G^{*N} vs E[P_k(s)^m].

    Cells that blow the walk budget are marked skipped and the run continues.
    The smallest N runs first: if it overruns, every other cell is skipped
    at once.  The largest N runs next: if its walk table fits, it serves
    every other N.  The rest follow in rising order; rows keep n_list order.
    When the largest N overruns, the first middle N that overruns too uses
    up the budget a second time (rising order alone would stop at it), and
    every larger N is then skipped at once.
    """
    refs = chebyshev_reference_moments(k, max_m)

    def cell(n_copies: int):
        spec = free_power(base, n_copies)
        try:
            counts = vacuum_moments_distance_k(
                spec, k, max_m, budget=budgets.walk_expansions
            )
        except BudgetExceededError:
            return None
        scale = n_copies * spec.sigma
        return [normalized_value(count, scale, k * m) for m, count in enumerate(counts)]

    ordered = sorted(n_list)
    if ordered:
        ordered.insert(1, ordered.pop())
    by_n = dict(zip(ordered, run_cells(cell, ordered)))
    cells = [(n_copies, by_n[n_copies]) for n_copies in n_list]
    rows = moment_rows("free-clt", graph_name, "N", k, cells, refs)
    return Report(rows=rows, budgets=budgets)


class SamplerConfig(Frozen):
    """Deterministic rejection sampler configuration.

    law is "semicircle" or "km:D" for the Kesten-McKay law of parameter D
    (D >= 3; the D = 2 density is unbounded, so no uniform envelope exists).
    """

    _fields = ("seed", "count", "law")

    def __init__(self, seed: int, count: int, law: str = "semicircle"):
        super().__init__(seed, count, law)

    def density_and_support(self):
        if self.law == "semicircle":
            from .polymoments import semicircle_density

            return semicircle_density, 2.0, 1.0 / math.pi
        if self.law.startswith("km:"):
            d = int(self.law.split(":", 1)[1])
            if d < 3:
                raise ValueError("kesten-mckay sampling needs d >= 3 (bounded density)")
            return (lambda x: km_density(d, x)), km_support(d), km_density_max(d)
        raise ValueError(f"unknown law {self.law!r}")


def sample_law(cfg: SamplerConfig) -> list[float]:
    """Rejection-sample the target law from its uniform envelope, deterministically."""
    if cfg.count < 1:
        raise ValueError("samples must be positive")
    density, half_width, dmax = cfg.density_and_support()
    rng = random.Random(cfg.seed)
    out = []
    while len(out) < cfg.count:
        x = rng.uniform(-half_width, half_width)
        y = rng.uniform(0.0, dmax)
        if y <= density(x):
            out.append(x)
    return out


def pushforward_histogram(p: Poly, samples, bins: int):
    """Histogram of P(sample) with equal-width bins covering the transformed range.

    Returns (edges, counts); edges has bins + 1 entries.
    """
    if bins < 1:
        raise ValueError("bins must be positive")
    values = [float(p(x)) for x in samples]
    lo, hi = min(values), max(values)
    if hi == lo:
        hi = lo + 1.0
    width = (hi - lo) / bins
    counts = [0] * bins
    for v in values:
        idx = min(int((v - lo) / width), bins - 1)
        counts[idx] += 1
    edges = [lo + i * width for i in range(bins + 1)]
    return edges, counts
