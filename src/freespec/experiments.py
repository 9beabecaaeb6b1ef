"""Experiment harness tying walk engines to exact limit-law references.

Every reference moment comes from the polynomial side (Jacobi recursions and
pushforwards); every computed moment comes from the walk engines.  The two
sides share no code, so agreement is a genuine cross-validation.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceededError
from .freeprod import free_power, vacuum_moments_distance_k
from .graphs import RootedGraph, complete_graph
from .polymoments import (
    Poly,
    chebyshev_monic,
    km_density,
    km_density_max,
    km_support,
    pushforward_moments,
    semicircle_moments,
    tree_distance_k_law_moments,
)
from .reports import Budgets, ExactScaled, Report, ReportRow


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
    p = chebyshev_monic(k)
    base = semicircle_moments(max(p.degree, 0) * max_m)
    return pushforward_moments(p, base, max_m)


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
    refs = tree_distance_k_law_moments(d, k, max_m)
    rows = [
        ReportRow(
            experiment="tree-check",
            graph=f"tree-d{d}",
            param_name="d",
            param_value=d,
            k=k,
            m=m,
            value=ExactScaled(Fraction(counts[m])),
            reference=ExactScaled(refs[m]),
        )
        for m in range(max_m + 1)
    ]
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
        return counts, spec.sigma

    results = run_cells(cell, list(n_list))
    rows = []
    for n_copies, result in zip(n_list, results):
        for m in range(max_m + 1):
            if result is None:
                rows.append(
                    ReportRow(
                        experiment="free-clt",
                        graph=graph_name,
                        param_name="N",
                        param_value=n_copies,
                        k=k,
                        m=m,
                        value=None,
                        reference=ExactScaled(refs[m]),
                        skipped=True,
                    )
                )
                continue
            counts, sigma = result
            rows.append(
                ReportRow(
                    experiment="free-clt",
                    graph=graph_name,
                    param_name="N",
                    param_value=n_copies,
                    k=k,
                    m=m,
                    value=normalized_value(counts[m], n_copies * sigma, k * m),
                    reference=ExactScaled(refs[m]),
                )
            )
    return Report(rows=rows, budgets=budgets)


def tree_large_d_experiment(
    k: int,
    d_list,
    max_m: int,
    budgets: Budgets = Budgets(),
) -> Report:
    """d^{-km/2}-normalized tree distance-k moments vs E[P_k(s)^m] as d grows."""
    refs = chebyshev_reference_moments(k, max_m)

    def cell(d: int):
        spec = free_power(complete_graph(2), d)
        return vacuum_moments_distance_k(
            spec, k, max_m, budget=budgets.walk_expansions
        )

    results = run_cells(cell, list(d_list))
    rows = []
    for d, counts in zip(d_list, results):
        for m in range(max_m + 1):
            rows.append(
                ReportRow(
                    experiment="large-d",
                    graph="tree",
                    param_name="d",
                    param_value=d,
                    k=k,
                    m=m,
                    value=normalized_value(counts[m], d, k * m),
                    reference=ExactScaled(refs[m]),
                )
            )
    return Report(rows=rows, budgets=budgets)


@dataclass(frozen=True)
class SamplerConfig:
    """Deterministic rejection sampler configuration.

    law is "semicircle" or "km:D" for the Kesten-McKay law of parameter D
    (D >= 3; the D = 2 density is unbounded, so no uniform envelope exists).
    """

    seed: int
    count: int
    bins: int
    law: str = "semicircle"

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
