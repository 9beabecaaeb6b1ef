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

from .errors import BudgetExceededError, Budgets
from .freeprod import free_power, vacuum_moments_distance_k
from .graphs import RootedGraph, complete_graph
from .polymoments import (
    SEMICIRCLE,
    chebyshev_monic,
    jacobi_moments,
    km_density,
    km_density_max,
    km_support,
    semicircle_density,
    tree_distance_k_law_moments,
)
from .reports import ExactScaled, Report, moment_rows


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
    return ExactScaled(Fraction(count, scale_base ** (power // 2)), scale_base if power % 2 else 1)


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
    counts = vacuum_moments_distance_k(spec, k, max_m, budgets)
    values = [ExactScaled(count) for count in counts]
    rows = moment_rows(
        "tree-check", f"tree-d{d}", "d", k, [(d, values)],
        tree_distance_k_law_moments(d, k, max_m, budgets),
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

    Each cell runs the walk DP at its own N.  Its cost grows with N up to
    N = 3 and not past it, so a cell that blows a budget is skipped, and so
    is every cell of a larger N after it, without another run.  Rows keep
    n_list order.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if max_m < 0:
        raise ValueError("max_m must be nonnegative")
    specs = [free_power(base, n_copies) for n_copies in n_list]
    overran = []  # the N of each cell over the budget

    def cell(spec):
        if overran and spec.copies >= min(overran):
            return None
        try:
            counts = vacuum_moments_distance_k(spec, k, max_m, budgets)
        except BudgetExceededError:
            overran.append(spec.copies)
            return None
        scale = spec.copies * spec.sigma
        return [normalized_value(count, scale, k * m) for m, count in enumerate(counts)]

    cells = [(spec.copies, values) for spec, values in zip(specs, run_cells(cell, specs))]
    # a skipped row shows no reference: none is computed if every row is
    shown = any(values is not None for _, values in cells)
    refs = chebyshev_reference_moments(k, max_m) if shown else [None] * (max_m + 1)
    rows = moment_rows("free-clt", graph_name, "N", k, cells, refs)
    return Report(rows=rows, budgets=budgets)


def parse_law(law: str) -> int | None:
    """The D of law "km:D" (the Kesten-McKay law), or None for "semicircle"."""
    if law == "semicircle":
        return None
    if not law.startswith("km:"):
        raise ValueError("--law must be semicircle or km:D")
    try:
        return int(law[len("km:"):])
    except ValueError:
        raise ValueError("--law km:D needs an integer D") from None


def sample_law(law: str, count: int, seed: int) -> list[float]:
    """count draws of law, rejection-sampled from its uniform envelope.

    law is parsed by parse_law.  km:D needs D >= 3: the D = 2 density is
    unbounded, so no uniform envelope exists.  The draws depend only on
    (law, count, seed).
    """
    d = parse_law(law)
    if count < 1:
        raise ValueError("samples must be positive")
    if d is None:
        density, half_width, dmax = semicircle_density, 2.0, 1.0 / math.pi
    elif d < 3:
        raise ValueError("kesten-mckay sampling needs d >= 3 (bounded density)")
    else:
        density, half_width, dmax = (lambda x: km_density(d, x)), km_support(d), km_density_max(d)
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        x = rng.uniform(-half_width, half_width)
        y = rng.uniform(0.0, dmax)
        if y <= density(x):
            out.append(x)
    return out


def pushforward_histogram(p: tuple, samples, bins: int):
    """Histogram of p(sample) with equal-width bins covering the transformed range.

    p is a coefficient tuple, constant first, evaluated in floats by Horner's
    rule from the top coefficient.  Returns (edges, counts); edges has
    bins + 1 entries.
    """
    if bins < 1:
        raise ValueError("bins must be positive")
    values = []
    for x in samples:
        acc = p[-1]
        for c in p[-2::-1]:
            acc = acc * x + c
        values.append(float(acc))
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
