"""Exact polynomial and moment algebra.

A polynomial is a tuple of exact coefficients, constant first, each an int
when integral and a Fraction otherwise; every moment computation in this
module is exact.  Floating point appears only in density evaluation, which
is inherently continuous.

A symmetric law is given by its Jacobi parameters gamma.  One recursion
builds its monic orthogonal polynomials, and one routine, jacobi_moments,
gives the moments of p(b) for b of that law and any polynomial p: the
semicircle and Kesten-McKay moments (p = x) and the distance-k laws
(p = P_k or Q_k).  The law moments the CLI prints, the tree law and the
free-CLT reference are charged to the walk budget before P_k or the chain
is built (_orthogonal_poly_moments), and every P_k, hist's transform
included, before it is built (monic_orthogonal_poly).
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import Budgets, Frozen


def _canonical(values) -> tuple:
    """values as exact numbers: an int when integral, a Fraction otherwise."""
    out = []
    for v in values:
        if type(v) is not int:
            v = Fraction(v)
            if v.denominator == 1:
                v = v.numerator
        out.append(v)
    return tuple(out)


class JacobiParams(Frozen):
    """Three-term recursion coefficients of a symmetric law (beta = 0);
    a finite prefix extends by its last value."""

    _fields = ("gamma",)

    def __init__(self, gamma):
        gamma = _canonical(gamma)
        if not gamma:
            raise ValueError("gamma must be nonempty")
        if any(g <= 0 for g in gamma):
            raise ValueError("gamma entries must be positive")
        super().__init__(gamma)

    def gamma_at(self, i: int) -> int | Fraction:
        return self.gamma[min(i, len(self.gamma) - 1)]


def jacobi_moments(params: JacobiParams, max_m: int, p: tuple = (0, 1)) -> tuple[Fraction, ...]:
    """Moments of p(b), where b has the law of params: <e0, p(J)^m e0>.

    J is the Jacobi operator on levels 0, 1, ...: a step goes up with
    weight 1 and down from level i + 1 with weight gamma_i.  p is a
    coefficient tuple, applied to J by Horner's rule.  p(J)^m is a sum of
    paths of at most deg(p) * m steps, and a returning path never climbs
    above half its length, so the chain truncated at deg(p) * max_m // 2 + 2
    levels is exact.  The arithmetic is in Python ints when gamma and p are
    integral.  The result is m_0 = 1, ..., m_max_m, a tuple of Fractions.
    """
    if max_m < 0:
        raise ValueError("max_m must be nonnegative")
    levels = max(len(p) - 1, 0) * max_m // 2 + 2
    gamma = [params.gamma_at(i) for i in range(levels - 1)]
    top, lower = (p or (0,))[-1], p[-2::-1]
    vec = [1] + [0] * (levels - 1)
    moments = [1]
    for _ in range(max_m):
        acc = [top * x for x in vec]
        for c in lower:
            # acc <- J acc + c vec
            nxt = [a + g * b for a, g, b in zip([0] + acc, gamma, acc[1:])]
            nxt.append(acc[-2])
            if c:
                nxt = [a + c * x for a, x in zip(nxt, vec)]
            acc = nxt
        vec = acc
        moments.append(vec[0])
    return tuple(map(Fraction, moments))


def _build_updates(k: int) -> int:
    """Building P_k updates k * (k + 3) / 2 coefficients, at most k * (k + 1)."""
    return k * (k + 1)


def monic_orthogonal_poly(params: JacobiParams, k: int, budgets: Budgets = Budgets()) -> tuple:
    """The k-th monic orthogonal polynomial of the law of params.

    P_0 = 1, P_1 = x, P_{n+1} = x P_n - gamma_{n-1} P_{n-1}, on coefficient
    lists, in Python ints when gamma is integral.  Its updates
    (_build_updates) are charged before the first.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    budgets.charge("Jacobi-chain updates", _build_updates(k))
    prev, cur = [], [1]
    for n in range(k):
        g = params.gamma_at(n - 1) if n else 0  # gamma_{n-1}, none at n = 0
        prev, cur = cur, [x - g * c for x, c in zip([0] + cur, prev + [0, 0])]
    return _canonical(cur)


SEMICIRCLE = JacobiParams(gamma=(1,))


def kesten_mckay_params(d: int) -> JacobiParams:
    """The Kesten-McKay law: gamma = (d, d - 1, d - 1, ...)."""
    if d < 2:
        raise ValueError("d must be >= 2")
    return JacobiParams(gamma=(d, d - 1))


def _orthogonal_poly_moments(
    params: JacobiParams, k: int, max_m: int, budgets: Budgets
) -> tuple[Fraction, ...]:
    """Moments of P_k(b), with P_k the k-th monic orthogonal polynomial of
    the law of b, charged before P_k or the chain is built.

    Building P_k takes _build_updates(k).  Each moment applies P_k(J) by
    Horner's rule: k + 1 steps, each over the chain's k * max_m // 2 + 2
    levels.  So the charge is (k + 1) * (k + max_m * levels), whatever the
    size of the numbers.
    """
    levels = k * max_m // 2 + 2
    budgets.charge("Jacobi-chain updates", _build_updates(k) + (k + 1) * max_m * levels)
    return jacobi_moments(params, max_m, monic_orthogonal_poly(params, k, budgets))


def semicircle_moments(max_m: int, budgets: Budgets = Budgets()) -> tuple[Fraction, ...]:
    """Moments of the standard semicircle law; even moments are Catalan."""
    return _orthogonal_poly_moments(SEMICIRCLE, 1, max_m, budgets)


def kesten_mckay_moments(
    d: int, max_m: int, budgets: Budgets = Budgets()
) -> tuple[Fraction, ...]:
    """Moments of the Kesten-McKay law (gamma_0 = d, gamma_n = d - 1)."""
    return _orthogonal_poly_moments(kesten_mckay_params(d), 1, max_m, budgets)


def chebyshev_monic(k: int, budgets: Budgets = Budgets()) -> tuple:
    """Monic Chebyshev family: P0 = 1, P1 = x, x*Pn = P(n+1) + P(n-1)."""
    return monic_orthogonal_poly(SEMICIRCLE, k, budgets)


def tree_distance_poly(d: int, k: int, budgets: Budgets = Budgets()) -> tuple:
    """The polynomial Q_k with A^{[k]} = Q_k(A) on the d-regular tree.

    Q0 = 1, Q1 = x, Q2 = x^2 - d, then x*Qk = Q(k+1) + (d-1)*Q(k-1).
    """
    return monic_orthogonal_poly(kesten_mckay_params(d), k, budgets)


def semicircle_density(x: float) -> float:
    """sqrt(4 - x^2) / (2 pi) on [-2, 2], else 0."""
    if abs(x) >= 2:
        return 0.0
    return math.sqrt(4.0 - x * x) / (2.0 * math.pi)


def km_support(d: int) -> float:
    return 2.0 * math.sqrt(d - 1)


def km_density(d: int, x: float) -> float:
    """Kesten-McKay density d*sqrt(4(d-1) - x^2) / (2 pi (d^2 - x^2)).

    Zero outside |x| <= 2 sqrt(d-1).  At d = 2 the density diverges at the
    support edges; the boundary points themselves return 0.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    half_width = 2.0 * math.sqrt(d - 1.0)
    if abs(x) >= half_width:
        return 0.0
    inside = 4.0 * (d - 1) - x * x
    if inside <= 0.0:
        return 0.0
    return d * math.sqrt(inside) / (2.0 * math.pi * (d * d - x * x))


def km_density_max(d: int) -> float:
    """Supremum of the Kesten-McKay density (finite only for d >= 3).

    The maximizer is interior (x^2 = 8(d-1) - d^2) for 3 <= d <= 6 and at
    the origin for d >= 7.
    """
    if d < 3:
        raise ValueError("the d = 2 density is unbounded at the support edges")
    if d <= 6:
        return d / (4.0 * math.pi * (d - 2))
    return math.sqrt(d - 1) / (math.pi * d)


def tree_distance_k_law_moments(
    d: int, k: int, max_m: int, budgets: Budgets = Budgets()
) -> tuple[Fraction, ...]:
    """Exact law of the distance-k operator of the d-regular tree at the root.

    Computed entirely on the polynomial side: moments of Q_k(b) with b
    Kesten-McKay distributed.  Independent of the walk-counting engines.
    """
    return _orthogonal_poly_moments(kesten_mckay_params(d), k, max_m, budgets)
