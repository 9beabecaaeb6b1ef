"""Exact polynomial and moment algebra.

Polynomials carry dense Fraction coefficients; every moment computation in
this module is exact rational arithmetic.  Floating point appears only in
density evaluation, which is inherently continuous.

A law is given by its Jacobi parameters.  One recursion builds its monic
orthogonal polynomials, and one routine, jacobi_moments, gives the moments
of p(b) for b of that law and any polynomial p: the semicircle and
Kesten-McKay moments (p = x) and the distance-k laws (p = P_k or Q_k).
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import Frozen


class Poly:
    """Univariate polynomial with exact rational coefficients, constant first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if not self.coeffs or not other.coeffs:
                return Poly()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Poly(out)
        return Poly([Fraction(other) * c for c in self.coeffs])

    __rmul__ = __mul__

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Poly(0)"
        terms = []
        for j, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*x^{j}" if j else f"{c}")
        return "Poly(" + " + ".join(terms) + ")"


X = Poly([0, 1])


class JacobiParams(Frozen):
    """Three-term recursion coefficients; finite prefixes extend by last value."""

    _fields = ("beta", "gamma")

    def __init__(self, beta, gamma):
        beta = tuple(Fraction(b) for b in beta)
        gamma = tuple(Fraction(g) for g in gamma)
        if not beta or not gamma:
            raise ValueError("beta and gamma must be nonempty")
        if any(g <= 0 for g in gamma):
            raise ValueError("gamma entries must be positive")
        super().__init__(beta, gamma)

    def beta_at(self, i: int) -> Fraction:
        return self.beta[min(i, len(self.beta) - 1)]

    def gamma_at(self, i: int) -> Fraction:
        return self.gamma[min(i, len(self.gamma) - 1)]


def jacobi_moments(params: JacobiParams, max_m: int, p: Poly = X) -> tuple[Fraction, ...]:
    """Moments of p(b), where b has the law of params: <e0, p(J)^m e0>.

    J is the Jacobi operator on levels 0, 1, ...: a step goes up with
    weight 1, stays at level i with weight beta_i, and goes down from
    level i + 1 with weight gamma_i.  p(J) is applied by Horner's rule.
    p(J)^m is a sum of paths of at most deg(p) * m steps, and a returning
    path never climbs above half its length, so the chain truncated at
    deg(p) * max_m // 2 + 2 levels is exact.  The arithmetic is in Python
    ints when the parameters and p are integral, and in Fractions otherwise.
    The result is m_0 = 1, ..., m_max_m, a tuple of Fractions.
    """
    if max_m < 0:
        raise ValueError("max_m must be nonnegative")
    levels = max(p.degree, 0) * max_m // 2 + 2
    beta = [params.beta_at(i) for i in range(levels)]
    gamma = [params.gamma_at(i) for i in range(levels - 1)]
    coeffs = list(p.coeffs) or [Fraction(0)]
    if all(c.denominator == 1 for c in beta + gamma + coeffs):
        beta, gamma, coeffs = ([int(c) for c in cs] for cs in (beta, gamma, coeffs))
    stays = any(beta)
    top, lower = coeffs[-1], coeffs[-2::-1]
    vec = [1] + [0] * (levels - 1)
    moments = [1]
    for _ in range(max_m):
        acc = [top * x for x in vec]
        for c in lower:
            # acc <- J acc + c vec
            nxt = [a + g * b for a, g, b in zip([0] + acc, gamma, acc[1:])]
            nxt.append(acc[-2])
            if stays:
                nxt = [a + b * x for a, b, x in zip(nxt, beta, acc)]
            if c:
                nxt = [a + c * x for a, x in zip(nxt, vec)]
            acc = nxt
        vec = acc
        moments.append(vec[0])
    return tuple(map(Fraction, moments))


def monic_orthogonal_poly(params: JacobiParams, k: int) -> Poly:
    """The k-th monic orthogonal polynomial of the law of params.

    P_0 = 1, P_1 = x - beta_0, P_{n+1} = (x - beta_n) P_n - gamma_{n-1} P_{n-1},
    on coefficient lists, in Python ints when the parameters are integral.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    beta = [params.beta_at(n) for n in range(k)]
    gamma = [0] + [params.gamma_at(n) for n in range(k - 1)]  # gamma_{n-1}, none at n = 0
    if all(c.denominator == 1 for c in beta + gamma):
        beta, gamma = [int(c) for c in beta], [int(c) for c in gamma]
    prev, cur = [], [1]  # coefficients, constant first
    for b, g in zip(beta, gamma):
        nxt = [x - g * p for x, p in zip([0] + cur, prev + [0, 0])]
        prev, cur = cur, [x - b * c for x, c in zip(nxt, cur + [0])] if b else nxt
    return Poly(cur)


SEMICIRCLE = JacobiParams(beta=(0,), gamma=(1,))


def kesten_mckay_params(d: int) -> JacobiParams:
    """The Kesten-McKay law: beta = 0, gamma = (d, d - 1, d - 1, ...)."""
    if d < 2:
        raise ValueError("d must be >= 2")
    return JacobiParams(beta=(0,), gamma=(d, d - 1))


def semicircle_moments(max_m: int) -> tuple[Fraction, ...]:
    """Moments of the standard semicircle law; even moments are Catalan."""
    return jacobi_moments(SEMICIRCLE, max_m)


def kesten_mckay_moments(d: int, max_m: int) -> tuple[Fraction, ...]:
    """Moments of the Kesten-McKay law (gamma_0 = d, gamma_n = d - 1)."""
    return jacobi_moments(kesten_mckay_params(d), max_m)


def chebyshev_monic(k: int) -> Poly:
    """Monic Chebyshev family: P0 = 1, P1 = x, x*Pn = P(n+1) + P(n-1)."""
    return monic_orthogonal_poly(SEMICIRCLE, k)


def tree_distance_poly(d: int, k: int) -> Poly:
    """The polynomial Q_k with A^{[k]} = Q_k(A) on the d-regular tree.

    Q0 = 1, Q1 = x, Q2 = x^2 - d, then x*Qk = Q(k+1) + (d-1)*Q(k-1).
    """
    return monic_orthogonal_poly(kesten_mckay_params(d), k)


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


def tree_distance_k_law_moments(d: int, k: int, max_m: int) -> tuple[Fraction, ...]:
    """Exact law of the distance-k operator of the d-regular tree at the root.

    Computed entirely on the polynomial side: moments of Q_k(b) with b
    Kesten-McKay distributed.  Independent of the walk-counting engines.
    """
    return jacobi_moments(kesten_mckay_params(d), max_m, tree_distance_poly(d, k))
