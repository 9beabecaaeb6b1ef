"""Exact polynomial and moment algebra.

Polynomials carry dense Fraction coefficients; every moment computation in
this module is exact rational arithmetic.  Floating point appears only in
density evaluation, which is inherently continuous.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InsufficientBaseMomentsError


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

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result = Poly([1])
        for _ in range(n):
            result = result * self
        return result

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def scale_arg(self, c) -> "Poly":
        """P(c*x) for a rational scale c."""
        c = Fraction(c)
        return Poly([coef * c**j for j, coef in enumerate(self.coeffs)])

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Poly(0)"
        terms = []
        for j, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*x^{j}" if j else f"{c}")
        return "Poly(" + " + ".join(terms) + ")"


X = Poly([0, 1])


def chebyshev_monic(k: int) -> Poly:
    """Monic Chebyshev family: P0 = 1, P1 = x, x*Pn = P(n+1) + P(n-1)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    prev, cur = Poly([1]), X
    if k == 0:
        return prev
    for _ in range(k - 1):
        prev, cur = cur, X * cur - prev
    return cur


def chebyshev_classical(k: int) -> Poly:
    """Second-kind Chebyshev family: U0 = 1, U1 = 2x, U(k+1) = 2x*Uk - U(k-1).

    k = -1 returns the zero polynomial by convention.
    """
    if k < -1:
        raise ValueError("k must be >= -1")
    if k == -1:
        return Poly()
    prev, cur = Poly([1]), Poly([0, 2])
    if k == 0:
        return prev
    two_x = Poly([0, 2])
    for _ in range(k - 1):
        prev, cur = cur, two_x * cur - prev
    return cur


def tree_distance_poly(d: int, k: int) -> Poly:
    """The polynomial Q_k with A^{[k]} = Q_k(A) on the d-regular tree.

    Q0 = 1, Q1 = x, Q2 = x^2 - d, then x*Qk = Q(k+1) + (d-1)*Q(k-1).
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return Poly([1])
    if k == 1:
        return X
    prev, cur = X, Poly([-d, 0, 1])
    for _ in range(k - 2):
        prev, cur = cur, X * cur - (d - 1) * prev
    return cur


def tree_poly_chebyshev_identity(d: int, k: int) -> bool:
    """Exact bridge between Q_k and the scaled second-kind Chebyshev form.

    Verifies coefficientwise that
      (d-1)^{k/2} U_k(x / (2 sqrt(d-1))) - (d-1)^{(k-2)/2} U_{k-2}(x / (2 sqrt(d-1)))
    equals Q_k(x).  Both sides are rational because U_j has parity j, so the
    half-integer powers of (d-1) always pair up.
    """
    if d < 2 or k < 1:
        raise ValueError("need d >= 2 and k >= 1")

    def scaled(u: Poly, offset: int) -> Poly:
        out = [Fraction(0)] * (u.degree + 1 if u else 1)
        for j, c in enumerate(u.coeffs):
            if c == 0:
                continue
            if (offset - j) % 2:
                raise ValueError("parity violation; U_j should have parity j")
            out[j] = c * Fraction((d - 1) ** ((offset - j) // 2), 2**j)
        return Poly(out)

    lhs = scaled(chebyshev_classical(k), k) - scaled(chebyshev_classical(k - 2), k - 2)
    return lhs == tree_distance_poly(d, k)


def scaled_limit_poly(d: int, k: int) -> Poly:
    """d^{-k/2} * Q_k(sqrt(d) * x), exactly (Q_k has parity k)."""
    if d < 2:
        raise ValueError("d must be >= 2")
    q = tree_distance_poly(d, k)
    out = [Fraction(0)] * (q.degree + 1 if q else 1)
    for j, c in enumerate(q.coeffs):
        if c == 0:
            continue
        if (k - j) % 2:
            raise ValueError("parity violation; Q_k should have parity k")
        out[j] = c / Fraction(d ** ((k - j) // 2))
    return Poly(out)


@dataclass(frozen=True)
class JacobiParams:
    """Three-term recursion coefficients; finite prefixes extend by last value."""

    beta: tuple
    gamma: tuple

    def __post_init__(self):
        object.__setattr__(self, "beta", tuple(Fraction(b) for b in self.beta))
        object.__setattr__(self, "gamma", tuple(Fraction(g) for g in self.gamma))
        if not self.beta or not self.gamma:
            raise ValueError("beta and gamma must be nonempty")
        if any(g <= 0 for g in self.gamma):
            raise ValueError("gamma entries must be positive")

    def beta_at(self, i: int) -> Fraction:
        return self.beta[min(i, len(self.beta) - 1)]

    def gamma_at(self, i: int) -> Fraction:
        return self.gamma[min(i, len(self.gamma) - 1)]


class MomentSequence:
    """Exact moments m_0..m_M of a probability law (m_0 = 1)."""

    __slots__ = ("values",)

    def __init__(self, values):
        vals = tuple(Fraction(v) for v in values)
        if not vals or vals[0] != 1:
            raise ValueError("moment sequences start with m_0 = 1")
        self.values = vals

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, m: int) -> Fraction:
        return self.values[m]

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other) -> bool:
        return isinstance(other, MomentSequence) and self.values == other.values

    def hankel_positive(self) -> bool:
        """Leading Hankel minors [m_{i+j}] all have nonnegative determinant."""
        max_s = (len(self.values) - 1) // 2
        for s in range(max_s + 1):
            mat = [
                [self.values[i + j] for j in range(s + 1)] for i in range(s + 1)
            ]
            if _det_fraction(mat) < 0:
                return False
        return True


def _det_fraction(mat) -> Fraction:
    n = len(mat)
    m = [row[:] for row in mat]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor:
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return det


def jacobi_moments(params: JacobiParams, max_m: int) -> MomentSequence:
    """Moments as (0,0) entries of powers of the truncated Jacobi operator.

    The operator is tridiagonal with diagonal beta, superdiagonal 1 and
    subdiagonal gamma; truncation at level floor(max_m/2) + 1 is exact
    because a returning path of length m never climbs above level m/2.
    """
    if max_m < 0:
        raise ValueError("max_m must be nonnegative")
    levels = max_m // 2 + 2
    vec = [Fraction(0)] * levels
    vec[0] = Fraction(1)
    moments = [Fraction(1)]
    for _ in range(max_m):
        nxt = [Fraction(0)] * levels
        for i, c in enumerate(vec):
            if c == 0:
                continue
            nxt[i] += params.beta_at(i) * c
            if i + 1 < levels:
                nxt[i + 1] += c
            if i > 0:
                nxt[i - 1] += params.gamma_at(i - 1) * c
        vec = nxt
        moments.append(vec[0])
    return MomentSequence(moments)


def semicircle_moments(max_m: int) -> MomentSequence:
    """Moments of the standard semicircle law; even moments are Catalan."""
    return jacobi_moments(JacobiParams(beta=(0,), gamma=(1,)), max_m)


def kesten_mckay_moments(d: int, max_m: int) -> MomentSequence:
    """Moments of the Kesten-McKay law (gamma_0 = d, gamma_n = d - 1)."""
    if d < 2:
        raise ValueError("d must be >= 2")
    return jacobi_moments(JacobiParams(beta=(0,), gamma=(d, d - 1)), max_m)


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


def pushforward_moments(p: Poly, base: MomentSequence, max_m: int) -> MomentSequence:
    """Moments of P(X) where X has the given base moments.

    m_n(P(X)) pairs the coefficients of P^n with the base moments, so the
    base must extend to degree deg(P) * max_m.
    """
    if max_m < 0:
        raise ValueError("max_m must be nonnegative")
    deg = max(p.degree, 0)
    if deg * max_m >= len(base):
        raise InsufficientBaseMomentsError(
            f"need base moments to order {deg * max_m}, have {len(base) - 1}"
        )
    moments = [Fraction(1)]
    power = Poly([1])
    for _ in range(max_m):
        power = power * p
        moments.append(
            sum((c * base[j] for j, c in enumerate(power.coeffs)), Fraction(0))
        )
    return MomentSequence(moments)


def integrate_poly(p: Poly, base: MomentSequence) -> Fraction:
    """Pair a polynomial's coefficients with a moment sequence (= its integral)."""
    if p.degree >= len(base):
        raise InsufficientBaseMomentsError(
            f"need base moments to order {p.degree}, have {len(base) - 1}"
        )
    return sum((c * base[j] for j, c in enumerate(p.coeffs)), Fraction(0))


@lru_cache(maxsize=None)
def _tree_law_refs(d: int, k: int, max_m: int) -> tuple:
    """Cached pushforward moments of Q_k under the Kesten-McKay law."""
    q = tree_distance_poly(d, k)
    base = kesten_mckay_moments(d, max(q.degree, 0) * max_m)
    return tuple(pushforward_moments(q, base, max_m))


def tree_distance_k_law_moments(d: int, k: int, max_m: int) -> MomentSequence:
    """Exact law of the distance-k operator of the d-regular tree at the root.

    Computed entirely on the polynomial side: moments of Q_k(b) with b
    Kesten-McKay distributed.  Independent of the walk-counting engines.
    """
    return MomentSequence(_tree_law_refs(d, k, max_m))
