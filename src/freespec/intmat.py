"""Dense integer matrix helpers for exact entrywise identity checks.

Matrices are plain lists of lists of Python ints, so every operation is
exact regardless of magnitude.  Intended for the small graphs that the
decomposition checks work on; walk counting uses sparse vectors instead.
"""
from __future__ import annotations

from .graphs import RootedGraph


def adjacency_matrix(g: RootedGraph) -> list[list[int]]:
    n = g.vertex_count
    mat = [[0] * n for _ in range(n)]
    for v in range(n):
        for u in g.neighbors[v]:
            mat[v][u] = 1
    return mat


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def max_abs_diff(a, b) -> int:
    return max(
        (abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb)),
        default=0,
    )


def poly_of_matrix(coeffs, a):
    """Evaluate sum_j coeffs[j] * a^j with integer coefficients, exactly."""
    n = len(a)
    acc = mat_scale(coeffs[0], identity(n)) if coeffs else [[0] * n for _ in range(n)]
    power = identity(n)
    for c in coeffs[1:]:
        power = mat_mul(power, a)
        if c:
            acc = mat_add(acc, mat_scale(c, power))
    return acc
