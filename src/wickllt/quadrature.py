"""Tensorized Gauss-Hermite quadrature against the standard Gaussian measure,
and the uniform tensor grid that shares its point layout."""

from __future__ import annotations

import math

import numpy as np

# The rule's eigenvalue problem costs O(n^3): 0.1-0.2 s at 1024 nodes and
# about 1.3 s at 2048. A quadrature distance takes max(2K, 8) nodes per axis
# and doubles them for its error estimate, so at K <= 170 it needs at most 680.
MAX_RULE_NODES = 1024
# A tensor rule has nodes**d points: quadrature distances stop at this
# dimension, and Monte Carlo takes over above it.
MAX_QUADRATURE_DIM = 3


def gauss_hermite_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights integrating exactly against N(0,1) up to degree 2n-1.

    Golub & Welsch (1969): the nodes are the eigenvalues of the Jacobi matrix
    of the probabilists' Hermite recurrence (off-diagonal sqrt(k)), made
    exactly symmetric. The weights are the Christoffel numbers
    1 / sum_k p_k(x)^2 over the orthonormal polynomials
    p_{k+1} = (x p_k - sqrt(k) p_{k-1}) / sqrt(k+1). Those sums grow like
    exp(x^2 / 2) at the outer nodes and overflow a double from 371 nodes on,
    so the recurrence runs scaled by exact powers of two; weights far out in
    the tail underflow to subnormals or zero.
    """
    if nodes < 1:
        raise ValueError("need at least one quadrature node")
    if nodes > MAX_RULE_NODES:
        raise ValueError(f"Gauss-Hermite rule limited to {MAX_RULE_NODES} nodes, got {nodes}")
    x = np.linalg.eigvalsh(np.diag(np.sqrt(np.arange(1.0, nodes)), -1))
    x = (x - x[::-1]) / 2.0
    prev, cur = np.zeros(nodes), np.ones(nodes)
    # the true p_k and sum are the held ones times 2**shift and 4**shift
    total, shift = np.ones(nodes), np.zeros(nodes, dtype=np.int64)
    for k in range(1, nodes):
        prev, cur = cur, (x * cur - math.sqrt(k - 1) * prev) / math.sqrt(k)
        total += cur * cur
        half = np.frexp(total)[1] // 2
        prev, cur, total = np.ldexp(prev, -half), np.ldexp(cur, -half), np.ldexp(total, -2 * half)
        shift += half
    return x, np.ldexp(1.0 / total, -2 * shift)


def _tensor_points(axis: np.ndarray, dimension: int) -> np.ndarray:
    """Every d-tuple of axis values, shape (n^d, d), the last coordinate fastest."""
    grids = np.meshgrid(*([axis] * dimension), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


def tensor_rule(dimension: int, nodes_per_axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Product rule on R^d: points (n^d, d) and matching probability weights."""
    x, w = gauss_hermite_rule(nodes_per_axis)
    return _tensor_points(x, dimension), np.prod(_tensor_points(w, dimension), axis=1)


def tensor_grid(dimension: int, points_per_axis: int, halfwidth: float) -> np.ndarray:
    """Uniform tensor grid on [-halfwidth, halfwidth]^d, shape (n^d, d)."""
    return _tensor_points(np.linspace(-halfwidth, halfwidth, points_per_axis), dimension)
