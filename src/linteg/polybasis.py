"""Shifted orthonormal Legendre polynomials on [0, 1] and Gauss-Legendre rules.

The basis used everywhere in this package is the shifted Legendre family
normalized to unit L2 norm on [0, 1]:

    int_0^1 P_i(x) P_j(x) dx = delta_ij,   deg P_j = j,   P_j(1) > 0,

so P_0 = 1 and P_1(x) = sqrt(3) (2x - 1).  Evaluation goes through the
standard three-term recurrence on [-1, 1] followed by the sqrt(2j+1)
rescaling; antiderivatives use the sparse two-term identity that also
underlies the tridiagonal step matrix in :mod:`linteg.tableau`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problems import _check_array, _check_count

__all__ = [
    "gauss_rule",
    "legendre_table",
    "integral_table",
    "xi_coefficient",
]

_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITERS = 100


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre rule on [0, 1]: nodes in (0, 1) ascending, positive weights."""

    n: int
    nodes: np.ndarray
    weights: np.ndarray


def _legendre_rows(n: int, t: np.ndarray) -> np.ndarray:
    """Standard (unscaled) Legendre P_0 .. P_n at t in [-1, 1]; shape (n + 1,) + t.shape."""
    out = np.empty((n + 1,) + t.shape, dtype=float)
    out[0] = 1.0
    if n >= 1:
        out[1] = t
    for j in range(2, n + 1):
        out[j] = ((2 * j - 1) * t * out[j - 1] - (j - 1) * out[j - 2]) / j
    return out


def _standard_legendre_pair(n: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value and derivative of the standard Legendre P_n, n >= 1, on [-1, 1]."""
    pm, p = _legendre_rows(n, t)[-2:]
    # derivative identity; nodes stay strictly inside (-1, 1) so t^2 != 1
    d = n * (t * p - pm) / (t * t - 1.0)
    return p, d


def gauss_rule(n: int) -> QuadratureRule:
    """Return the n-point Gauss-Legendre rule on [0, 1] (exact to degree 2n-1)."""
    n = _check_count("n", n, 1)
    i = np.arange(1, n + 1)
    t = np.cos(math.pi * (4 * i - 1) / (4 * n + 2))
    for _ in range(_NEWTON_MAX_ITERS):
        p, d = _standard_legendre_pair(n, t)
        dt = p / d
        t = t - dt
        if np.max(np.abs(dt)) <= _NEWTON_TOL:
            break
    else:
        raise RuntimeError(f"Gauss-Legendre Newton iteration stalled for n={n}")
    # enforce the exact +/- symmetry of the root set
    t = 0.5 * (t - t[::-1])
    _, d = _standard_legendre_pair(n, t)
    w = 2.0 / ((1.0 - t * t) * d * d)
    w = 0.5 * (w + w[::-1])
    order = np.argsort(t)
    nodes = 0.5 * (t[order] + 1.0)
    weights = 0.5 * w[order]
    return QuadratureRule(n=n, nodes=nodes, weights=weights)


def legendre_table(n_max: int, x) -> np.ndarray:
    """Evaluate P_0 .. P_n_max at the points x; returns shape (n_max + 1,) + x.shape."""
    n_max = _check_count("n_max", n_max, 0)
    t = 2.0 * _check_array("x", x) - 1.0
    scale = np.sqrt(2.0 * np.arange(n_max + 1) + 1.0)
    return _legendre_rows(n_max, t) * scale.reshape((n_max + 1,) + (1,) * t.ndim)


def xi_coefficient(i: int) -> float:
    """Recurrence constant xi_i = 1 / (2 sqrt(4 i^2 - 1)) linking P_{i-1} and P_i integrals."""
    i = _check_count("i", i, 1)
    return 1.0 / (2.0 * math.sqrt(4.0 * i * i - 1.0))


def integral_table(n_max: int, c) -> np.ndarray:
    """Antiderivatives int_0^c P_j for j = 0 .. n_max; returns shape (n_max + 1,) + c.shape.

    Uses int_0^c P_j = xi_{j+1} P_{j+1}(c) - xi_j P_{j-1}(c) for j >= 1 and
    int_0^c P_0 = c; at c = 0 all values vanish identically.
    """
    n_max = _check_count("n_max", n_max, 0)
    c = _check_array("c", c)
    table = legendre_table(n_max + 1, c)
    out = np.empty((n_max + 1,) + c.shape, dtype=float)
    out[0] = c
    for j in range(1, n_max + 1):
        out[j] = xi_coefficient(j + 1) * table[j + 1] - xi_coefficient(j) * table[j - 1]
    return out
