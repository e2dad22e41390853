"""Butcher tableaux for the line-integral Runge-Kutta family.

A method with k Gauss abscissae and polynomial degree s - 1 has

    A = I diag(eta) P^T Omega,

where P[i, j] = P_j(c_i), I[i, j] = int_0^{c_i} P_j, Omega = diag(b) and
eta rescales the s basis directions (all ones for the plain method).  The
same matrix factors through the square basis matrix of size s + 1 and a
tridiagonal-plus-tail step matrix, which the tests use as a structural
cross-check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .polybasis import gauss_rule, integral_table, legendre_table, xi_coefficient
from .problems import ConfigError, _check_count

__all__ = [
    "TableauMatrices",
    "build_hbvm_tableau",
    "xhat_matrix",
    "tableau_to_json",
]


@dataclass(frozen=True)
class TableauMatrices:
    """k-stage tableau with its line-integral factors.

    P and I are k x s (basis values and antiderivatives at the abscissae),
    PTB = P^T diag(b) is the s x k projection onto the basis, and
    A = I PTB, the eta = 1 case of the I diag(eta) PTB the steppers apply.
    """

    s: int
    k: int
    c: np.ndarray
    b: np.ndarray
    P: np.ndarray
    I: np.ndarray
    PTB: np.ndarray
    A: np.ndarray


def build_hbvm_tableau(k: int, s: int) -> TableauMatrices:
    """Tableau of HBVM(k, s); reduces to the s-stage Gauss method when k = s.

    The counts are checked on every call, then the record is cached per
    (k, s) and its arrays are read-only, so every caller (the steppers
    included) shares one copy of the operators.
    """
    k, s = _check_count("k", k), _check_count("s", s, 1)
    if k < s:
        raise ConfigError(f"need k >= s, got k={k}, s={s}")
    return _hbvm_tableau(k, s)


@functools.lru_cache(maxsize=None)
def _hbvm_tableau(k: int, s: int) -> TableauMatrices:
    rule = gauss_rule(k)
    c, b = rule.nodes, rule.weights
    P = legendre_table(s - 1, c).T
    I = integral_table(s - 1, c).T
    PTB = P.T * b
    # the steppers never form A: they apply I diag(eta) to the projections PTB f
    A = I @ PTB
    for arr in (c, b, P, I, PTB, A):
        arr.flags.writeable = False
    return TableauMatrices(s=s, k=k, c=c, b=b, P=P, I=I, PTB=PTB, A=A)


def xhat_matrix(s: int) -> np.ndarray:
    """(s+1) x s step matrix X with int_0^c P_j = sum_i X[i, j] P_i(c)."""
    s = _check_count("s", s, 1)
    X = np.zeros((s + 1, s))
    X[0, 0] = 0.5
    for j in range(1, s):
        X[j - 1, j] = -xi_coefficient(j)
    for j in range(s):
        X[j + 1, j] = xi_coefficient(j + 1)
    return X


def tableau_to_json(tab: TableauMatrices) -> dict:
    """JSON-ready dict with fields s, k, c, b, A."""
    return {
        "s": tab.s,
        "k": tab.k,
        "c": tab.c.tolist(),
        "b": tab.b.tolist(),
        "A": tab.A.tolist(),
    }
