"""Quadrature rules and the orthonormal shifted Legendre basis."""

import hashlib

import numpy as np
import pytest

from linteg import polybasis
from linteg.polybasis import (
    gauss_rule,
    integral_table,
    legendre_table,
    xi_coefficient,
)

# values computed with sympy (exact Gram-Schmidt on monomials) and mpmath
# at 50 digits, rounded to nearest float
P5_AT_037 = -1.1378231359102933
P3_AT_02 = 0.9524704719832526
INT_P2_TO_04 = 0.1073312629199899
INT_P4_TO_07 = 0.11844
GAUSS5_NODES = [0.046910077030668004, 0.23076534494715845, 0.5,
                0.7692346550528415, 0.953089922969332]
GAUSS5_WEIGHTS = [0.11846344252809454, 0.23931433524968324, 0.28444444444444444,
                  0.23931433524968324, 0.11846344252809454]


def test_legendre_frozen_values():
    assert legendre_table(5, np.array(0.37))[5] == pytest.approx(P5_AT_037, abs=1e-14)
    assert legendre_table(3, np.array(0.2))[3] == pytest.approx(P3_AT_02, abs=1e-14)
    assert legendre_table(0, np.array(0.83))[0] == 1.0


def test_integral_frozen_values():
    assert integral_table(2, np.array(0.4))[2] == pytest.approx(INT_P2_TO_04, abs=1e-15)
    assert integral_table(4, np.array(0.7))[4] == pytest.approx(INT_P4_TO_07, abs=1e-15)


def test_gauss5_frozen_values():
    rule = gauss_rule(5)
    np.testing.assert_allclose(rule.nodes, GAUSS5_NODES, rtol=0, atol=5e-16)
    np.testing.assert_allclose(rule.weights, GAUSS5_WEIGHTS, rtol=0, atol=5e-16)


@pytest.mark.parametrize("n", range(1, 13))
def test_gauss_rule_basics(n):
    rule = gauss_rule(n)
    assert rule.n == n
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.nodes > 0) and np.all(rule.nodes < 1)
    assert np.all(rule.weights > 0)
    assert np.sum(rule.weights) == pytest.approx(1.0, abs=1e-15)
    # rules on [0,1] are symmetric about 1/2
    np.testing.assert_allclose(rule.nodes + rule.nodes[::-1], 1.0, atol=1e-15)
    np.testing.assert_allclose(rule.weights, rule.weights[::-1], atol=1e-16)


@pytest.mark.parametrize("n", range(1, 13))
def test_gauss_exactness_degree_2n_minus_1(n):
    # a rule with n nodes integrates random polynomials up to degree 2n-1
    rng = np.random.default_rng(1000 + n)
    rule = gauss_rule(n)
    for _ in range(5):
        coeffs = rng.standard_normal(2 * n)
        powers = np.arange(2 * n)
        exact = np.sum(coeffs / (powers + 1.0))
        approx = np.sum(rule.weights * (coeffs @ rule.nodes**powers[:, None]))
        assert approx == pytest.approx(exact, rel=1e-13, abs=1e-14)


def test_gauss_not_exact_beyond_2n_minus_1():
    rule = gauss_rule(2)
    approx = float(np.sum(rule.weights * rule.nodes**4))
    assert abs(approx - 0.2) > 1e-4


# sha256 over the nodes, then the weights, of the n-point rules n = 1 .. 40,
# recorded when the Newton step had its own copy of the Legendre recurrence
GAUSS_RULES_SHA256 = "50b503985507b9fc7c97a97c61a785cc89b94d4452c5f803cfddc1d31ad51c65"


def test_gauss_rule_bytes_are_pinned():
    digest = hashlib.sha256()
    for n in range(1, 41):
        rule = gauss_rule(n)
        digest.update(rule.nodes.tobytes())
        digest.update(rule.weights.tobytes())
    assert digest.hexdigest() == GAUSS_RULES_SHA256


def test_gauss_rule_validation():
    with pytest.raises(ValueError):
        gauss_rule(0)
    with pytest.raises(ValueError):
        gauss_rule(-3)
    with pytest.raises(ValueError, match=r"^need n_max >= 0, got n_max=-1$"):
        legendre_table(-1, 0.5)


def test_gauss_rule_raises_when_newton_stalls(monkeypatch):
    # with no Newton step allowed the nodes never meet the tolerance
    monkeypatch.setattr(polybasis, "_NEWTON_MAX_ITERS", 0)
    with pytest.raises(RuntimeError, match=r"^Gauss-Legendre Newton iteration stalled for n=3$"):
        gauss_rule(3)


def test_orthonormality():
    # inner products over [0,1] with a rule exact through degree 23
    rule = gauss_rule(12)
    table = legendre_table(10, rule.nodes)
    gram = (table * rule.weights) @ table.T
    np.testing.assert_allclose(gram, np.eye(11), rtol=0, atol=1e-13)


def test_legendre_table_shape_and_consistency():
    x = np.linspace(0.0, 1.0, 7).reshape(7, 1)
    table = legendre_table(6, x)
    assert table.shape == (7, 7, 1)
    for j in range(7):
        np.testing.assert_array_equal(table[j], legendre_table(j, x)[j])


def test_integral_table_matches_quadrature():
    # columns of the closed-form antiderivative table agree with direct
    # quadrature of P_j over [0, c]
    rule = gauss_rule(8)
    c = np.array([0.0, 0.17, 0.5, 0.93, 1.0])
    table = integral_table(5, c)
    assert table.shape == (6, 5)
    for j in range(6):
        for i, ci in enumerate(c):
            values = legendre_table(j, ci * rule.nodes)[j]
            assert table[j, i] == pytest.approx(
                ci * np.sum(rule.weights * values), abs=1e-14
            )


def test_integral_table_endpoints():
    c = np.array([0.0, 1.0])
    table = integral_table(6, c)
    np.testing.assert_allclose(table[:, 0], 0.0, atol=1e-16)
    # over the whole interval every P_j with j >= 1 integrates to zero
    assert table[0, 1] == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(table[1:, 1], 0.0, atol=1e-15)


def test_integral_is_antiderivative():
    # centered differences of the integral recover the integrand
    j = 4
    c = np.linspace(0.1, 0.9, 17)
    eps = 1e-6
    fd = (integral_table(j, c + eps)[j] - integral_table(j, c - eps)[j]) / (2 * eps)
    np.testing.assert_allclose(fd, legendre_table(j, c)[j], rtol=0, atol=1e-8)


def test_xi_coefficient():
    for i in (1, 2, 3, 7):
        assert xi_coefficient(i) == pytest.approx(
            0.5 / np.sqrt(4.0 * i * i - 1.0), abs=1e-16
        )
    with pytest.raises(ValueError):
        xi_coefficient(0)
