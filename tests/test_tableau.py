"""Butcher tableau assembly for the conserving collocation-type methods."""

import hashlib
import sys
import threading

import numpy as np
import pytest

from linteg import tableau
from linteg.polybasis import gauss_rule, legendre_table
from linteg.problems import ConfigError
from linteg.tableau import (
    TableauMatrices,
    build_hbvm_tableau,
    tableau_to_json,
    xhat_matrix,
)

from conftest import _recorded

SQRT3 = np.sqrt(3.0)
SQRT15 = np.sqrt(15.0)

# classical Gauss tableaux, textbook closed forms
GAUSS_LITERATURE = {
    1: (np.array([0.5]), np.array([1.0]), np.array([[0.5]])),
    2: (
        np.array([0.5 - SQRT3 / 6, 0.5 + SQRT3 / 6]),
        np.array([0.5, 0.5]),
        np.array([[0.25, 0.25 - SQRT3 / 6], [0.25 + SQRT3 / 6, 0.25]]),
    ),
    3: (
        np.array([0.5 - SQRT15 / 10, 0.5, 0.5 + SQRT15 / 10]),
        np.array([5.0 / 18.0, 4.0 / 9.0, 5.0 / 18.0]),
        np.array([
            [5 / 36, 2 / 9 - SQRT15 / 15, 5 / 36 - SQRT15 / 30],
            [5 / 36 + SQRT15 / 24, 2 / 9, 5 / 36 - SQRT15 / 24],
            [5 / 36 + SQRT15 / 30, 2 / 9 + SQRT15 / 15, 5 / 36],
        ]),
    ),
}

# independent reconstruction from scipy.special.eval_sh_legendre and
# scipy.integrate.quad, frozen
HBVM_6_3_A = np.array([
    [0.02118986587043402, 0.02203885735318003, -0.0013904524627197223, -0.01231856421496774, -0.001308249492014398, 0.005553785844511699],
    [0.08027398568055576, 0.09397183926325947, 0.018076563281334695, -0.029052450072197086, -0.006715830777006519, 0.012841199390921182],
    [0.10848692601044932, 0.16093304938897882, 0.10126689535979655, 0.02229504137159946, -0.00778450718672612, -0.0045069979856966445],
    [0.09016924417528152, 0.1881652937107956, 0.21166192591474625, 0.1326900719265492, 0.01944773713509064, -0.022824679820864446],
    [0.07282104679866368, 0.18709661730107602, 0.2630094173585428, 0.21588040400501102, 0.08640894726080998, 0.005388260509029109],
    [0.08010846034507318, 0.18168903601608388, 0.2462755315013134, 0.2353474197490654, 0.15834192917088946, 0.06447238031915087],
])


@pytest.mark.parametrize("s", [1, 2, 3])
def test_gauss_reduction(s):
    c, b, A = GAUSS_LITERATURE[s]
    tab = build_hbvm_tableau(s, s)
    np.testing.assert_allclose(tab.c, c, rtol=0, atol=1e-13)
    np.testing.assert_allclose(tab.b, b, rtol=0, atol=1e-13)
    np.testing.assert_allclose(tab.A, A, rtol=0, atol=1e-13)


def test_hbvm_6_3_frozen_matrix():
    tab = build_hbvm_tableau(6, 3)
    np.testing.assert_allclose(tab.A, HBVM_6_3_A, rtol=0, atol=1e-13)
    np.testing.assert_allclose(np.sum(tab.A, axis=1), tab.c, rtol=0, atol=1e-13)


def test_tableau_fields():
    tab = build_hbvm_tableau(7, 2)
    assert isinstance(tab, TableauMatrices)
    assert tab.s == 2 and tab.k == 7
    assert tab.A.shape == (7, 7)
    assert tab.P.shape == (7, 2)
    assert tab.I.shape == (7, 2)
    rule = gauss_rule(7)
    np.testing.assert_array_equal(tab.c, rule.nodes)
    np.testing.assert_array_equal(tab.b, rule.weights)
    np.testing.assert_array_equal(tab.P, legendre_table(1, rule.nodes).T)
    assert tab.PTB.shape == (2, 7)
    np.testing.assert_array_equal(tab.PTB, tab.P.T * tab.b)


def test_hbvm_tableau_cached_read_only_and_thread_safe():
    tab = build_hbvm_tableau(10, 4)
    assert build_hbvm_tableau(10, 4) is tab
    for arr in (tab.c, tab.b, tab.P, tab.I, tab.PTB, tab.A):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        tab.A[0, 0] = 0.0
    # concurrent misses may build twice, but every caller sees the same values
    tableau._hbvm_tableau.cache_clear()
    results = []
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=lambda: results.append(build_hbvm_tableau(10, 4)))
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old_interval)
    assert len(results) == 8
    for other in results:
        for name in ("P", "I", "PTB", "A"):
            np.testing.assert_array_equal(getattr(other, name), getattr(tab, name))


# sha256 over c, b, P, I, PTB and A of every HBVM(k, s) with 1 <= s <= k <= 20,
# k the outer loop, recorded when the Gauss rule's Newton step and
# legendre_table each had their own copy of the Legendre recurrence, per
# arithmetic (see conftest)
HBVM_TABLEAUX_SHA256 = {
    ("SkylakeX", True): "053bef47faf0389affe4ed245636130a8d6920a121016ebea35382df1887c2c3",
    ("SkylakeX", False): "053bef47faf0389affe4ed245636130a8d6920a121016ebea35382df1887c2c3",
    ("Haswell", True): "ef3f14c0fd0bf9620466f242c934d6ebc85e0db0a9b29fe1570fa23a069125ee",
}


def test_hbvm_tableau_bytes_are_pinned():
    digest = hashlib.sha256()
    for k in range(1, 21):
        for s in range(1, k + 1):
            tab = tableau._hbvm_tableau.__wrapped__(k, s)  # built afresh, not read from the cache
            for arr in (tab.c, tab.b, tab.P, tab.I, tab.PTB, tab.A):
                digest.update(np.ascontiguousarray(arr).tobytes())
    assert digest.hexdigest() == _recorded(HBVM_TABLEAUX_SHA256)


# the same over every HBVM(k, s) with 1 <= s <= k and 21 <= k <= 40, the
# large-(k, s) methods that spend order rather than steps
HBVM_LARGE_TABLEAUX_SHA256 = {
    ("SkylakeX", True): "3db37e39bf52bcb4a3f3295b24b6d80d1fa88f1d3dc9b77dad52e855e621bcba",
    ("SkylakeX", False): "3db37e39bf52bcb4a3f3295b24b6d80d1fa88f1d3dc9b77dad52e855e621bcba",
    ("Haswell", True): "3226c1be292a91eb4284b290c75976c45b92416eb4e911a4ca5336e2a942b2d2",
}


def test_large_hbvm_tableau_bytes_are_pinned():
    digest = hashlib.sha256()
    for k in range(21, 41):
        for s in range(1, k + 1):
            tab = tableau._hbvm_tableau.__wrapped__(k, s)
            for arr in (tab.c, tab.b, tab.P, tab.I, tab.PTB, tab.A):
                digest.update(np.ascontiguousarray(arr).tobytes())
    assert digest.hexdigest() == _recorded(HBVM_LARGE_TABLEAUX_SHA256)


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 12])
def test_w_transformation_identity(s, k):
    if k < s:
        return
    tab = build_hbvm_tableau(k, s)
    P_ext = legendre_table(s, tab.c).T
    X = xhat_matrix(s)
    rebuilt = P_ext @ X @ (tab.P.T * tab.b)
    np.testing.assert_allclose(tab.A, rebuilt, rtol=0, atol=1e-12)


def test_xhat_matrix_values():
    X = xhat_matrix(3)
    assert X.shape == (4, 3)
    xi = lambda i: 0.5 / np.sqrt(4.0 * i * i - 1.0)
    expected = np.array([
        [0.5, -xi(1), 0.0],
        [xi(1), 0.0, -xi(2)],
        [0.0, xi(2), 0.0],
        [0.0, 0.0, xi(3)],
    ])
    np.testing.assert_allclose(X, expected, rtol=0, atol=1e-16)


def test_order_conditions_b():
    # the underlying quadrature weights satisfy sum b c^(q-1) = 1/q far
    # beyond the stage count
    tab = build_hbvm_tableau(12, 3)
    for q in range(1, 13):
        assert np.sum(tab.b * tab.c ** (q - 1)) == pytest.approx(1.0 / q, abs=1e-14)


def test_hbvm_40_20_rule_is_exact_to_degree_79():
    # k = 40 Gauss nodes integrate every polynomial of degree 2k - 1 exactly
    tab = build_hbvm_tableau(40, 20)
    for q in range(1, 81):
        assert np.sum(tab.b * tab.c ** (q - 1)) == pytest.approx(1.0 / q, abs=1e-14)


def test_simplifying_assumption_low_order():
    # C(s): sum_j a_ij c_j^(q-1) = c_i^q / q for q <= s
    tab = build_hbvm_tableau(9, 4)
    for q in range(1, 5):
        lhs = tab.A @ tab.c ** (q - 1)
        np.testing.assert_allclose(lhs, tab.c**q / q, rtol=0, atol=1e-13)


def _scaled_a(k, s, eta):
    # the Butcher matrix of an ELIM step with scaling eta, from the HBVM
    # factors: (I diag(eta)) PTB; the stepper applies I diag(eta) to PTB f
    tab = build_hbvm_tableau(k, s)
    return (tab.I * np.asarray(eta, dtype=float)) @ tab.PTB


@pytest.mark.parametrize("eta1", [1.0, 0.8, 1.37, -0.2])
def test_elim_2_2_closed_form(eta1):
    expected = np.array([
        [0.25 + (eta1 - 1.0) * SQRT3 / 12, 0.25 - (eta1 + 1.0) * SQRT3 / 12],
        [0.25 + (eta1 + 1.0) * SQRT3 / 12, 0.25 - (eta1 - 1.0) * SQRT3 / 12],
    ])
    np.testing.assert_allclose(_scaled_a(2, 2, [1.0, eta1]), expected, rtol=0, atol=1e-14)


def test_elim_identity_scaling_is_hbvm():
    np.testing.assert_array_equal(_scaled_a(8, 3, np.ones(3)), build_hbvm_tableau(8, 3).A)


def test_elim_scaling_is_rank_one_update_per_eta():
    # perturbing one eta component changes A by a rank-1 matrix
    delta = _scaled_a(6, 3, [1.0, 1.0, 0.7]) - _scaled_a(6, 3, np.ones(3))
    rank = np.linalg.matrix_rank(delta, tol=1e-12)
    assert rank == 1


def test_build_validation():
    with pytest.raises(ValueError):
        build_hbvm_tableau(2, 3)
    with pytest.raises(ValueError):
        build_hbvm_tableau(0, 0)
    with pytest.raises(ValueError, match="need s >= 1"):
        xhat_matrix(0)


@pytest.mark.parametrize("int_first", [False, True], ids=["float-first", "int-first"])
def test_non_integer_counts_fail_whatever_the_cache_holds(int_first):
    # the counts are checked before the cache is read, so 3.0 or True fails
    # even when an equal int has an entry; both call orders run in this one process
    tableau._hbvm_tableau.cache_clear()
    if int_first:
        build_hbvm_tableau(3, 2)
        build_hbvm_tableau(1, 1)
    for call, args in (
        (build_hbvm_tableau, (3.0, 2)), (build_hbvm_tableau, (3, 2.0)),
        (build_hbvm_tableau, (True, 1)), (gauss_rule, (3.0,)), (gauss_rule, (True,)),
    ):
        with pytest.raises(ConfigError, match="must be an integer"):
            call(*args)
    tab = build_hbvm_tableau(3, 2)
    assert build_hbvm_tableau(3, 2) is tab
    # NumPy integers stay counts and find the int's entry
    wide = build_hbvm_tableau(np.int64(3), np.int64(2))
    assert wide is tab
    # a failed call leaves no entry; the cache holds one record per (k, s)
    assert tableau._hbvm_tableau.cache_info().currsize == (2 if int_first else 1)


def test_tableau_to_json_roundtrip():
    tab = build_hbvm_tableau(4, 2)
    payload = tableau_to_json(tab)
    assert payload["s"] == 2 and payload["k"] == 4
    np.testing.assert_array_equal(np.array(payload["c"]), tab.c)
    np.testing.assert_array_equal(np.array(payload["b"]), tab.b)
    np.testing.assert_array_equal(np.array(payload["A"]), tab.A)
