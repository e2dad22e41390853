"""Stepping, fixed-point iteration, and the invariant-imposing scaling."""

import hashlib
import math
import os
import re
import struct
import subprocess
import sys
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from linteg import integrators, tableau
from linteg.integrators import (
    MethodConfig,
    NonConvergence,
    _MAX_SWEEPS,
    _max_steps,
    _scaling_system_nu2,
    _solve_scaling,
    _stepper,
    elim_step,
    hbvm_step,
    integrate,
)
from linteg.problems import (
    ConfigError,
    HamiltonianProblem,
    InvariantSet,
    apply_structure,
    kepler_invariants,
    kepler_problem,
    polynomial_oscillator,
)
from linteg.tableau import build_hbvm_tableau

from conftest import _avx512_moves, _recorded

GAUSS_A = {
    1: np.array([[0.5]]),
    2: np.array([
        [0.25, 0.25 - np.sqrt(3.0) / 6],
        [0.25 + np.sqrt(3.0) / 6, 0.25],
    ]),
    3: np.array([
        [5 / 36, 2 / 9 - np.sqrt(15.0) / 15, 5 / 36 - np.sqrt(15.0) / 30],
        [5 / 36 + np.sqrt(15.0) / 24, 2 / 9, 5 / 36 - np.sqrt(15.0) / 24],
        [5 / 36 + np.sqrt(15.0) / 30, 2 / 9 + np.sqrt(15.0) / 15, 5 / 36],
    ]),
}
GAUSS_B = {
    1: np.array([1.0]),
    2: np.array([0.5, 0.5]),
    3: np.array([5 / 18, 4 / 9, 5 / 18]),
}


# (k, s) cases: classical Gauss from the literature, then HBVM with k > s
STEP_CASES = pytest.mark.parametrize(
    "k, s", [(1, 1), (2, 2), (3, 3), (6, 3), (12, 3)], ids=["1", "2", "3", "6-3", "12-3"]
)


def _reference_tableau(k, s):
    if k == s:
        return GAUSS_A[s], GAUSS_B[s]
    tab = build_hbvm_tableau(k, s)
    return tab.A, tab.b


def _classical_gauss_step(f, y0, h, A, b, sweeps=400, tol=1e-15):
    # reference implementation: plain stage iteration on the full k-stage tableau
    K = np.tile(f(y0), (len(b), 1))
    for _ in range(sweeps):
        K_new = f(y0 + h * (A @ K))
        if np.max(np.abs(K_new - K)) <= tol:
            K = K_new
            break
        K = K_new
    return y0 + h * (b @ K)


def _random_quadratic_problem(rng, m=2):
    dim = 2 * m
    root = rng.standard_normal((dim, dim))
    S = root @ root.T / dim + np.eye(dim)
    y0 = rng.standard_normal(dim)
    return HamiltonianProblem(
        name="quadratic",
        m=m,
        hamiltonian=lambda y: 0.5 * np.einsum("...i,ij,...j->...", y, S, y),
        grad_h=lambda y: y @ S.T,
        initial_state=y0,
    )


@STEP_CASES
def test_gauss_equivalence_quadratic_hamiltonian(k, s):
    rng = np.random.default_rng(100 + k)
    prob = _random_quadratic_problem(rng)
    h = 0.05
    y_ref = _classical_gauss_step(prob.vector_field, prob.initial_state, h, *_reference_tableau(k, s))
    y1, _ = hbvm_step(prob, MethodConfig(s=s, k=k, fp_tolerance=1e-15), prob.initial_state, h)
    np.testing.assert_allclose(y1, y_ref, rtol=0, atol=1e-12)


@STEP_CASES
def test_gauss_equivalence_kepler(k, s):
    prob = kepler_problem(0.3)
    # at h = 0.02 HBVM(k, 3) and Gauss(3) differ by ~1e-14, below the bound,
    # so the k > s cases take a step long enough (~6e-10 apart) to tell them apart
    h = 0.02 if k == s else 0.1
    y_ref = _classical_gauss_step(prob.vector_field, prob.initial_state, h, *_reference_tableau(k, s))
    y1, _ = hbvm_step(prob, MethodConfig(s=s, k=k, fp_tolerance=1e-15), prob.initial_state, h)
    np.testing.assert_allclose(y1, y_ref, rtol=0, atol=1e-12)


def test_hbvm_exact_energy_on_matching_polynomial_degree():
    # degree 4 Hamiltonian with k = 4, s = 2: mu = floor(2k/s) = 4 covers it
    prob = polynomial_oscillator(4)
    traj = integrate(prob, None, MethodConfig(s=2, k=4), h=0.1, n_steps=1000)
    assert np.max(np.abs(traj.h_error)) <= 1e-12


def test_hbvm_energy_not_exact_below_matching_degree():
    # k = s = 2 gives mu = 2 < 4, so the quartic energy error is visible
    prob = polynomial_oscillator(4)
    traj = integrate(prob, None, MethodConfig(s=2, k=2), h=0.1, n_steps=1000)
    assert np.max(np.abs(traj.h_error)) > 1e-10


def test_hbvm_sextic_needs_k_3s_over_2():
    prob = polynomial_oscillator(6)
    exact = integrate(prob, None, MethodConfig(s=2, k=6), h=0.1, n_steps=500)
    assert np.max(np.abs(exact.h_error)) <= 1e-12


def test_elim_conserves_angular_momentum():
    prob = kepler_problem(0.6)
    inv = kepler_invariants("angular_momentum_only")
    config = MethodConfig(s=3, k=12, r=12)
    traj = integrate(prob, inv, config, h=0.1, n_steps=100)
    assert np.max(np.abs(traj.invariant_error[:, 0])) <= 1e-12
    # energy conservation is structural, any eta produced keeps it small
    assert np.max(np.abs(traj.h_error)) <= 1e-11


# r = k shares the Hamiltonian stages; r != k stacks the invariant nodes under them
@pytest.mark.parametrize("r", [12, 8, 16])
def test_elim_conserves_both_invariants(r):
    prob = kepler_problem(0.6)
    inv = kepler_invariants("angular_momentum_and_lrl")
    config = MethodConfig(s=3, k=12, r=r)
    traj = integrate(prob, inv, config, h=0.1, n_steps=60)
    assert np.max(np.abs(traj.invariant_error[:, 0])) <= 1e-12
    assert np.max(np.abs(traj.invariant_error[:, 1])) <= 1e-11
    assert np.max(np.abs(traj.h_error)) <= 1e-11


def test_elim_scaling_is_order_h_squared():
    prob = kepler_problem(0.6)
    inv = kepler_invariants("angular_momentum_and_lrl")
    config = MethodConfig(s=3, k=12, r=12)
    maxima = []
    for h in (0.1, 0.05, 0.025):
        traj = integrate(prob, inv, config, h=h, n_steps=8)
        maxima.append(np.max(np.abs(traj.alpha)))
    assert maxima[0] / maxima[1] == pytest.approx(4.0, abs=1.2)
    assert maxima[1] / maxima[2] == pytest.approx(4.0, abs=1.2)


def test_elim_workspace_consistency():
    prob = kepler_problem(0.6)
    inv = kepler_invariants("angular_momentum_and_lrl")
    config = MethodConfig(s=3, k=12, r=12)
    h = 0.1
    y1, ws = elim_step(prob, inv, config, prob.initial_state, h)
    nu, s = inv.nu, config.s
    w = (h * h) ** np.arange(nu - 1, -1, -1)
    # eta carries the computed scaling in its trailing nu entries
    assert ws.eta[0] == 1.0
    np.testing.assert_allclose(ws.eta[s - nu:], 1.0 - w * ws.alpha, rtol=0, atol=1e-16)
    np.testing.assert_array_equal(ws.eta[: s - nu], 1.0)
    # the linear system the scaling solves is satisfied up to the round-off
    # floor the solver tolerates before freezing alpha between sweeps
    residual = ws.Gamma @ ws.alpha - ws.rhs
    scale = np.max(np.abs(ws.rhs)) + np.max(np.abs(ws.Gamma)) * np.max(np.abs(ws.alpha))
    assert np.max(np.abs(residual)) <= 1e-6 * max(scale, 1e-30)
    # which is what makes the step conserve the imposed invariants
    start = inv.values(prob.initial_state)
    np.testing.assert_allclose(inv.values(y1), start, rtol=0, atol=1e-13)
    # update matches the first coefficient
    np.testing.assert_allclose(y1, prob.initial_state + h * ws.gamma[0], rtol=0, atol=1e-15)
    assert not ws.gamma_fallback_used
    assert ws.iterations >= 1


def test_hbvm_workspace_has_identity_scaling():
    prob = kepler_problem(0.6)
    y1, ws = hbvm_step(prob, MethodConfig(s=3, k=6), prob.initial_state, 0.1)
    np.testing.assert_array_equal(ws.eta, np.ones(3))
    assert ws.alpha.size == 0


def test_elim_with_degenerate_invariant_falls_back():
    # constant invariant: zero gradient makes the scaling system singular,
    # the step must fall back to the unscaled method instead of failing
    prob = kepler_problem(0.6)
    constant = InvariantSet(
        nu=1,
        values=lambda y: np.ones(y.shape[:-1] + (1,)),
        gradients=lambda y: np.zeros(y.shape + (1,)),
    )
    config = MethodConfig(s=2, k=6, r=6)
    y_elim, ws = elim_step(prob, constant, config, prob.initial_state, 0.1)
    y_hbvm, _ = hbvm_step(prob, MethodConfig(s=2, k=6), prob.initial_state, 0.1)
    assert ws.fallback_sweeps > 0
    np.testing.assert_array_equal(ws.alpha, 0.0)
    np.testing.assert_array_equal(y_elim, y_hbvm)


def test_solve_scaling_rejects_ill_conditioned_system():
    # the 1-norm condition bound is 1e8: diag(1, 1e-7) is solved, while
    # diag(1, 1e-10) falls back although its solution would be acceptable
    w = [0.01, 0.1]
    for tiny, expected in ((1e-7, False), (1e-10, True)):
        Gamma = [1.0, 0.0, 0.0, tiny]
        rhs = [1.0, tiny]
        alpha, fallback = _solve_scaling(Gamma, rhs, w, [0.0, 0.0], 0.0)
        assert fallback is expected
        expected_alpha = np.zeros(2) if fallback else np.ones(2)
        np.testing.assert_allclose(alpha, expected_alpha, rtol=1e-12, atol=0)


def _reference_solve_scaling(Gamma, rhs, w, alpha_old, rhs_noise):
    # the LU formula every nu used before the nu <= 2 closed form
    zeros = np.zeros(rhs.shape[0])
    if not (np.all(np.isfinite(Gamma)) and np.all(np.isfinite(rhs))):
        return zeros, True
    try:
        inv = np.linalg.inv(Gamma)
    except np.linalg.LinAlgError:
        return zeros, True
    cond = np.linalg.norm(Gamma, 1) * np.linalg.norm(inv, 1)
    if not np.isfinite(cond) or cond > 1e8:
        return zeros, True
    alpha = inv @ rhs
    if not np.all(np.isfinite(alpha)) or np.max(np.abs(w * alpha)) > 1.0:
        return zeros, True
    if np.max(np.abs(alpha - alpha_old)) <= np.linalg.norm(inv, np.inf) * rhs_noise:
        return alpha_old, False
    return alpha, False


def _assert_same_decision(Gamma, rhs, w, alpha_old=None, rhs_noise=0.0):
    # _solve_scaling takes Python floats (Gamma row by row) and returns a
    # list, alpha_old itself when it keeps it; the reference takes arrays
    Gamma, rhs, w = (np.array(a, dtype=float) for a in (Gamma, rhs, w))
    if alpha_old is None:
        alpha_old = np.zeros(rhs.shape[0])
    old = alpha_old.tolist()
    alpha, fallback = _solve_scaling(Gamma.ravel().tolist(), rhs.tolist(), w.tolist(), old, rhs_noise)
    ref_alpha, ref_fallback = _reference_solve_scaling(Gamma, rhs, w, alpha_old, rhs_noise)
    assert fallback is ref_fallback
    assert (alpha is old) == (ref_alpha is alpha_old)
    assert type(alpha) is list and len(alpha) == rhs.shape[0]
    return np.array(alpha), ref_alpha


def test_solve_scaling_matches_lu_reference():
    eps = np.finfo(float).eps
    rng = np.random.default_rng(3)
    # random well-conditioned systems: alpha agrees within a few ulps x cond
    for nu, w in ((1, [1.0]), (2, [0.01, 1.0])):
        for _ in range(200):
            Gamma = rng.uniform(-1.0, 1.0, (nu, nu)) + 2.0 * np.eye(nu)
            Gamma *= 10.0 ** rng.uniform(-12.0, 0.0)
            rhs = Gamma @ rng.uniform(-0.5, 0.5, nu)
            alpha, ref = _assert_same_decision(Gamma, rhs, w)
            cond = np.linalg.cond(Gamma, 1)
            assert np.max(np.abs(alpha - ref)) <= 4.0 * eps * cond * np.max(np.abs(ref))
    nan, inf = np.nan, np.inf
    fallbacks = [
        # a non-finite entry in Gamma or rhs
        ([[nan]], [1.0], [1.0]),
        ([[1.0, inf], [0.0, 1.0]], [1.0, 1.0], [0.01, 1.0]),
        ([[1.0, 0.0], [0.0, 1.0]], [nan, 1.0], [0.01, 1.0]),
        ([[2.0]], [-inf], [1.0]),
        # an exactly singular Gamma
        ([[0.0]], [1.0], [1.0]),
        ([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0], [0.01, 1.0]),
        ([[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0], [0.01, 1.0]),
        # a 1-norm condition number above the bound
        ([[1.0, 1.0], [1.0, 1.0 + 1e-10]], [1.0, 1.0], [0.01, 1.0]),
        # |w alpha| > 1, in either entry
        ([[1.0, 0.0], [0.0, 1.0]], [0.0, 2.0], [0.01, 1.0]),
        ([[1.0, 0.0], [0.0, 1.0]], [200.0, 0.0], [0.01, 1.0]),
        ([[0.5]], [0.75], [1.0]),
    ]
    for Gamma, rhs, w in fallbacks:
        alpha, _ = _assert_same_decision(Gamma, rhs, w)
        np.testing.assert_array_equal(alpha, 0.0)
    # entries so small that det(Gamma) is subnormal are still solved (by LU)
    alpha, ref = _assert_same_decision(1e-160 * np.eye(2), [5e-161, -5e-161], [0.01, 1.0])
    np.testing.assert_array_equal(alpha, ref)
    # noise floor: a refresh within norm(inv(Gamma), inf) * rhs_noise keeps
    # alpha_old; here that floor is 8/11 * 1e-10 and the 1-norm one 7/11 * 1e-10
    Gamma, rhs, w = [[2.0, 1.0], [0.5, 3.0]], [1.0, 1.0], [0.01, 1.0]
    exact = np.linalg.solve(Gamma, rhs)
    shifts = (
        ([7e-11, 0.0], True), ([0.0, 7e-11], True), ([1e-6, 0.0], False), ([0.0, 1e-6], False),
    )
    for shift, keeps in shifts:
        old = exact + shift
        alpha, ref = _assert_same_decision(Gamma, rhs, w, old, rhs_noise=1e-10)
        assert (ref is old) is keeps
        if not keeps:
            np.testing.assert_allclose(alpha, exact, rtol=4 * eps, atol=0)
    kept, _ = _assert_same_decision([[4.0]], [1.0], [1.0], np.array([0.25 + 1e-13]), 1e-12)
    assert kept[0] == 0.25 + 1e-13
    # nu = 3 still takes the LU path: the same values bit for bit
    Gamma = rng.uniform(-1.0, 1.0, (3, 3)) + 2.0 * np.eye(3)
    w3 = [1e-4, 0.01, 1.0]
    alpha, ref = _assert_same_decision(Gamma, [0.1, -0.2, 0.3], w3)
    np.testing.assert_array_equal(alpha, ref)
    # and its other returns: a condition number above the bound and a
    # |w alpha| > 1 fall back, a refresh within the noise floor keeps alpha_old
    rejected = ((np.diag([1.0, 1.0, 1e-10]), [0.0, 0.0, 1e-10]), (Gamma, Gamma @ [0.0, 0.0, 2.0]))
    for bad_Gamma, rhs in rejected:
        alpha, _ = _assert_same_decision(bad_Gamma, rhs, w3)
        np.testing.assert_array_equal(alpha, 0.0)
    old = ref + np.array([0.0, 1e-12, 0.0])
    kept, _ = _assert_same_decision(Gamma, [0.1, -0.2, 0.3], w3, old, rhs_noise=1e-10)
    np.testing.assert_array_equal(kept, old)


def _pinned_scaling_inputs():
    """Seeded (Gamma row by row, rhs, w, alpha_old, rhs_noise) inputs, as
    Python floats, on every path and return of _solve_scaling."""
    rng = np.random.default_rng(12)
    cases = []
    # well-conditioned systems at nu = 1, 2, 3; alpha_old is zero or a
    # shift of the solution by 1e-13, inside or outside the noise floor;
    # a solution entry up to 2 sometimes gives |w alpha| > 1
    for nu in (1, 2, 3):
        w = [0.01 ** (nu - 1 - i) for i in range(nu)]
        for _ in range(300):
            scale = 10.0 ** rng.uniform(-12.0, 0.0)
            Gamma = (rng.uniform(-1.0, 1.0, (nu, nu)) + 2.0 * np.eye(nu)) * scale
            x = rng.uniform(-2.0, 2.0, nu)
            old = x + 1e-13 * rng.uniform(-1.0, 1.0, nu) if rng.uniform() < 0.5 else 0.0 * x
            noise = scale * 10.0 ** rng.uniform(-17.0, -11.0)
            cases.append((Gamma.ravel(), Gamma @ x, w, old, noise))
    # nu = 2 systems whose determinant is subnormal or overflows: the LU path
    for lo, hi in ((-161.0, -155.0), (155.0, 160.0)):
        for _ in range(100):
            Gamma = (rng.uniform(-1.0, 1.0, (2, 2)) + 2.0 * np.eye(2)) * 10.0 ** rng.uniform(lo, hi)
            x = rng.uniform(-2.0, 2.0, 2)
            cases.append((Gamma.ravel(), Gamma @ x, [0.01, 1.0], 0.0 * x, 0.0))
    # the fallback cases of test_solve_scaling_matches_lu_reference
    nan, inf = np.nan, np.inf
    w2 = [0.01, 1.0]
    for g, b, w in (
        ([nan], [1.0], [1.0]), ([1.0, inf, 0.0, 1.0], [1.0, 1.0], w2),
        ([1.0, 0.0, 0.0, 1.0], [nan, 1.0], w2), ([2.0], [-inf], [1.0]),
        ([0.0], [1.0], [1.0]), ([1.0, 2.0, 2.0, 4.0], [1.0, 1.0], w2),
        ([0.0, 0.0, 0.0, 0.0], [0.0, 0.0], w2),
        ([1.0, 1.0, 1.0, 1.0 + 1e-10], [1.0, 1.0], w2),
        ([1.0, 0.0, 0.0, 1.0], [0.0, 2.0], w2), ([1.0, 0.0, 0.0, 1.0], [200.0, 0.0], w2),
        ([0.5], [0.75], [1.0]),
    ):
        cases.append((g, b, w, [0.0] * len(b), 0.0))
    return [
        (list(map(float, g)), list(map(float, b)), w, list(map(float, old)), float(noise))
        for g, b, w, old, noise in cases
    ]


# sha256 over, per input of _pinned_scaling_inputs, the bytes of alpha, the
# fallback flag and whether alpha is alpha_old itself; recorded when the
# nu <= 2 closed form and the LU path each had their own acceptance rules,
# per arithmetic (see conftest)
SOLVE_SCALING_SHA256 = {
    ("SkylakeX", True): "b2cff0d04340cbec5c5f90819fd796848c6acd37211dcf85353501f716672272",
    ("SkylakeX", False): "b2cff0d04340cbec5c5f90819fd796848c6acd37211dcf85353501f716672272",
    ("Haswell", True): "547bd4c0fa17311919d5679758ab3b2ebf819e2e0b1a40dd5e17e005fe6645e0",
}


def test_solve_scaling_outputs_are_pinned():
    digest = hashlib.sha256()
    for g, b, w, old, noise in _pinned_scaling_inputs():
        alpha, fallback = _solve_scaling(g, b, w, old, noise)
        digest.update(struct.pack(f"{len(b)}d", *alpha))
        digest.update(bytes([fallback, alpha is old]))
    assert digest.hexdigest() == _recorded(SOLVE_SCALING_SHA256)


def _lu_solve_scaling(g, b, w, alpha_old, rhs_noise):
    # _solve_scaling's signature and return types over the LU reference
    old = np.array(alpha_old)
    Gamma = np.array(g).reshape(len(b), len(b))
    alpha, fallback = _reference_solve_scaling(Gamma, np.array(b), np.array(w), old, rhs_noise)
    return (alpha_old if alpha is old else alpha.tolist()), fallback


def _no_lapack(*args, **kwargs):
    raise AssertionError("a nu = 1 system reached np.linalg.inv")


def test_nu1_systems_are_decided_without_lapack(monkeypatch):
    # a 1 x 1 Gamma is decided by its reciprocal: zero and non-finite ones
    # fall back without an inverse, and every other one, subnormal included,
    # gives LU's values bit for bit.  1e-310's reciprocal overflows, so it
    # falls back; 1.1e-308's is finite, so it is solved.
    cases = [(g, [0.25 * g if math.isfinite(g) else 1.0], [1.0], [0.0], 0.0)
             for g in (0.0, -0.0, math.nan, math.inf, -math.inf, 1e-310, 1.1e-308)]
    expected = [_lu_solve_scaling([g], *rest) for g, *rest in cases]
    monkeypatch.setattr(np.linalg, "inv", _no_lapack)
    for (g, *rest), (ref_alpha, ref_fallback) in zip(cases, expected):
        alpha, fallback = _solve_scaling([g], *rest)
        assert fallback is ref_fallback is (g != 1.1e-308)
        assert struct.pack("d", *alpha) == struct.pack("d", *ref_alpha)


def test_nu1_run_is_the_lu_run_without_lapack(monkeypatch):
    # 20 steps of EHBVM(12, 3) with L imposed: the first sweep of a step
    # solves a Gamma that is zero in exact arithmetic and sometimes exactly
    # zero in floating point, which LU rejected as singular
    run = partial(integrate, kepler_problem(0.6), kepler_invariants("angular_momentum_only"),
                  MethodConfig(s=3, k=12, r=12), 0.1, 20)
    with monkeypatch.context() as patch:
        patch.setattr(integrators, "_solve_scaling", _lu_solve_scaling)
        reference = run()
    monkeypatch.setattr(np.linalg, "inv", _no_lapack)
    traj = run()
    for name in ("states", "alpha", "iterations", "fallback"):
        assert getattr(traj, name).tobytes() == getattr(reference, name).tobytes()


def _reference_elim_step(problem, invariants, config, y0, h):
    # the sweep written with tensordot, einsum and np.linalg.inv, with
    # separate stage arrays at the k and the r nodes; returns (y1, sweeps)
    s, k, r, nu, d = config.s, config.k, config.resolved_r(), invariants.nu, problem.dim
    tab_k, tab_r = build_hbvm_tableau(k, s), build_hbvm_tableau(r, s)
    eps = np.finfo(float).eps
    w = (h * h) ** np.arange(nu - 1, -1, -1)
    G, alpha, eta = np.zeros((s, d)), np.zeros(nu), np.ones(s)
    U = y0 + h * ((tab_k.I * eta) @ G)
    U_r = y0 + h * ((tab_r.I * eta) @ G)
    for sweep in range(1, _MAX_SWEEPS + 1):
        G = tab_k.PTB @ problem.vector_field(U)
        Phi = np.tensordot(tab_r.PTB, invariants.gradients(U_r), axes=(1, 0))
        prods = np.einsum("jdv,jd->jv", Phi, G)
        Gamma = (w[:, None] * prods[s - nu :]).T
        noise = 4.0 * s * d * eps * np.max(np.einsum("jdv,jd->v", np.abs(Phi), np.abs(G)))
        alpha, _ = _reference_solve_scaling(Gamma, prods.sum(axis=0), w, alpha, noise)
        eta[s - nu :] = 1.0 - w * alpha
        U_next = y0 + h * ((tab_k.I * eta) @ G)
        U_r_next = y0 + h * ((tab_r.I * eta) @ G)
        residual = max(np.max(np.abs(U_next - U)), np.max(np.abs(U_r_next - U_r)))
        scale = 1.0 + max(np.max(np.abs(U_next)), np.max(np.abs(U_r_next)))
        U, U_r = U_next, U_r_next
        if residual <= config.fp_tolerance * scale:
            return y0 + h * G[0], sweep
    raise AssertionError("reference sweep did not converge")


# (nu, r, s, k): r != k stacks the invariant nodes under the Hamiltonian ones
@pytest.mark.parametrize(
    "nu, r, s, k",
    [
        (1, 12, 3, 12), (2, 12, 3, 12), (1, 8, 3, 12), (2, 8, 3, 12),
        (1, 16, 3, 12), (2, 16, 3, 12), (1, 12, 8, 12), (2, 12, 8, 12),
        (1, 16, 3, 16), (2, 16, 3, 16),
    ],
    ids=[
        "1-12", "2-12", "1-8", "2-8", "1-16", "2-16",
        "1-12-s8", "2-12-s8", "1-16-k16", "2-16-k16",
    ],
)
def test_elim_step_matches_reference_sweep(nu, r, s, k):
    prob = kepler_problem(0.6)
    which = "angular_momentum_only" if nu == 1 else "angular_momentum_and_lrl"
    inv = kepler_invariants(which)
    config = MethodConfig(s=s, k=k, r=r)
    y1, ws = elim_step(prob, inv, config, prob.initial_state, 0.1)
    y1_ref, sweeps = _reference_elim_step(prob, inv, config, prob.initial_state, 0.1)
    assert ws.iterations == sweeps
    assert not ws.gamma_fallback_used
    # the nu = 2 closed form takes the adjugate where the reference takes LU,
    # so alpha may differ in its last bits; y1 is allowed one ulp per component
    np.testing.assert_allclose(y1, y1_ref, rtol=np.finfo(float).eps, atol=0)


# (s, k, r) runs of EHBVM with nu = 2 that the seed-0 fingerprints do not
# take: the stacked path (r != k) and s = 8.  sha256 of the states and of the
# per-step alpha, recorded before the nu = 2 scaling system moved from NumPy
# calls into Python floats; test_elim_step_matches_reference_sweep holds
# these runs to one ulp only.  A run the arithmetic moves is keyed by
# arithmetic (see conftest).
NU2_RUN_SHA256 = {
    (3, 12, 8): {
        ("SkylakeX", True): (
            "745ea3fb2675085832cf1df5009e1c86d8f8d6c3bc320a8a04b1b38080415ffe",
            "5ae232ad5bd6aeede703fc5a76d558b53ad92fafc27eb4366d8f9486d30363d9",
        ),
        ("Haswell", True): (
            "6c0c7c459c983fa58155977ab45c3af07a676691810940df72ed7a1e5adbc474",
            "5b27e117ed3d5203e2b6f779fe641988cf48b6635744b1a9105e611d3956b022",
        ),
        ("SkylakeX", False): (
            "c8f70dbf0032021ad4566acceb318c876febf7048c0a2689b868903914834ef7",
            "db4a5c469f4b11fdc1c61d09fd7ac03c76cf4583fd52951f315a6995187252e9",
        ),
    },
    (8, 12, 12): _avx512_moves(
        ("2180737d9c1d77f088ce80455b76830623373f4ebd9098fb205f44bd24bafcb0",
         "e61f41d57db208c5f92a35c4ce7198570924a3fc87eeba83441fceee5d6a2865"),
        off=("d9eafd72a9d41a25ddde92bf8e77d0adfee3e29f7d73d3d1722424d2a996452c",
             "e61f41d57db208c5f92a35c4ce7198570924a3fc87eeba83441fceee5d6a2865"),
    ),
}


@pytest.mark.parametrize("s, k, r", list(NU2_RUN_SHA256), ids=["stacked-r8", "s8"])
def test_nu2_runs_off_the_fingerprinted_path_are_pinned(s, k, r):
    # Kepler e = 0.6 from perihelion, 100 steps of 0.1, L and LRL imposed
    inv = kepler_invariants("angular_momentum_and_lrl")
    traj = integrate(kepler_problem(0.6), inv, MethodConfig(s=s, k=k, r=r), 0.1, 100)
    digests = tuple(
        hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
        for a in (traj.states, traj.alpha)
    )
    assert digests == _recorded(NU2_RUN_SHA256[(s, k, r)])


# Runs on Kepler e = 0.6 from perihelion that take branches the fingerprints
# do not reach, keyed by (invariants, s, k, r, h, n_steps): nu = 1 at s = 8,
# where NumPy's column sum of the scaling products adds pairwise; nu = 1 on
# the stacked path; HBVM with k = 16, where OpenBLAS groups the k-term
# sums by operand layout (see problems); and negative steps, where the
# first stage array h ((I eta) @ 0) holds -0.0.  sha256 of the states, and
# of the per-step alpha where there is one; a run the arithmetic moves is
# keyed by arithmetic (see conftest).
OFF_PATH_RUN_SHA256 = {
    ("angular_momentum_only", 8, 12, 12, 0.2, 50): _avx512_moves(
        ("caae736a59651b74c7e2251d9388bbcedd65ca8ec96b30abe14dccafd3f6b96d",
         "193432fdf2c0a8f54c3f36bd73679beb68d7b4723d6d3e07cd63ea9bb726fe83"),
        off=("a8011cf32b6ce7a90a7f7e243923fbf515417a9aaf44771277ad65e41d9fd9a7",
             "79958c4dd83757190c0df8ab34e1864820660961f9d4de86624a558c3b368e10"),
    ),
    ("angular_momentum_only", 3, 12, 8, 0.1, 100): {
        ("SkylakeX", True): (
            "7ac3245f8b1a49a564bff0935e6ba01eddaeb69ab56f793d613f364900938134",
            "74787b5ec98641f8d9e098438761fe05cc26b23025bfe634ffdba529a9f8d669",
        ),
        ("Haswell", True): (
            "95411b2f1139d1f3bc9d4348bffb620e6971702403a4dca010be917fd7e4b721",
            "dd83e9470ef79df3c5f27cb8ef116dc7a72b9561a6932a09fb388c0abb53ee27",
        ),
        ("SkylakeX", False): (
            "4bc2ebac1dc9c9fffc220813b51a9a760a69854f98fd97b114072d3a32601a6f",
            "d0d915d277d51b0435beb1b2b356dfa0f0223a269dfce4c52e98e7fa2c7e6e5f",
        ),
    },
    (None, 3, 16, None, 0.1, 100): {
        ("SkylakeX", True): ("b8432bfd0cdf6d1c9af8c2aa078a9f7ac31d99dc761178219cda09f35f22f2e8",),
        ("Haswell", True): ("f880c860620dcc043e6e072e5067bc2cc8c8cef14e63350b17eca366ffce7133",),
        ("SkylakeX", False): ("bf416b13a7c8bf384e05b9b8527202b744474c9ba35b55218f5129bae21d8044",),
    },
    (None, 3, 12, None, -0.1, 100): _avx512_moves(
        ("5cb395df94c34b38e5df78591e08c84179205a2c94d2eb41d1d9c05232d9637c",),
        off=("8e8ff87c5a612c0bcb1196b6b4877d07cfca601596fe7b521b249d1d19a30e8b",),
    ),
    ("angular_momentum_and_lrl", 3, 12, 12, -0.1, 100): {
        ("SkylakeX", True): (
            "81a0de2ef8c79e2d8285d3a906259640d9dbb9b4675e9af32a32fe0fb4e20537",
            "18a478c6e7e4e1b570848b4df950b2c46c0d2a1201ffed52fde624afad7274bb",
        ),
        ("Haswell", True): (
            "d140dc362f68525a235d2198b2c38caa8e2552b1debb2cbfa8eb277a1a9b4582",
            "629fdb0c4e7b0f7a22cc4782678b81ab2f9034c9ef20c5745422815f96888d36",
        ),
        ("SkylakeX", False): (
            "546be892be9c38cdbffbcc0edd9451a354bcd63f40faec66346a70569f23f85d",
            "8087ed51931b015adfb6b4692ed989c9aac6d82a3c249bfe82964ae600004519",
        ),
    },
    ("angular_momentum_only", 3, 12, 12, -0.1, 100): {
        ("SkylakeX", True): (
            "6e5e4029036fc3b6b14a40ebf02e5d964fc96b86b8bdd53f279556fb38465ea5",
            "3edf046dc4511cb7b79e7bced76154e6863e8082f203620891fa278b1d126cb1",
        ),
        ("Haswell", True): (
            "1d220fc11cfb64db505a39dc10970619f3e95ab604765b18a7768f335b25e7cd",
            "0ab1af5edcdf411f48c6d94e5db49e8800a22e6ffa3f33c0c6848486c6c3a525",
        ),
        ("SkylakeX", False): (
            "fe24cd1600df5d2956a4e9b839cdf8e7dc2db1a4b0952de80613aaeda7518002",
            "a90e456bd6bdccce9379a7108c21aab546748fb2a49035aa30145943c90387d1",
        ),
    },
}


@pytest.mark.parametrize(
    "which, s, k, r, h, n_steps", list(OFF_PATH_RUN_SHA256),
    ids=["nu1-s8", "nu1-stacked-r8", "hbvm-k16", "hbvm-negative-h", "nu2-negative-h",
         "nu1-negative-h"],
)
def test_runs_off_the_fingerprinted_path_are_pinned(which, s, k, r, h, n_steps):
    inv = kepler_invariants(which) if which else None
    traj = integrate(kepler_problem(0.6), inv, MethodConfig(s=s, k=k, r=r), h, n_steps)
    arrays = (traj.states, traj.alpha) if which else (traj.states,)
    digests = tuple(
        hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest() for a in arrays
    )
    assert digests == _recorded(OFF_PATH_RUN_SHA256[(which, s, k, r, h, n_steps)])


def _pinned_nu2_operands(rng, s, d, spread):
    # G (s x d) and Phi (s x d x 2) as the sweep has them, C-ordered, with
    # magnitudes from 10^-spread to 10^spread (no product overflows at
    # spread <= 150), signed zeros and subnormals mixed in
    def draw(shape):
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-spread, spread + 1, shape)
        kind = rng.integers(0, 8, shape)
        x[kind == 0] = 0.0
        x[kind == 1] = -0.0
        x[kind == 2] = rng.standard_normal(np.count_nonzero(kind == 2)) * 1e-310
        x[kind == 3] = rng.standard_normal(np.count_nonzero(kind == 3))
        return x

    G = draw((s, d))
    Phi = draw((s, d * 2)).reshape(s, d, 2)
    return G, Phi


@pytest.mark.parametrize("s", [3, 8, 9])
@pytest.mark.parametrize("d", [2, 4])
def test_nu2_scaling_system_matches_numpy_form(s, d):
    # the nu = 2 scaling system is built in Python floats in the order
    # np.einsum and the column sum use on these operands; if a NumPy
    # release reorders either, this fails instead of the bits moving
    rng = np.random.default_rng(1000 * s + d)
    # a narrow spread makes every term count in the last bits of a sum
    cases = [_pinned_nu2_operands(rng, s, d, spread) for spread in (1, 150) for _ in range(200)]
    # every product a signed zero; and products that cancel in pairs
    G, Phi = _pinned_nu2_operands(rng, s, d, 150)
    cases.append((G, np.full_like(Phi, -0.0)))
    G, Phi = rng.standard_normal((s, d)), rng.standard_normal((s, d, 2))
    G[:, 1::2], Phi[:, 1::2] = G[:, ::2], -Phi[:, ::2]
    cases.append((G, Phi))
    for G, Phi in cases:
        w = [float(rng.uniform(1e-4, 1.0)) ** 2, 1.0]
        prods = np.einsum("jdv,jd->jv", Phi, G)
        rhs = prods.sum(axis=0)
        tail = prods[s - 2 :]
        Gamma = [w[0] * tail[0, 0], w[1] * tail[1, 0], w[0] * tail[0, 1], w[1] * tail[1, 1]]
        got_Gamma, got_rhs = _scaling_system_nu2(G, Phi, w)
        assert struct.pack("4d", *got_Gamma) == struct.pack("4d", *Gamma)
        assert struct.pack("2d", *got_rhs) == rhs.tobytes()


def _reference_hbvm_step(problem, config, y0, h):
    # the nu = 0 sweep written out plainly: a fresh stage array from the
    # eta-scaled operator every sweep; returns (y1, sweeps)
    tab = build_hbvm_tableau(config.k, config.s)
    G, eta = np.zeros((config.s, problem.dim)), np.ones(config.s)
    U = y0 + h * ((tab.I * eta) @ G)
    for sweep in range(1, _MAX_SWEEPS + 1):
        G = tab.PTB @ problem.vector_field(U)
        U_next = y0 + h * ((tab.I * eta) @ G)
        residual = np.max(np.abs(U_next - U))
        scale = 1.0 + np.max(np.abs(U_next))
        U = U_next
        if residual <= config.fp_tolerance * scale:
            return y0 + h * G[0], sweep
    raise AssertionError("reference sweep did not converge")


@pytest.mark.parametrize(
    "problem, s, k, start",
    [
        (kepler_problem(0.6), 3, 3, None),
        (kepler_problem(0.6), 3, 6, None),
        (kepler_problem(0.6), 3, 12, None),
        (kepler_problem(0.6), 8, 12, None),
        (kepler_problem(0.6), 3, 16, None),
        (polynomial_oscillator(4), 2, 4, None),
        # from q = 5 the stage values run far past max|y0| within a step,
        # which tests the sweep's running bound on max|U|
        (polynomial_oscillator(4), 2, 4, (5.0, 0.0)),
    ],
    ids=[
        "gauss3", "hbvm6_3", "hbvm12_3", "hbvm12_8", "hbvm16_3",
        "oscillator4_hbvm4_2", "oscillator4_from_q5",
    ],
)
def test_hbvm_step_matches_reference_sweep(problem, s, k, start):
    # the shared sweep does the reference's floating-point operations in the
    # same order and takes the same convergence decisions, so every step and
    # its sweep count agree bit for bit; one step alone often hides a
    # reordered product, so 40 are compared.  The reference's stage arrays
    # are C-ordered and it applies J before projecting; the stepper's are
    # column-major and it applies J after.
    config = MethodConfig(s=s, k=k)
    y = problem.initial_state if start is None else np.array(start)
    for _ in range(40):
        y1, ws = hbvm_step(problem, config, y, 0.1)
        y1_ref, sweeps = _reference_hbvm_step(problem, config, y, 0.1)
        assert ws.iterations == sweeps
        np.testing.assert_array_equal(y1, y1_ref)
        y = y1


def test_sweep_after_a_non_finite_one_matches_reference():
    # a vector field that is NaN on its first call and finite after it: the
    # NaN residual must not keep later sweeps from the exact convergence test
    def flaky_oscillator():
        calls = []

        def grad(y):
            calls.append(1)
            g = np.stack([y[..., 0] ** 3, y[..., 1]], axis=-1)
            return np.full_like(g, np.nan) if len(calls) == 1 else np.nan_to_num(g)

        ham = lambda y: 0.5 * y[..., 1] ** 2 + 0.25 * y[..., 0] ** 4
        return HamiltonianProblem("flaky", 1, ham, grad, np.array([1.0, 0.0]))

    config = MethodConfig(s=2, k=4)
    y1, ws = hbvm_step(flaky_oscillator(), config, np.array([1.0, 0.0]), 0.1)
    y1_ref, sweeps = _reference_hbvm_step(flaky_oscillator(), config, np.array([1.0, 0.0]), 0.1)
    assert ws.iterations == sweeps
    np.testing.assert_array_equal(y1, y1_ref)


@pytest.mark.parametrize(
    "maker",
    [
        lambda prob, inv: (None, MethodConfig(s=3, k=12)),
        lambda prob, inv: (inv, MethodConfig(s=3, k=12, r=12)),
    ],
    ids=["hbvm", "elim"],
)
def test_symmetry_round_trip(maker):
    prob = kepler_problem(0.6)
    invariants, config = maker(prob, kepler_invariants("angular_momentum_and_lrl"))
    h = 0.1
    y0 = prob.initial_state
    if invariants is None:
        y1, _ = hbvm_step(prob, config, y0, h)
        yback, _ = hbvm_step(prob, config, y1, -h)
    else:
        y1, _ = elim_step(prob, invariants, config, y0, h)
        yback, _ = elim_step(prob, invariants, config, y1, -h)
    assert np.max(np.abs(yback - y0)) <= 1e-11


@pytest.mark.parametrize("h", [math.pi / 4, -math.pi / 4], ids=["forward", "backward"])
def test_hbvm_40_20_round_trip(h):
    # the method is symmetric at high order too: a step of h and one of -h
    # return to the start, here at eight steps per orbit
    prob, config = kepler_problem(0.6), MethodConfig(s=20, k=40)
    y1, _ = hbvm_step(prob, config, prob.initial_state, h)
    yback, _ = hbvm_step(prob, config, y1, -h)
    assert np.max(np.abs(yback - prob.initial_state)) <= 1e-13


def test_hbvm_40_20_ten_periods_at_eight_steps_per_orbit():
    # Kepler e = 0.6 over ten periods, after which the exact flow is back
    # at the initial state: order 40 reaches the default tolerance's floor
    # in 80 steps, and keeps H to round-off
    prob = kepler_problem(0.6)
    traj = integrate(prob, None, MethodConfig(s=20, k=40), math.pi / 4, 80)
    assert np.max(np.abs(traj.states[-1] - prob.initial_state)) <= 1e-10
    assert np.max(np.abs(traj.h_error)) <= 1e-13


def test_negative_step_direction():
    prob = kepler_problem(0.6)
    y1, _ = hbvm_step(prob, MethodConfig(s=2, k=4), prob.initial_state, -0.05)
    # moving backward in time reverses the initial velocity effect
    assert y1[1] < prob.initial_state[1]


def test_integrate_bookkeeping():
    prob = kepler_problem(0.6)
    inv = kepler_invariants("angular_momentum_only")
    config = MethodConfig(s=2, k=6, r=6)
    traj = integrate(prob, inv, config, h=0.1, n_steps=25)
    assert traj.states.shape == (26, 4)
    np.testing.assert_array_equal(traj.states[0], prob.initial_state)
    np.testing.assert_allclose(traj.times, 0.1 * np.arange(26), rtol=0, atol=1e-14)
    assert traj.h_error[0] == 0.0 and traj.invariant_error[0, 0] == 0.0
    assert traj.iterations.shape == (25,) and np.all(traj.iterations >= 1)
    assert traj.alpha.shape == (25, 1)
    assert traj.fallback.shape == (25,)
    assert traj.iteration_total == int(np.sum(traj.iterations))


def test_integrate_without_invariants_has_empty_alpha():
    prob = polynomial_oscillator(4)
    traj = integrate(prob, None, MethodConfig(s=2, k=4), h=0.1, n_steps=5)
    assert traj.alpha.shape == (5, 0)
    assert traj.invariant_error.shape == (6, 0)


def test_determinism_bitwise():
    prob = kepler_problem(0.6)
    inv = kepler_invariants("angular_momentum_and_lrl")
    config = MethodConfig(s=3, k=12, r=12)
    a = integrate(prob, inv, config, h=0.1, n_steps=40)
    b = integrate(prob, inv, config, h=0.1, n_steps=40)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.alpha, b.alpha)
    np.testing.assert_array_equal(a.iterations, b.iterations)


def test_non_convergence_raises_with_context():
    # at h = 0.5 the residual of step 26 stalls just above a 1e-15 tolerance
    prob = kepler_problem(0.6)
    config = MethodConfig(s=2, k=4, fp_tolerance=1e-15)
    with pytest.raises(NonConvergence) as err:
        integrate(prob, None, config, h=0.5, n_steps=100)
    assert err.value.iterations == _MAX_SWEEPS
    assert err.value.residual > 0.0
    assert err.value.step_index >= 1
    assert "step" in str(err.value)


@pytest.mark.parametrize("h", [1e300, 1e200])
def test_a_step_whose_stages_overflow_does_not_converge(h):
    # the stages overflow to inf, so tol (1 + max|U|) is infinite and any
    # residual would pass it; a finite maximum is part of the test.  Sweep 4
    # writes sweep 3's all-NaN stages again, and the step stops there
    prob = kepler_problem(0.6)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonConvergence) as err:
            hbvm_step(prob, MethodConfig(s=2, k=4), prob.initial_state, h)
    assert err.value.iterations == 4
    assert str(err.value) == (
        f"no fixed point: sweep 4 repeated the non-finite stages of sweep 3 (residual nan, h={h!r})"
    )


def _nan_gradient(y):
    return np.full(y.shape, np.nan)


@pytest.mark.parametrize(
    "problem, invariants, h, sweeps",
    [
        (kepler_problem(0.6), None, 1e300, 4),
        (kepler_problem(0.6), kepler_invariants("angular_momentum_and_lrl"), 1e200, 4),
        (replace(kepler_problem(0.6), grad_h=_nan_gradient), None, 0.1, 2),
    ],
    ids=["hbvm_overflow", "elim_nu2_overflow", "nan_gradient"],
)
def test_a_step_stops_when_its_non_finite_stages_repeat(problem, invariants, h, sweeps):
    # a sweep that writes the non-finite stage array of the sweep before it
    # leaves the step where it is, so the step stops there and says why
    config = MethodConfig(s=3, k=12)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonConvergence) as err:
            integrate(problem, invariants, config, h, 3)
    assert err.value.iterations == sweeps
    assert err.value.step_index == 1
    assert str(err.value) == (
        f"step 1 of 3: no fixed point: sweep {sweeps} repeated the non-finite stages of "
        f"sweep {sweeps - 1} (residual nan, h={h!r})"
    )


def test_config_validation():
    inv = kepler_invariants("angular_momentum_and_lrl")
    with pytest.raises(ConfigError):
        MethodConfig(s=0, k=1).validate(nu=0)
    with pytest.raises(ConfigError):
        MethodConfig(s=3, k=2).validate(nu=0)
    with pytest.raises(ConfigError):
        MethodConfig(s=2, k=6, r=6).validate(nu=2)  # needs s > nu
    with pytest.raises(ConfigError):
        MethodConfig(s=3, k=6, r=2).validate(nu=1)  # r >= s
    # 10**400 passes 0 < tol < inf but is too large for a float
    for tol in (0.0, np.inf, np.nan, "1e-14", True, 10**400):
        with pytest.raises(ConfigError, match="^fp_tolerance"):
            MethodConfig(s=2, k=4, fp_tolerance=tol).validate(nu=0)
    MethodConfig(s=3, k=6, r=8).validate(nu=2)
    # node counts are integers: floats, even whole ones, and bools are
    # rejected by name before any array is built
    prob = kepler_problem(0.6)
    bad = [
        ("k", MethodConfig(3, 12.5)), ("s", MethodConfig(3.0, 12)),
        ("s", MethodConfig(True, 12)), ("k", MethodConfig(3, np.float64(12.0))),
    ]
    for name, config in bad:
        with pytest.raises(ConfigError, match=f"^{name} must be an integer"):
            integrate(prob, None, config, 0.1, 3)
    with pytest.raises(ConfigError, match="^r must be an integer"):
        integrate(prob, inv, MethodConfig(3, 12, 12.0), 0.1, 3)
    with pytest.raises(ConfigError, match="^n_steps must be an integer"):
        integrate(prob, None, MethodConfig(3, 12), 0.1, 3.0)
    # NumPy integers are integers
    numpy_ints = MethodConfig(np.int64(3), np.int32(12), np.int64(12))
    a = integrate(prob, inv, numpy_ints, 0.1, np.int64(3))
    b = integrate(prob, inv, MethodConfig(3, 12, 12), 0.1, 3)
    np.testing.assert_array_equal(a.states, b.states)
    # r >= s holds whenever r is given, with or without invariants
    config = MethodConfig(3, 12, r=-5)
    for run in (config.validate, partial(integrate, prob, None, config, 0.1, 2),
                partial(hbvm_step, prob, config, prob.initial_state, 0.1)):
        with pytest.raises(ConfigError, match=r"^need r >= s, got r=-5, s=3$"):
            run()
    # a malformed nu is a ConfigError naming it before any sweep, not a NumPy error
    one = kepler_invariants("angular_momentum_only")
    for nu, message, elim_message in (
        (1.0, "nu must be an integer, got 1.0", None),
        (True, "nu must be an integer, got True", None),
        ("1", "nu must be an integer, got '1'", None),
        (-1, "need nu >= 0, got nu=-1", "elim_step needs an InvariantSet with nu >= 1"),
    ):
        bad = InvariantSet(nu, one.values, one.gradients)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            integrate(prob, bad, MethodConfig(3, 12), 0.1, 2)
        with pytest.raises(ConfigError, match=f"^{re.escape(elim_message or message)}$"):
            elim_step(prob, bad, MethodConfig(3, 12), prob.initial_state, 0.1)


def test_numpy_counts_run_as_the_ints_their_checks_return():
    # the checked config holds Python numbers, so a NumPy-typed config runs
    # the int config's steps and finds its tableau in the cache
    prob = kepler_problem(0.6)
    tableau._hbvm_tableau.cache_clear()
    ints = integrate(prob, None, MethodConfig(3, 12), 0.1, 20)
    assert tableau._hbvm_tableau.cache_info().currsize == 1
    wide = integrate(prob, None, MethodConfig(np.int64(3), np.int64(12)), 0.1, 20)
    assert wide.states.tobytes() == ints.states.tobytes()
    assert tableau._hbvm_tableau.cache_info().currsize == 1
    # a NumPy nu too: the stepper reads the checked count
    two = kepler_invariants("angular_momentum_and_lrl")
    wide_nu = InvariantSet(np.int64(2), two.values, two.gradients)
    a = integrate(prob, wide_nu, MethodConfig(np.int64(3), np.int64(12)), 0.1, 20)
    b = integrate(prob, two, MethodConfig(3, 12), 0.1, 20)
    for name in ("states", "alpha", "iterations", "fallback"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    checked = MethodConfig(np.int64(3), np.int64(12), None, np.float32(1e-14)).validate()
    assert checked == MethodConfig(3, 12, None, float(np.float32(1e-14))) and checked.r is None
    assert [type(v) for v in (checked.s, checked.k, checked.fp_tolerance)] == [int, int, float]
    assert type(MethodConfig(3, 12, np.int64(12)).validate(nu=np.int64(1)).r) is int


def test_step_rejects_bad_inputs():
    prob = kepler_problem(0.6)
    inv = kepler_invariants("angular_momentum_only")
    with pytest.raises(ConfigError):
        hbvm_step(prob, MethodConfig(s=2, k=4), prob.initial_state, 0.0)
    with pytest.raises(ConfigError):
        hbvm_step(prob, MethodConfig(s=2, k=4), np.zeros(3), 0.1)
    with pytest.raises(ConfigError):
        elim_step(prob, None, MethodConfig(s=2, k=4), prob.initial_state, 0.1)
    # non-finite inputs are rejected up front instead of burning _MAX_SWEEPS sweeps
    for h in (np.nan, np.inf):
        with pytest.raises(ConfigError):
            hbvm_step(prob, MethodConfig(s=2, k=4), prob.initial_state, h)
        with pytest.raises(ConfigError):
            elim_step(prob, inv, MethodConfig(s=2, k=4), prob.initial_state, h)
        with pytest.raises(ConfigError):
            integrate(prob, None, MethodConfig(s=2, k=4), h, 5)
    # h is a real number under fp_tolerance's rule: float() would take "0.1"
    # and True, but a string, a bool or None is refused by all three entries
    for h in ("0.1", True, False, None, 0.1j):
        message = f"step size must be a real number, got {h!r}"
        for run in (partial(hbvm_step, prob, MethodConfig(s=2, k=4), prob.initial_state),
                    partial(elim_step, prob, inv, MethodConfig(s=2, k=4), prob.initial_state),
                    partial(integrate, prob, None, MethodConfig(s=2, k=4), n_steps=2)):
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                run(h=h)
    # and one float() can hold: an integer past the float range is refused
    # by name instead of raising OverflowError
    for run in (partial(hbvm_step, prob, MethodConfig(s=2, k=4), prob.initial_state),
                partial(elim_step, prob, inv, MethodConfig(s=2, k=4), prob.initial_state),
                partial(integrate, prob, None, MethodConfig(s=2, k=4), n_steps=2)):
        for h in (10**400, -(10**400)):
            with pytest.raises(ConfigError, match="^step size is too large for a float$"):
                run(h=h)
    # NumPy floats and integers are real numbers
    a = integrate(prob, None, MethodConfig(s=2, k=4), np.float64(0.1), 3)
    b = integrate(prob, None, MethodConfig(s=2, k=4), 0.1, 3)
    np.testing.assert_array_equal(a.states, b.states)
    osc = polynomial_oscillator(2)
    a, _ = hbvm_step(osc, MethodConfig(s=2, k=4), osc.initial_state, np.int64(1))
    b, _ = hbvm_step(osc, MethodConfig(s=2, k=4), osc.initial_state, 1.0)
    np.testing.assert_array_equal(a, b)
    # a non-integer or bool s, k, r or n_steps is named in the message
    for config, n_steps, message in (
        (MethodConfig(2.0, 4), 5, "s must be an integer, got 2.0"),
        (MethodConfig(2, True), 5, "k must be an integer, got True"),
        (MethodConfig(2, 4, 4.5), 5, "r must be an integer, got 4.5"),
        (MethodConfig(2, 4, False), 5, "r must be an integer, got False"),
        (MethodConfig(2, 4), 5.0, "n_steps must be an integer, got 5.0"),
        (MethodConfig(2, 4), True, "n_steps must be an integer, got True"),
    ):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            integrate(prob, inv, config, 0.1, n_steps)
    # no steps at all, or more than a state array can address: a ConfigError,
    # not an empty trajectory or NumPy's ValueError
    with pytest.raises(ConfigError, match="^need n_steps >= 1, got n_steps=0$"):
        integrate(prob, None, MethodConfig(s=2, k=4), 0.1, 0)
    for n_steps in (_max_steps(prob.dim) + 1, 10**300):
        with pytest.raises(ConfigError, match="n_steps"):
            integrate(prob, None, MethodConfig(s=2, k=4), 0.1, n_steps)
    bad_state = prob.initial_state.copy()
    bad_state[2] = np.nan
    with pytest.raises(ConfigError):
        hbvm_step(prob, MethodConfig(s=2, k=4), bad_state, 0.1)
    with pytest.raises(ConfigError):
        elim_step(prob, inv, MethodConfig(s=2, k=4), bad_state, 0.1)
    # elim_step asks for its invariant set before it looks at the other inputs
    with pytest.raises(ConfigError, match="^elim_step needs an InvariantSet with nu >= 1$"):
        elim_step(prob, None, MethodConfig(s=2, k=4), bad_state, 0.1)
    # both steppers name a zero step, a misshapen state and a bad config; the
    # elim config is checked against the nu of the set it is given
    both = kepler_invariants("angular_momentum_and_lrl")
    for step in (partial(hbvm_step, prob), partial(elim_step, prob, inv),
                 partial(elim_step, prob, both)):
        for config, y0, h, message in (
            (MethodConfig(s=3, k=4), prob.initial_state, 0.0, "step size must be nonzero"),
            (MethodConfig(s=3, k=4), np.zeros(3), 0.1, "state must have shape (4,), got (3,)"),
            (MethodConfig(s=3, k=2), prob.initial_state, 0.1, "need k >= s, got k=2, s=3"),
        ):
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                step(config, y0, h)
    with pytest.raises(
        ConfigError, match=r"^conserving nu=2 invariants needs s > nu, got s=2$"
    ):
        elim_step(prob, both, MethodConfig(s=2, k=4), prob.initial_state, 0.1)


# a callable's output made into one that is no real ndarray: a list of the
# right shape, a complex array and a bool array, each refused by its type
_NOT_REAL_NDARRAYS = (("list", lambda a: a.tolist()), ("complex128", lambda a: a.astype(complex)),
                      ("bool", lambda a: a > 0))
_NOT_REAL_NDARRAY = "expected an ndarray of integers or of floats of at most 64 bits"


def test_values_of_another_shape_fail_by_name():
    # integrate and drift_report take H and the invariants along the states
    # from the callables; a series of the wrong shape is named, not broadcast
    # into invariant_error or left to fail on an index, and so is a series
    # that is no real ndarray
    prob = kepler_problem(0.6)
    one = kepler_invariants("angular_momentum_only")
    wide = InvariantSet(
        1,
        kepler_invariants("angular_momentum_and_lrl").values,
        kepler_invariants("angular_momentum_only").gradients,
    )
    flat = HamiltonianProblem("flat", 2, lambda y: 0.0, prob.grad_h, prob.initial_state)
    cases = [
        (prob, wide, "InvariantSet.values gave shape (3, 2) on 3 states, expected (3, 1)"),
        (flat, None, "hamiltonian gave shape () on 3 states, expected (3,)"),
    ]
    for got, change in _NOT_REAL_NDARRAYS:
        cases += [
            (replace(prob, hamiltonian=lambda y, change=change: change(prob.hamiltonian(y))), None,
             f"hamiltonian gave {got}, {_NOT_REAL_NDARRAY}"),
            (prob, replace(one, values=lambda y, change=change: change(one.values(y))),
             f"InvariantSet.values gave {got}, {_NOT_REAL_NDARRAY}"),
        ]
    for problem, invariants, message in cases:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            integrate(problem, invariants, MethodConfig(3, 12), 0.1, 2)


def test_gradients_of_another_shape_fail_by_name():
    # the sweep projects the gradients through a reshape, which would pass a
    # transposed (..., nu, d) invariant gradient silently and fail a wrong nu
    # with an unnamed error; each step's first sweep names the callable
    prob = kepler_problem(0.6)
    both = kepler_invariants("angular_momentum_and_lrl")
    one = kepler_invariants("angular_momentum_only")
    config = MethodConfig(3, 12)
    cases = (
        (None, replace(prob, grad_h=lambda y: prob.grad_h(y).T),
         "grad_h gave shape (4, 12) on 12 stages, expected (12, 4)"),
        (replace(both, gradients=lambda y: np.swapaxes(both.gradients(y), -1, -2)), prob,
         "InvariantSet.gradients gave shape (12, 2, 4) on 12 stages, expected (12, 4, 2)"),
        (replace(both, gradients=one.gradients), prob,
         "InvariantSet.gradients gave shape (12, 4, 1) on 12 stages, expected (12, 4, 2)"),
    )
    # and so are arrays that are no real ndarray, on the same first sweep
    for got, change in _NOT_REAL_NDARRAYS:
        cases += (
            (None, replace(prob, grad_h=lambda y, change=change: change(prob.grad_h(y))),
             f"grad_h gave {got}, {_NOT_REAL_NDARRAY}"),
            (replace(both, gradients=lambda y, change=change: change(both.gradients(y))), prob,
             f"InvariantSet.gradients gave {got}, {_NOT_REAL_NDARRAY}"),
        )
    for invariants, problem, message in cases:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            integrate(problem, invariants, config, 0.1, 2)
    # every step is checked, with the calls the sweeps make anyway: a
    # gradient that goes wrong on the third step's first call fails there
    sweeps = int(integrate(prob, both, config, 0.1, 2).iterations.sum())
    calls = []

    def late(y):
        calls.append(1)
        g = both.gradients(y)
        return g[..., :1] if len(calls) == sweeps + 1 else g

    with pytest.raises(ConfigError, match=r"^InvariantSet.gradients gave shape \(12, 4, 1\)"):
        integrate(prob, replace(both, gradients=late), config, 0.1, 3)
    assert len(calls) == sweeps + 1


@pytest.mark.parametrize("h", [0.1, -0.1], ids=["forward", "backward"])
def test_a_steps_first_stage_is_y0_bit_for_bit(h):
    # every step starts from zero coefficients, where u(c h) = y0: the first
    # stage array the gradient sees is y0 in every row, a -0.0 included
    prob = kepler_problem(0.6)
    seen = []

    def grad_h(y):
        seen.append(np.array(y))
        return prob.grad_h(y)

    y0 = np.array([0.4, -0.0, -0.0, 2.0])
    hbvm_step(replace(prob, grad_h=grad_h), MethodConfig(3, 12), y0, h)
    assert seen[0].shape == (12, 4)
    assert [row.tobytes() for row in seen[0]] == [y0.tobytes()] * 12


def test_resolved_r_defaults_to_k():
    config = MethodConfig(s=3, k=12)
    assert config.resolved_r() == 12
    assert MethodConfig(s=3, k=12, r=14).resolved_r() == 14


@pytest.mark.parametrize(
    "problem",
    [kepler_problem(0.6), polynomial_oscillator(6),
     _random_quadratic_problem(np.random.default_rng(5))],
    ids=["kepler", "oscillator6", "quadratic"],
)
def test_projection_then_structure_equals_projected_vector_field(problem):
    # the stepper applies J, a signed permutation, to the s projected rows
    # as a product with J^T (ndarray.dot, like its other products): for finite
    # gradients every term but one is a zero, so the result is
    # PTB @ (J grad H) bit for bit
    JT = apply_structure(np.eye(problem.dim), problem.m)
    rng = np.random.default_rng(29)
    for k, s in ((4, 2), (12, 3), (12, 8), (16, 3)):
        PTB = build_hbvm_tableau(k, s).PTB
        for _ in range(10):
            U = problem.initial_state + 0.3 * rng.standard_normal((k, problem.dim))
            for stage in (U, np.asfortranarray(U)):
                got = PTB.dot(problem.grad_h(stage)).dot(JT)
                assert got.tobytes() == (PTB @ problem.vector_field(stage)).tobytes()


@pytest.mark.parametrize(
    "invariants, r, lookups",
    [(None, None, 1), ("angular_momentum_only", 12, 1), ("angular_momentum_and_lrl", 8, 2)],
    ids=["hbvm", "elim_r_eq_k", "elim_stacked"],
)
def test_integrate_looks_up_each_operator_set_once(invariants, r, lookups):
    # the per-run work is done once per integrate call, not once per step
    inv = kepler_invariants(invariants) if invariants else None
    before = tableau._hbvm_tableau.cache_info()
    integrate(kepler_problem(0.6), inv, MethodConfig(s=3, k=12, r=r), 0.1, 50)
    after = tableau._hbvm_tableau.cache_info()
    assert (after.hits + after.misses) - (before.hits + before.misses) == lookups


def _numpy_frames(run):
    # Python-level frames (wrappers, __array_function__ dispatchers) entered
    # in NumPy's own files while run() runs
    root = os.path.dirname(np.__file__) + os.sep
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename.startswith(root):
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return count


@pytest.mark.parametrize(
    "invariants, r",
    [
        (None, None),
        ("angular_momentum_only", 12),
        ("angular_momentum_only", 8),
        ("angular_momentum_and_lrl", 12),
        ("angular_momentum_and_lrl", 8),
    ],
    ids=["hbvm", "elim_nu1", "elim_nu1_stacked", "elim_nu2", "elim_nu2_stacked"],
)
def test_sweeps_call_numpy_only_through_c(invariants, r):
    # A sweep costs what its NumPy calls cost, and a call through a Python
    # wrapper (np.dot's dispatcher, ndarray.max, ndarray.sum, np.einsum)
    # costs a quarter of a microsecond or more than the C entry point under
    # it (ndarray.dot, ufunc.reduce, c_einsum).  So no step may enter a
    # NumPy Python frame: the count is the same for 10 steps as for 20.
    inv = kepler_invariants(invariants) if invariants else None
    run = partial(integrate, kepler_problem(0.6), inv, MethodConfig(s=3, k=12, r=r), 0.1)
    run(1)  # builds and caches the tableau
    assert _numpy_frames(partial(run, 10)) == _numpy_frames(partial(run, 20))


def _openblas_haswell_kernel_runs_here():
    # OPENBLAS_CORETYPE=Haswell needs a CPU with AVX2 and FMA, and acts on
    # OpenBLAS only
    try:
        with open("/proc/cpuinfo") as fh:
            flags = set(fh.read().split())
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (OSError, KeyError, TypeError):
        return False
    return {"avx2", "fma"} <= flags and "openblas" in blas.lower()


@pytest.mark.skipif(
    not _openblas_haswell_kernel_runs_here(), reason="needs OpenBLAS on an AVX2 and FMA CPU"
)
def test_sweeps_call_numpy_only_through_c_under_the_haswell_kernel():
    # Which NumPy calls a sweep makes must not depend on the BLAS kernel.
    # OpenBLAS's Haswell kernel sums in another order than the one picked
    # on an AVX-512 CPU, so a branch taken on a sum (an exactly zero Gamma)
    # can go the other way.  The variable acts on the child process only.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_integrators.py::test_sweeps_call_numpy_only_through_c"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout


@pytest.mark.parametrize(
    "nu, r", [(0, None), (1, 12), (1, 8)], ids=["hbvm", "elim_nu1", "elim_nu1_stacked"]
)
def test_callables_may_return_views_of_the_stage_array(nu, r):
    # The stepper writes each sweep's stages into arrays it reuses, so a
    # callable that hands back (a view of) the stage array it was given
    # must still give the run of one that copies, bit for bit.  Here H =
    # |y|^2 / 2, whose gradient is the state itself, is also the invariant:
    # its scaling system is zero in exact arithmetic and falls back, but its
    # rhs, noise floor and fallback flags are still read from the views.
    def run(grad, inv_grad):
        problem = HamiltonianProblem(
            "quadratic", 2, lambda y: 0.5 * np.sum(y * y, axis=-1), grad,
            np.array([1.0, 0.5, -0.25, 0.75]),
        )
        inv = InvariantSet(1, lambda y: 0.5 * np.sum(y * y, axis=-1)[..., None], inv_grad)
        return integrate(problem, inv if nu else None, MethodConfig(s=3, k=12, r=r), 0.1, 30)

    views = run(lambda y: y, lambda y: y[..., None])
    # copies in the layout of the views, which the projections see
    copies = run(lambda y: y.copy("K"), lambda y: y[..., None].copy("K"))
    for name in ("states", "iterations", "alpha", "fallback"):
        assert getattr(views, name).tobytes() == getattr(copies, name).tobytes(), name


def _record_bytes(record):
    return [np.asarray(getattr(record, f.name)).tobytes() for f in fields(record)]


@pytest.mark.parametrize("invariants", [None, "angular_momentum_only", "angular_momentum_and_lrl"])
def test_a_stepper_rewrites_its_one_record_in_place(invariants):
    inv = kepler_invariants(invariants) if invariants else None
    nu = inv.nu if inv else 0
    prob = kepler_problem(0.6)
    step = _stepper(prob, inv, MethodConfig(s=3, k=12), 0.1)
    y1, record = step(prob.initial_state)
    arrays = [record.gamma, record.eta, record.alpha, record.Gamma, record.rhs]
    assert [a.shape for a in arrays[2:]] == [(nu,), (nu, nu), (nu,)]
    before = _record_bytes(record)
    _, again = step(y1)
    assert again is record
    assert all(a is b for a, b in zip(arrays, [record.gamma, record.eta, record.alpha,
                                               record.Gamma, record.rhs]))
    # the second step's internals replace the first's
    assert _record_bytes(record)[0] != before[0]
    if nu:
        assert _record_bytes(record)[2:5] != before[2:5]


def test_single_steps_return_records_of_their_own():
    prob = kepler_problem(0.6)
    inv = kepler_invariants("angular_momentum_and_lrl")
    for step in (partial(hbvm_step, prob, MethodConfig(s=3, k=12)),
                 partial(elim_step, prob, inv, MethodConfig(s=3, k=12))):
        y1, first = step(prob.initial_state, 0.1)
        before = _record_bytes(first)
        _, second = step(y1, 0.1)
        assert second is not first
        assert _record_bytes(first) == before
        assert _record_bytes(second) != before


@pytest.mark.parametrize(
    "invariants, r",
    [(None, None), ("angular_momentum_only", 12), ("angular_momentum_only", 8),
     ("angular_momentum_and_lrl", 12)],
    ids=["nu0", "nu1", "nu1_stacked", "nu2"],
)
def test_integrate_bookkeeping_is_the_records_of_its_steps(invariants, r):
    prob = kepler_problem(0.6)
    inv = kepler_invariants(invariants) if invariants else None
    config = MethodConfig(s=3, k=12, r=r)
    traj = integrate(prob, inv, config, 0.1, 30)
    step = partial(elim_step, prob, inv) if inv else partial(hbvm_step, prob)
    y, states, iterations, alphas, fallbacks = prob.initial_state, [], [], [], []
    for _ in range(30):
        y, record = step(config, y, 0.1)
        states.append(y)
        iterations.append(record.iterations)
        alphas.append(record.alpha)
        fallbacks.append(record.gamma_fallback_used)
    assert traj.states[1:].tobytes() == np.array(states).tobytes()
    assert traj.iterations.tolist() == iterations
    assert traj.alpha.tobytes() == np.array(alphas).reshape(30, -1).tobytes()
    assert traj.fallback.tolist() == fallbacks
