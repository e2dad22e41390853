"""Stepping, fixed-point iteration, and the invariant-imposing scaling."""

import hashlib
import re
import struct

import numpy as np
import pytest

from linteg.integrators import (
    ConfigError,
    MethodConfig,
    NonConvergence,
    _MAX_SWEEPS,
    _max_steps,
    _solve_scaling,
    _structure_transpose,
    elim_step,
    hbvm_step,
    integrate,
)
from linteg.problems import (
    HamiltonianProblem,
    InvariantSet,
    apply_structure,
    kepler_invariants,
    kepler_problem,
    polynomial_oscillator,
)
from linteg.tableau import build_hbvm_tableau

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
# nu <= 2 closed form and the LU path each had their own acceptance rules
SOLVE_SCALING_SHA256 = "b2cff0d04340cbec5c5f90819fd796848c6acd37211dcf85353501f716672272"


def test_solve_scaling_outputs_are_pinned():
    digest = hashlib.sha256()
    for g, b, w, old, noise in _pinned_scaling_inputs():
        alpha, fallback = _solve_scaling(g, b, w, old, noise)
        digest.update(struct.pack(f"{len(b)}d", *alpha))
        digest.update(bytes([fallback, alpha is old]))
    assert digest.hexdigest() == SOLVE_SCALING_SHA256


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
    for tol in (0.0, np.inf, np.nan, "1e-14", True):
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
    with pytest.raises(ConfigError, match="^n_steps must be >= 1, got 0"):
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
    # as a product with J^T (np.dot, like its other products): for finite
    # gradients every term but one is a zero, so the result is
    # PTB @ (J grad H) bit for bit
    JT = _structure_transpose(problem.m)
    assert not JT.flags.writeable
    rng = np.random.default_rng(29)
    for k, s in ((4, 2), (12, 3), (12, 8), (16, 3)):
        PTB = build_hbvm_tableau(k, s).PTB
        for _ in range(10):
            U = problem.initial_state + 0.3 * rng.standard_normal((k, problem.dim))
            for stage in (U, np.asfortranarray(U)):
                got = np.dot(np.dot(PTB, problem.grad_h(stage)), JT)
                assert got.tobytes() == (PTB @ problem.vector_field(stage)).tobytes()


@pytest.mark.parametrize(
    "invariants, r, lookups",
    [(None, None, 1), ("angular_momentum_only", 12, 1), ("angular_momentum_and_lrl", 8, 2)],
    ids=["hbvm", "elim_r_eq_k", "elim_stacked"],
)
def test_integrate_looks_up_each_operator_set_once(invariants, r, lookups):
    # the per-run work is done once per integrate call, not once per step
    inv = kepler_invariants(invariants) if invariants else None
    before = build_hbvm_tableau.cache_info()
    integrate(kepler_problem(0.6), inv, MethodConfig(s=3, k=12, r=r), 0.1, 50)
    after = build_hbvm_tableau.cache_info()
    assert (after.hits + after.misses) - (before.hits + before.misses) == lookups
