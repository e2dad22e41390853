"""Fixed-point steppers for the energy- and invariant-conserving methods.

One step advances the stage polynomial

    u(c h) = y0 + h sum_{j<s} (int_0^c P_j) eta_j gamma_j,   c in [0, 1],

where the s coefficients gamma_j are discrete line-integral averages of the
vector field at k Gauss nodes and eta rescales the last nu directions so the
extra invariants are conserved as well.  The plain method keeps eta = 1
(energy only); the corrected method recomputes eta each sweep from a small
nu x nu linear system built at r Gauss nodes.  The update is y1 = y0 + h
gamma_0 in both cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

try:
    from numpy._core.multiarray import c_einsum
except ImportError:  # NumPy 1.x
    from numpy.core.multiarray import c_einsum

from .problems import (
    ConfigError,
    HamiltonianProblem,
    InvariantSet,
    _check_array,
    _check_count,
    _check_real,
    _is_real,
    apply_structure,
)
from .tableau import build_hbvm_tableau

__all__ = [
    "NonConvergence",
    "MethodConfig",
    "StepWorkspace",
    "Trajectory",
    "hbvm_step",
    "elim_step",
    "integrate",
]


_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# a scaling system whose 1-norm condition number exceeds this falls back to alpha = 0
_COND_BOUND = 1e8
# a step that has not met the tolerance after this many sweeps raises NonConvergence
_MAX_SWEEPS = 200
# max over all entries, as ndarray.max but without its Python wrapper
_amax = np.maximum.reduce


class NonConvergence(RuntimeError):
    """Fixed-point iteration ran _MAX_SWEEPS sweeps without meeting the tolerance."""

    def __init__(self, message, residual=np.nan, iterations=0, step_index=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.step_index = step_index


@dataclass(frozen=True)
class MethodConfig:
    """Parameters of a method run.

    s is the polynomial degree count (order 2s), k the number of Gauss nodes
    for the Hamiltonian quadrature, r the number for the invariant quadrature
    (ignored without invariants; defaults to k).  Every step starts its
    iteration from gamma = 0, alpha = 0.
    """

    s: int
    k: int
    r: Optional[int] = None
    fp_tolerance: float = 1e-14

    def resolved_r(self) -> int:
        return self.k if self.r is None else self.r

    def validate(self, nu: int = 0) -> MethodConfig:
        """Check the config for a run imposing nu invariants; return the config the
        run uses: its counts Python ints, its tolerance a float, an r of None kept."""
        s, k, r, nu = (_check_count(name, value, low) for name, value, low in (
            ("s", self.s, 1), ("k", self.k, None), ("r", self.resolved_r(), None), ("nu", nu, 0)))
        if k < s:
            raise ConfigError(f"need k >= s, got k={k}, s={s}")
        if r < s:
            raise ConfigError(f"need r >= s, got r={r}, s={s}")
        if nu > 0 and s <= nu:
            raise ConfigError(f"conserving nu={nu} invariants needs s > nu, got s={s}")
        tol = _check_real("fp_tolerance", self.fp_tolerance)
        if not 0.0 < tol < math.inf:
            raise ConfigError(f"fp_tolerance must be a positive finite number, got {tol!r}")
        return MethodConfig(s, k, None if self.r is None else r, tol)


@dataclass
class StepWorkspace:
    """Converged internals of one step, mainly for diagnostics and tests.

    A stepper owns one record and rewrites it, arrays included, on every
    step: gamma and eta are its sweep buffers, and alpha (nu,), Gamma (nu, nu)
    and rhs (nu,) are filled in place.  A caller who keeps a record past the
    next step copies it; after a NonConvergence it describes no step.
    """

    gamma: np.ndarray
    eta: np.ndarray
    alpha: np.ndarray
    Gamma: np.ndarray
    rhs: np.ndarray
    iterations: int
    gamma_fallback_used: bool
    fallback_sweeps: int = 0


@dataclass
class Trajectory:
    """Equispaced solution samples plus per-step iteration bookkeeping.

    h_error and invariant_error are signed deviations from the initial values
    (shape (n+1,) and (n+1, nu)); alpha and fallback are per step (n, nu) and
    (n,).  With no invariants nu = 0 and those arrays are empty.
    """

    h: float
    times: np.ndarray
    states: np.ndarray
    h_error: np.ndarray
    invariant_error: np.ndarray
    iterations: np.ndarray
    alpha: np.ndarray
    fallback: np.ndarray

    @property
    def iteration_total(self) -> int:
        return int(self.iterations.sum())


def _solve_scaling(g, b, w, alpha_old, rhs_noise):
    """Solve Gamma alpha = b; fall back to alpha = 0 on a degenerate system.

    Every argument is in Python floats: g holds Gamma's nu x nu entries row
    by row, and b, w and alpha_old are lists of nu.  Returns (alpha,
    fallback) with alpha a list.

    Besides a non-finite alpha and the conditioning bound, a solution with
    |h^(2(s-1-j)) alpha_j| > 1 is rejected: it would push an eta entry
    through zero and only arises from the transient near-zero gamma tail
    of a cold-started iteration.

    A refresh that moves alpha by less than norm(inv(Gamma)) * rhs_noise is
    discarded in favor of alpha_old, which is returned itself: rhs is then
    resolved only to round-off, and following the noise through a tiny Gamma
    would keep the stage values dancing below the convergence threshold
    forever.

    For nu = 1 and nu = 2 the inverse is the reciprocal or the adjugate over
    the determinant, with the norms taken by hand: at these sizes NumPy's
    per-call overhead is most of the cost.  A zero or non-finite 1 x 1
    Gamma has no inverse; any other gives LU's values.  A 2 x 2 determinant
    that is zero, subnormal, overflowing or not a number goes to the LU
    path that nu > 2 always takes, whose condition number judges singular
    and badly scaled systems.  Every path yields cond, norm(inv(Gamma),
    inf), alpha, max|w alpha| and max|alpha - alpha_old| for one set of
    acceptance rules.
    """
    nu = len(b)
    det = g[0] * g[3] - g[1] * g[2] if nu == 2 else 0.0
    if nu == 1:
        if not 0.0 < abs(g[0]) < math.inf:
            return [0.0], True
        inv = 1.0 / g[0]
        cond = abs(g[0]) * abs(inv)
        inv_norm = abs(inv)
        alpha = [inv * b[0]]
        w_alpha = abs(w[0] * alpha[0])
        moved = abs(alpha[0] - alpha_old[0])
    elif _TINY <= abs(det) < math.inf:
        i00, i01, i10, i11 = g[3] / det, -g[1] / det, -g[2] / det, g[0] / det
        a00, a01, a10, a11 = abs(i00), abs(i01), abs(i10), abs(i11)
        # 1-norms (largest column sum) for cond, inf-norm (largest row sum) for the floor
        cond = max(abs(g[0]) + abs(g[2]), abs(g[1]) + abs(g[3])) * max(a00 + a10, a01 + a11)
        inv_norm = max(a00 + a01, a10 + a11)
        alpha = [i00 * b[0] + i01 * b[1], i10 * b[0] + i11 * b[1]]
        w_alpha = max(abs(w[0] * alpha[0]), abs(w[1] * alpha[1]))
        moved = max(abs(alpha[0] - alpha_old[0]), abs(alpha[1] - alpha_old[1]))
    else:
        # no inverse (a non-finite entry, a singular Gamma) leaves cond
        # infinite; alpha is formed only within the bound, as inv @ rhs of a
        # wild inverse can overflow
        cond = math.inf
        Gamma, rhs = np.array(g).reshape(nu, nu), np.array(b)
        if np.all(np.isfinite(Gamma)) and np.all(np.isfinite(rhs)):
            try:
                inv = np.linalg.inv(Gamma)
                cond = np.linalg.norm(Gamma, 1) * np.linalg.norm(inv, 1)
            except np.linalg.LinAlgError:
                pass
        if cond <= _COND_BOUND:
            solution = inv @ rhs
            inv_norm = np.linalg.norm(inv, np.inf)
            alpha = solution.tolist()
            w_alpha = np.max(np.abs(np.array(w) * solution))
            moved = np.max(np.abs(solution - np.array(alpha_old)))
    # cond first: past the bound the LU path has formed nothing else.  A
    # non-finite rhs makes alpha non-finite.
    if not (cond <= _COND_BOUND and all(map(math.isfinite, alpha)) and w_alpha <= 1.0):
        return [0.0] * nu, True
    if moved <= inv_norm * rhs_noise:
        return alpha_old, False
    return alpha, False


def _scaling_system_nu2(G, Phi, w):
    """Gamma (row by row) and rhs of a nu = 2 scaling system, in Python floats.

    G is s x d, and Phi holds the s x d x 2 projection in C order (the sweep
    passes it as s x 2d).  The bits are those of prods =
    np.einsum("jdv,jd->jv", Phi, G), rhs = prods.sum(axis=0) and Gamma[v][i]
    = w_i prods[s - 2 + i][v]: on these operands einsum adds the products
    Phi G to a zero in d order, and the column sum adds row by row, which
    the loops below repeat.  At nu = 1 NumPy pairs terms instead (SIMD
    lanes, and a pairwise sum from s = 8 on), so that case stays in NumPy.
    The nu = 1 path gives nu = 2 the same bits but a slower sweep (in 21 of
    22 drift_elim2 benchmark pairs, median 30.0 vs 28.7 us, 2-vCPU Xeon VM).
    """
    s, d = G.shape
    g, phi = G.ravel().tolist(), Phi.ravel().tolist()
    rhs0 = rhs1 = a = b = 0.0
    for j in range(0, s * d, d):
        a_prev, b_prev = a, b
        a = b = 0.0
        for i in range(j, j + d):
            a += phi[2 * i] * g[i]
            b += phi[2 * i + 1] * g[i]
        rhs0 += a
        rhs1 += b
    w0, w1 = w
    return [w0 * a_prev, w1 * a, w0 * b_prev, w1 * b], [rhs0, rhs1]


def _stepper(problem, invariants, config, h):
    """Build the sweep loop of a run of steps of size h; returns step(y0).

    What does not depend on the state (the operators, w, the noise scale,
    J^T, every array a sweep writes and the StepWorkspace record) is made
    here once, so a step runs only its sweeps.  step(y0) returns (y1,
    record).

    At nu <= 2 the scaling system is formed in Python floats (at nu = 2
    all of it, in _scaling_system_nu2).  eta and I eta are rewritten only
    when the accepted alpha differs from the one they were built from,
    which the stepper keeps across steps: in late sweeps the noise-floor
    rule mostly hands alpha back unchanged.
    """
    s, k = config.s, config.k
    nu = invariants.nu if invariants is not None else 0
    r = config.resolved_r() if nu else k
    d = problem.dim
    tol = config.fp_tolerance
    grad_h = problem.grad_h
    # J^T: g @ J^T is apply_structure(g, m) when g is finite, but for the
    # sign of an exact zero; a non-finite entry of g makes its whole row NaN
    JT = apply_structure(np.eye(d), problem.m)

    # One stage array U: rows [:k] are the Hamiltonian nodes, rows [-r:] the
    # invariant nodes.  With r = k (always at nu = 0) both cover all of U;
    # otherwise the r-node rows follow the k-node ones.
    tab_k = build_hbvm_tableau(k, s)
    I, PTB_k = tab_k.I, tab_k.PTB
    Ieta = I
    eta = np.ones(s)
    # G and, with invariants, Phi in one flat buffer, so that one call
    # takes the absolute values of both for the noise floor; G_raw holds
    # PTB_k @ grad H before J acts on it
    GP = np.empty(s * d * (1 + nu))
    G = GP[: s * d].reshape(s, d)
    G_raw = np.empty((s, d))
    if nu:
        tab_r = build_hbvm_tableau(r, s) if r != k else tab_k
        PTB_r = tab_r.PTB
        if r != k:
            I = np.vstack((I, tab_r.I))
        gradients = invariants.gradients
        # row j holds Phi[j, a, v] at a nu + v; Phi3 is the same (s, d, nu)
        Phi = GP[s * d :].reshape(s, d * nu)
        Phi3 = Phi.reshape(s, d, nu)
        GP_abs = np.empty_like(GP)
        G_abs, Phi_abs = GP_abs[: s * d], GP_abs[s * d :].reshape(s * d, nu)
        # the nu noise-floor sums and, at nu != 2, the nu column sums of
        # the products Phi G
        floor, col_sums = np.empty(nu), np.empty(nu)
        # even powers h^(2(s-1-j)) for the corrected tail j = s-nu .. s-1
        w = ((h * h) ** np.arange(nu - 1, -1, -1)).tolist()
        # round-off scale of the rhs assembly: 4 s d terms per invariant
        noise_scale = 4.0 * s * d * _EPS
        # I eta differs from I only in its nu tail columns, which a sweep
        # rewrites in place when alpha moves; eta_alpha is the alpha eta and
        # I eta were last built from (eta = 1 is alpha = 0)
        Ieta = I.copy()
        I_tail = [I[:, j] for j in range(s - nu, s)]
        Ieta_tail = [Ieta[:, j] for j in range(s - nu, s)]
        eta_alpha = [0.0] * nu
    IetaT = Ieta.T

    # The stage arrays are column-major: G.T.dot(IetaT).T holds the bits of
    # (I eta) @ G, and every column y[..., i] a problem callable reads is
    # contiguous.  Every step starts from G = 0, where u(c h) = y0: its
    # first stage array is y0 in every row, bit for bit.
    #
    # Every NumPy call of a sweep enters C directly: products are
    # ndarray.dot, maxima and sums ufunc.reduce.  np.dot's dispatcher and
    # the ndarray.max and ndarray.sum wrappers are Python frames in front of
    # the same C routines, and at these sizes a sweep costs what its calls
    # cost.  test_sweeps_call_numpy_only_through_c holds this at nu = 0, 1
    # and 2.  Nor does the stage update or the residual broadcast: at k =
    # 12, d = 4, U_next += y0 with y0 of shape (d,) goes through NumPy's
    # general iterator in 1.27 us, against 0.39 us for a stage-shaped y0
    # (and *= h with a float 0.68 against 0.43 us).  So H holds h and Y0
    # the step's y0 in every row, in U's layout, and a step's first stage
    # is a copy of Y0.
    #
    # Nor does a sweep allocate an array the stepper can own: every product
    # and ufunc but nu != 2's einsum writes through its out argument into
    # the arrays made here.  G_raw, G, Phi and their absolute values
    # (GP_abs) are rewritten each sweep, and I eta and eta each time alpha
    # moves.  U and V are the two stage arrays: a sweep writes the next
    # stage into V, turns U into |U - V| for the residual and swaps the
    # names, and the exact bound writes |U| into the spare one.  The
    # callables may return views of the stage array they are given, as
    # everything read from them is projected before any stage array is
    # written.
    H = np.full((len(I), d), h, order="F")
    Y0 = np.empty_like(H)
    # each stage array, its transpose (the out of the stage product) and its
    # rows [:k] and [-r:]: views made once, where one per sweep costs 0.1 us
    stages = [(U, U.T, U[:k], U[-r:]) for U in map(np.empty_like, (H, H))]
    GT = G.T
    record = StepWorkspace(G, eta, np.zeros(nu), np.zeros((nu, nu)), np.zeros(nu), 0, False)
    Gamma_flat = record.Gamma.reshape(nu * nu)

    def step(y0):
        nonlocal eta_alpha
        # The scaling system (Gamma, rhs, alpha) is kept in Python floats:
        # at nu <= 2 a handful of float operations cost less than NumPy calls.
        alpha = [0.0] * nu
        fallback = False
        fallback_sweeps = 0

        # Convergence is measured on the stage values rather than on gamma
        # or alpha directly: the eta rescaling amplifies round-off in alpha
        # by norm(inv(Gamma)), so a raw alpha difference never settles to
        # the tolerance, while the stage values see every unknown at the
        # scale that actually enters the update y1 = y0 + h gamma_0.  Each
        # stage update is y0 + h ((I eta) @ G), evaluated in place in that
        # order.
        #
        # A sweep converges when residual <= tol (1 + max|U_next|) and that
        # maximum is finite.  It is a reduction, so it is taken only when the
        # test could pass.  As max|U_next| <= max|U| + residual (1 + eps),
        # `bound` (max|y0| plus twice each residual since the last exact
        # maximum) stays above max|U|, and a residual above tol (1 + bound),
        # with 1% to spare for rounding, fails the exact test too.  Every
        # sweep count, and so every output, is the one the exact test on
        # every sweep gives.
        (U, UT, Uk, Ur), (V, VT, Vk, Vr) = stages
        Y0[...] = y0
        U[...] = Y0
        # max|U|: every row of U is y0.  Python's max is _amax on a
        # finite y0; with a NaN in y0 every residual is NaN, which takes
        # the exact test whatever the bound
        bound = max(map(abs, y0.tolist()))
        # (sweep, stage array bytes) of the last sweep whose residual was not finite
        kept = None

        for sweeps in range(1, _MAX_SWEEPS + 1):
            # gamma_j = J sum_i b_i P_j(c_i) grad H(u(c_i h)): J, a signed
            # permutation, acts on the s projected rows, not the k gradients
            grad = grad_h(Uk)
            if sweeps == 1:
                _check_array("grad_h", grad, (k, d), "stages")
            PTB_k.dot(grad, G_raw).dot(JT, G)
            if nu:
                grad = gradients(Ur)
                if sweeps == 1:
                    _check_array("InvariantSet.gradients", grad, (r, d, nu), "stages")
                PTB_r.dot(grad.reshape(r, d * nu), Phi)
                # a NaN column makes its rhs entry NaN and the solve fall
                # back, so Python's max, which can pass over a NaN, decides
                # nothing np.max would not
                np.absolute(GP, GP_abs)
                rhs_noise = noise_scale * max(G_abs.dot(Phi_abs, floor).tolist())
                if nu == 2:
                    Gamma, rhs = _scaling_system_nu2(G, Phi, w)
                else:
                    # np.einsum enters two Python frames (its dispatcher
                    # and its body) before it calls this C routine on the
                    # same operands; c_einsum's out, a keyword, would cost
                    # more than the array it saves
                    prods = c_einsum("jdv,jd->jv", Phi3, G)
                    # NumPy's column sum, not a Python loop: at nu = 1 and
                    # s >= 8 it adds pairwise, an order a loop would not
                    # reproduce
                    rhs = np.add.reduce(prods, 0, None, col_sums).tolist()
                    # Gamma[v][i] = w_i prods[s - nu + i][v]
                    tail = prods[s - nu :].tolist()
                    Gamma = [wi * row[v] for v in range(nu) for wi, row in zip(w, tail)]
                alpha, fallback = _solve_scaling(Gamma, rhs, w, alpha, rhs_noise)
                fallback_sweeps += fallback
                # an equal alpha gives the same eta bit for bit
                if alpha != eta_alpha:
                    eta_alpha = alpha
                    # column by column with a Python float: multiplying the
                    # tail block by eta's tail broadcasts
                    for i in range(nu):
                        e = eta[s - nu + i] = 1.0 - w[i] * alpha[i]
                        np.multiply(I_tail[i], e, Ieta_tail[i])

            GT.dot(IetaT, VT)
            V *= H
            V += Y0
            U -= V  # |U - V| is |V - U| bit for bit
            residual = float(_amax(np.absolute(U, U), None))
            U, UT, Uk, Ur, V, VT, Vk, Vr = V, VT, Vk, Vr, U, UT, Uk, Ur
            bound += 2.0 * residual
            # "not >" so that a NaN residual or bound takes the exact test
            if not residual > tol * (1.0 + bound) * 1.01:
                bound = float(_amax(np.absolute(U, V), None))
                if residual <= tol * (1.0 + bound) and bound < math.inf:
                    break
                if not residual < math.inf:
                    # a repeated stage array has a residual of 0 or NaN, so
                    # every repeat that did not converge passes here.  With
                    # deterministic callables it repeats alpha too, and the
                    # step can never leave it
                    stage = U.tobytes()
                    if kept == (sweeps - 1, stage):
                        raise NonConvergence(
                            f"no fixed point: sweep {sweeps} repeated the non-finite stages "
                            f"of sweep {sweeps - 1} (residual {residual:.3e}, h={h!r})",
                            residual=residual,
                            iterations=sweeps,
                        )
                    kept = sweeps, stage
        else:
            raise NonConvergence(
                f"no fixed point after {_MAX_SWEEPS} sweeps "
                f"(residual {residual:.3e}, h={h!r})",
                residual=residual,
                iterations=_MAX_SWEEPS,
            )
        if nu:
            record.alpha[:] = alpha
            Gamma_flat[:] = Gamma
            record.rhs[:] = rhs
        record.iterations = sweeps
        record.gamma_fallback_used = fallback
        record.fallback_sweeps = fallback_sweeps
        return y0 + h * G[0], record

    return step


def _one_step(problem, invariants, config, y0, h):
    """One validated step through a fresh stepper; returns (y1, its record)."""
    problem, _, invariants, config, y0, h = _validate(problem, invariants, config, y0, h)
    return _stepper(problem, invariants, config, h)(y0)


def _validate(problem, invariants, config, y0, h):
    """Check a step's inputs once; return the problem, nu, invariants, config, y0 and h
    as the run uses them."""
    problem = replace(problem, m=_check_count("m", problem.m, 1))
    nu = invariants.nu if invariants is not None else 0
    config = config.validate(nu=nu)
    nu = int(nu)  # a count, as validate checked; the stepper reads it as a Python int
    invariants = replace(invariants, nu=nu) if nu else None
    h = _check_real("step size", h)
    if h == 0.0:
        raise ConfigError("step size must be nonzero")
    if not math.isfinite(h):
        raise ConfigError(f"step size must be finite, got {h!r}")
    y0 = _check_array("state", y0, (problem.dim,))
    if not np.all(np.isfinite(y0)):
        raise ConfigError("state must be finite")
    return problem, nu, invariants, config, y0, h


def _deviations(problem, invariants, states):
    """H and the invariants (no columns with none) along states, less their values at states[0]."""
    n = states.shape[0]
    h_vals = _check_array("hamiltonian", problem.hamiltonian(states), (n,), "states")
    inv_vals = np.zeros((n, 0)) if invariants is None else _check_array(
        "InvariantSet.values", invariants.values(states), (n, invariants.nu), "states")
    return h_vals - h_vals[0], inv_vals - inv_vals[0]


def _max_steps(dim):
    """Largest step count whose (n_steps + 1, dim) float state array NumPy can address."""
    return np.iinfo(np.intp).max // (dim * np.dtype(float).itemsize) - 1


def hbvm_step(
    problem: HamiltonianProblem,
    config: MethodConfig,
    y0: np.ndarray,
    h: float,
):
    """One energy-conserving step; returns (y1, workspace)."""
    return _one_step(problem, None, config, y0, h)


def elim_step(
    problem: HamiltonianProblem,
    invariants: InvariantSet,
    config: MethodConfig,
    y0: np.ndarray,
    h: float,
):
    """One step conserving the Hamiltonian and the given invariants; returns (y1, workspace)."""
    # a nu that is no number is left to MethodConfig.validate to name
    if invariants is None or (_is_real(invariants.nu) and invariants.nu < 1):
        raise ConfigError("elim_step needs an InvariantSet with nu >= 1")
    return _one_step(problem, invariants, config, y0, h)


def integrate(
    problem: HamiltonianProblem,
    invariants: Optional[InvariantSet],
    config: MethodConfig,
    h: float,
    n_steps: int,
) -> Trajectory:
    """March n_steps steps of size h from the problem's initial state."""
    problem, nu, invariants, config, y, h = _validate(
        problem, invariants, config, problem.initial_state, h)
    n_steps = _check_count("n_steps", n_steps, 1)
    if n_steps > _max_steps(problem.dim):
        raise ConfigError(
            f"n_steps={n_steps} is more than the {_max_steps(problem.dim)} steps "
            "whose states an array can hold"
        )

    states = np.empty((n_steps + 1, problem.dim))
    states[0] = y
    iterations = np.zeros(n_steps, dtype=int)
    alphas = np.zeros((n_steps, nu))
    fallbacks = np.zeros(n_steps, dtype=bool)

    step = _stepper(problem, invariants, config, h)
    for i in range(n_steps):
        try:
            y, record = step(y)
        except NonConvergence as exc:
            exc.args = (f"step {i + 1} of {n_steps}: {exc}",)
            exc.step_index = i + 1
            raise
        states[i + 1] = y
        iterations[i] = record.iterations
        fallbacks[i] = record.gamma_fallback_used
        if nu:
            alphas[i] = record.alpha

    h_error, invariant_error = _deviations(problem, invariants, states)
    return Trajectory(
        h=h,
        times=h * np.arange(n_steps + 1),
        states=states,
        h_error=h_error,
        invariant_error=invariant_error,
        iterations=iterations,
        alpha=alphas,
        fallback=fallbacks,
    )
