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

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .problems import HamiltonianProblem, InvariantSet, apply_structure
from .tableau import build_hbvm_tableau

__all__ = [
    "ConfigError",
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


class ConfigError(ValueError):
    """Raised for invalid method parameters before any stepping happens."""


class NonConvergence(RuntimeError):
    """Fixed-point iteration ran _MAX_SWEEPS sweeps without meeting the tolerance."""

    def __init__(self, message, residual=np.nan, iterations=0, step_index=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.step_index = step_index


def _check_count(name, value):
    # bool is an int subclass; a float, even a whole one, is no count
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


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

    def validate(self, nu: int = 0) -> None:
        for name, value in (("s", self.s), ("k", self.k), ("r", self.resolved_r())):
            _check_count(name, value)
        if self.s < 1:
            raise ConfigError(f"need s >= 1, got s={self.s}")
        if self.k < self.s:
            raise ConfigError(f"need k >= s, got k={self.k}, s={self.s}")
        if nu > 0:
            if self.resolved_r() < self.s:
                raise ConfigError(
                    f"need r >= s, got r={self.resolved_r()}, s={self.s}"
                )
            if self.s <= nu:
                raise ConfigError(
                    f"conserving nu={nu} invariants needs s > nu, got s={self.s}"
                )
        tol = self.fp_tolerance
        real = isinstance(tol, (int, float, np.integer, np.floating)) and not isinstance(tol, bool)
        if not (real and 0.0 < tol < math.inf):
            raise ConfigError(f"fp_tolerance must be a positive finite number, got {tol!r}")


@dataclass
class StepWorkspace:
    """Converged per-step internals, mainly for diagnostics and tests."""

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
    per-call overhead is most of the cost.  A determinant that is zero,
    subnormal, overflowing or not a number (every non-finite Gamma gives
    one) goes to the LU path that nu > 2 always takes, so singular and
    badly scaled systems are judged exactly as before.  Both paths yield
    cond, norm(inv(Gamma), inf), alpha, max|w alpha| and max|alpha -
    alpha_old| for one set of acceptance rules.
    """
    nu = len(b)
    det = g[0] if nu == 1 else g[0] * g[3] - g[1] * g[2] if nu == 2 else 0.0
    if _TINY <= abs(det) < math.inf:
        if nu == 1:
            inv = 1.0 / det
            cond = abs(g[0]) * abs(inv)
            inv_norm = abs(inv)
            alpha = [inv * b[0]]
            w_alpha = abs(w[0] * alpha[0])
            moved = abs(alpha[0] - alpha_old[0])
        else:
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


@functools.lru_cache(maxsize=None)
def _structure_transpose(m):
    """J^T, read-only and cached per m.

    g @ J^T is apply_structure(g, m) when g is finite, but for the sign of an
    exact zero; a non-finite entry of g makes its whole row NaN.
    """
    jt = apply_structure(np.eye(2 * m), m)
    jt.flags.writeable = False
    return jt


def _stepper(problem, invariants, config, h):
    """Build the sweep loop of a run of steps of size h; returns step(y0).

    What does not depend on the state (the operators, w, the noise scale,
    J^T and the first stage array) is made here once, so a step runs only
    its sweeps.  step(y0) returns (y1, sweeps, alpha, fallback, G, eta,
    Gamma, rhs, fallback_sweeps): alpha, Gamma (row by row) and rhs are
    lists of Python floats, and eta is the stepper's own array, which the
    next step overwrites.
    """
    s, k = config.s, config.k
    nu = invariants.nu if invariants is not None else 0
    d = problem.dim
    tol = config.fp_tolerance
    grad_h = problem.grad_h
    JT = _structure_transpose(problem.m)

    # One stage array U: rows [:k] are the Hamiltonian nodes, rows [-r:] the
    # invariant nodes.  With r = k both cover all of U; otherwise the r-node
    # rows are stacked under the k-node ones.
    tab_k = build_hbvm_tableau(k, s)
    I, PTB_k = tab_k.I, tab_k.PTB
    Ieta = I
    eta = np.ones(s)
    stacked = False
    if nu:
        r = config.resolved_r()
        stacked = r != k
        tab_r = build_hbvm_tableau(r, s) if stacked else tab_k
        PTB_r = tab_r.PTB
        if stacked:
            I = np.vstack((I, tab_r.I))
        gradients = invariants.gradients
        # even powers h^(2(s-1-j)) for the corrected tail j = s-nu .. s-1
        w = ((h * h) ** np.arange(nu - 1, -1, -1)).tolist()
        # round-off scale of the rhs assembly: 4 s d terms per invariant
        noise_scale = 4.0 * s * d * _EPS
        # I eta differs from I only in its nu tail columns, which each sweep
        # rewrites in place
        Ieta = I.copy()
        I_tail, Ieta_tail, eta_tail = I[:, s - nu :], Ieta[:, s - nu :], eta[s - nu :]
    IetaT = Ieta.T

    # The stage arrays are column-major: np.dot(G.T, IetaT).T holds the bits
    # of (I eta) @ G, and every column y[..., i] a problem callable reads is
    # contiguous.  Every step starts from G = 0, so its first stage array is
    # y0 plus the same h ((I eta) @ 0), formed here once.
    #
    # The sweep's products are np.dot, not @: on these small 2-d operands
    # both make the same BLAS call, and np.dot costs less to dispatch.
    zero_stage = np.dot(np.zeros((d, s)), IetaT).T * h

    def step(y0):
        # The scaling system (Gamma, rhs, alpha) is kept in Python floats:
        # at nu <= 2 a handful of float operations cost less than NumPy calls.
        alpha = [0.0] * nu
        Gamma = [0.0] * (nu * nu)
        rhs = [0.0] * nu
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
        # A sweep converges when residual <= tol (1 + max|U_next|).  That
        # maximum is a reduction, so it is taken only when the test could
        # pass.  As max|U_next| <= max|U| + residual (1 + eps), `bound`
        # (max|y0| plus twice each residual since the last exact maximum)
        # stays above max|U|, and a residual above tol (1 + bound), with 1%
        # to spare for rounding, fails the exact test too.  Every sweep
        # count, and so every output, is the one the exact test on every
        # sweep gives.
        U = zero_stage + y0
        bound = float(abs(y0).max())  # max|U|: every row of U is y0 + 0

        for sweeps in range(1, _MAX_SWEEPS + 1):
            # gamma_j = J sum_i b_i P_j(c_i) grad H(u(c_i h)): J, a signed
            # permutation, acts on the s projected rows, not the k gradients
            G = np.dot(np.dot(PTB_k, grad_h(U[:k] if stacked else U)), JT)
            if nu:
                grads = gradients(U[-r:] if stacked else U).reshape(r, d * nu)
                Phi = np.dot(PTB_r, grads).reshape(s, d, nu)
                prods = np.einsum("jdv,jd->jv", Phi, G)
                rhs_noise = noise_scale * float(
                    np.dot(abs(G).ravel(), abs(Phi).reshape(s * d, nu)).max()
                )
                # NumPy's column sum, not a Python loop: at nu = 1 and s >= 8
                # it adds pairwise, an order a loop would not reproduce
                rhs = prods.sum(axis=0).tolist()
                # Gamma[v][i] = w_i prods[s - nu + i][v]
                tail = prods[s - nu :].tolist()
                Gamma = [wi * row[v] for v in range(nu) for wi, row in zip(w, tail)]
                alpha, fallback = _solve_scaling(Gamma, rhs, w, alpha, rhs_noise)
                fallback_sweeps += fallback
                eta_tail[:] = [1.0 - wi * ai for wi, ai in zip(w, alpha)]
                np.multiply(I_tail, eta_tail, out=Ieta_tail)

            U_next = np.dot(G.T, IetaT).T
            U_next *= h
            U_next += y0
            U -= U_next  # |U - U_next| is |U_next - U| bit for bit
            residual = float(abs(U).max())
            U = U_next
            bound += 2.0 * residual
            # "not >" so that a NaN residual or bound takes the exact test
            if not residual > tol * (1.0 + bound) * 1.01:
                bound = float(abs(U).max())
                if residual <= tol * (1.0 + bound):
                    break
        else:
            raise NonConvergence(
                f"no fixed point after {_MAX_SWEEPS} sweeps "
                f"(residual {residual:.3e}, h={h!r})",
                residual=residual,
                iterations=_MAX_SWEEPS,
            )
        return y0 + h * G[0], sweeps, alpha, fallback, G, eta, Gamma, rhs, fallback_sweeps

    return step


def _one_step(problem, invariants, config, y0, h):
    """One step through a fresh stepper, with its StepWorkspace."""
    step = _stepper(problem, invariants, config, h)
    y1, sweeps, alpha, fallback, G, eta, Gamma, rhs, fallback_sweeps = step(y0)
    nu = len(alpha)
    workspace = StepWorkspace(
        gamma=G,
        eta=eta,
        alpha=np.array(alpha),
        Gamma=np.array(Gamma).reshape(nu, nu),
        rhs=np.array(rhs),
        iterations=sweeps,
        gamma_fallback_used=bool(fallback),
        fallback_sweeps=int(fallback_sweeps),
    )
    return y1, workspace


def _validate(problem, config, nu, y0, h):
    """Check a step's inputs once; return the state as a float array and h as a float."""
    config.validate(nu=nu)
    h = float(h)
    if h == 0.0:
        raise ConfigError("step size must be nonzero")
    if not math.isfinite(h):
        raise ConfigError(f"step size must be finite, got {h!r}")
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (problem.dim,):
        raise ConfigError(
            f"state must have shape ({problem.dim},), got {y0.shape}"
        )
    if not np.all(np.isfinite(y0)):
        raise ConfigError("state must be finite")
    return y0, h


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
    y0, h = _validate(problem, config, 0, y0, h)
    return _one_step(problem, None, config, y0, h)


def elim_step(
    problem: HamiltonianProblem,
    invariants: InvariantSet,
    config: MethodConfig,
    y0: np.ndarray,
    h: float,
):
    """One step conserving the Hamiltonian and the given invariants; returns (y1, workspace)."""
    if invariants is None or invariants.nu < 1:
        raise ConfigError("elim_step needs an InvariantSet with nu >= 1")
    y0, h = _validate(problem, config, invariants.nu, y0, h)
    return _one_step(problem, invariants, config, y0, h)


def integrate(
    problem: HamiltonianProblem,
    invariants: Optional[InvariantSet],
    config: MethodConfig,
    h: float,
    n_steps: int,
) -> Trajectory:
    """March n_steps steps of size h from the problem's initial state."""
    nu = invariants.nu if invariants is not None else 0
    y, h = _validate(problem, config, nu, problem.initial_state, h)
    _check_count("n_steps", n_steps)
    if n_steps < 1:
        raise ConfigError(f"n_steps must be >= 1, got {n_steps}")
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
            y, iterations[i], alpha, fallbacks[i] = step(y)[:4]
        except NonConvergence as exc:
            raise NonConvergence(
                f"step {i + 1} of {n_steps}: {exc}",
                residual=exc.residual,
                iterations=exc.iterations,
                step_index=i + 1,
            ) from exc
        states[i + 1] = y
        if nu:
            alphas[i] = alpha

    times = h * np.arange(n_steps + 1)
    h_vals = problem.hamiltonian(states)
    h_error = h_vals - h_vals[0]
    if nu:
        inv_vals = invariants.values(states)
        invariant_error = inv_vals - inv_vals[0]
    else:
        invariant_error = np.zeros((n_steps + 1, 0))
    return Trajectory(
        h=h,
        times=times,
        states=states,
        h_error=h_error,
        invariant_error=invariant_error,
        iterations=iterations,
        alpha=alphas,
        fallback=fallbacks,
    )
