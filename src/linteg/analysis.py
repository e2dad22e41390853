"""Post-processing: convergence orders, drift statistics and cost accounting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .integrators import MethodConfig, Trajectory, integrate
from .problems import HamiltonianProblem, InvariantSet

__all__ = [
    "DriftReport",
    "estimate_orders",
    "max_norm_error",
    "reference_solution",
    "drift_slope",
    "drift_report",
    "cost_ratio",
]


@dataclass(frozen=True)
class DriftReport:
    """Deviation series of H and monitored invariants along one trajectory."""

    h_error: np.ndarray
    invariant_error: np.ndarray
    h_slope: float
    invariant_slopes: np.ndarray
    h_max: float
    invariant_max: np.ndarray


def estimate_orders(errors) -> np.ndarray:
    """Observed orders log2(e_i / e_{i+1}) for errors on successively halved steps."""
    errors = np.asarray(errors, dtype=float)
    if errors.ndim != 1 or errors.size < 2:
        raise ValueError("need at least two errors to estimate an order")
    if np.any(errors <= 0.0):
        raise ValueError("errors must be positive")
    return np.log2(errors[:-1] / errors[1:])


def max_norm_error(y: np.ndarray, reference: np.ndarray) -> float:
    """Max-norm distance between a state and its reference."""
    return float(np.max(np.abs(np.asarray(y) - np.asarray(reference))))


def reference_solution(
    problem: HamiltonianProblem, h_ref: float, horizon: float
) -> np.ndarray:
    """Reference terminal state at t = horizon.

    The Kepler orbit is 2 pi periodic, so whole-period horizons return the
    initial state; anything else is integrated with the (12, 6) method at
    h_ref (order 12), adjusted to land exactly on the horizon.
    """
    if not horizon > 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    n = _reference_steps(problem, h_ref, horizon)
    if n == 0:
        return problem.initial_state.copy()
    config = MethodConfig(s=6, k=12)
    traj = integrate(problem, None, config, horizon / n, n)
    return traj.states[-1]


def _reference_steps(problem: HamiltonianProblem, h_ref: float, horizon: float) -> int:
    """Steps reference_solution integrates: 0 where the horizon is a whole
    number of Kepler periods."""
    if problem.name == "kepler":
        periods = horizon / (2.0 * math.pi)
        if abs(periods - round(periods)) <= 1e-9 * max(1.0, abs(periods)):
            return 0
    return max(1, int(round(horizon / h_ref)))


def drift_slope(times, errors) -> float:
    """Least-squares slope of |errors| against times."""
    times = np.asarray(times, dtype=float)
    errors = np.abs(np.asarray(errors, dtype=float))
    if times.shape != errors.shape or times.size < 2:
        raise ValueError("times and errors must be equal-length with >= 2 samples")
    return float(np.polyfit(times, errors, 1)[0])


def drift_report(
    trajectory: Trajectory,
    problem: HamiltonianProblem,
    monitored: Optional[InvariantSet] = None,
) -> DriftReport:
    """Drift statistics of a trajectory.

    The monitored invariants are evaluated on the stored states, so they need
    not be the set the integrator conserved (checking e.g. how a plain method
    loses an invariant it never imposed).
    """
    states = trajectory.states
    h_vals = problem.hamiltonian(states)
    h_error = h_vals - h_vals[0]
    if monitored is not None:
        vals = monitored.values(states)
        invariant_error = vals - vals[0]
    else:
        invariant_error = np.zeros((states.shape[0], 0))
    h_slope = drift_slope(trajectory.times, h_error)
    inv_slopes = np.array(
        [drift_slope(trajectory.times, invariant_error[:, i]) for i in range(invariant_error.shape[1])]
    )
    return DriftReport(
        h_error=h_error,
        invariant_error=invariant_error,
        h_slope=h_slope,
        invariant_slopes=inv_slopes,
        h_max=float(np.max(np.abs(h_error))),
        invariant_max=np.max(np.abs(invariant_error), axis=0)
        if invariant_error.size
        else np.zeros(0),
    )


def cost_ratio(r1: int, k1: int, r2: int, k2: int, nu: int) -> float:
    """Per-step work ratio (k1 + (nu+1) r1) / (k2 + nu r2) of the uncorrected
    formulation over the corrected one, counting vector-field and gradient
    evaluations per sweep."""
    for name, val in (("r1", r1), ("k1", k1), ("r2", r2), ("k2", k2)):
        if val < 1:
            raise ValueError(f"{name} must be >= 1, got {val}")
    if nu < 0:
        raise ValueError(f"nu must be >= 0, got {nu}")
    return (k1 + (nu + 1) * r1) / (k2 + nu * r2)
