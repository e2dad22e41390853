"""Post-processing: convergence orders, drift statistics and cost accounting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .integrators import MethodConfig, Trajectory, _deviations, integrate
from .problems import (
    ConfigError, HamiltonianProblem, InvariantSet, _check_array, _check_count, _check_real, _facts)

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
    errors = _check_array("errors", errors)
    if errors.ndim != 1 or errors.size < 2:
        raise ConfigError("need at least two errors to estimate an order")
    if np.any(errors <= 0.0):
        raise ConfigError("errors must be positive")
    orders = [_observed_order(p, c, 2.0, 1.0) for p, c in zip(errors[:-1], errors[1:])]
    return np.array(orders, dtype=float)


def _observed_order(prev, cur, h_prev, h) -> Optional[float]:
    """Every order linteg reports: log2(prev / cur) / log2(h_prev / h) for values
    at steps h_prev then h; None where a value is not > 0, their ratio underflows
    to 0 (which math.log2 refuses), or the step ratio is 1 or not positive finite."""
    ratio = h_prev / h
    defined = prev > 0 and cur > 0 and prev / cur > 0 and 0 < ratio < math.inf and ratio != 1
    return math.log2(prev / cur) / math.log2(ratio) if defined else None


def _whole_multiple(total: float, unit: float) -> int:
    """n = round(total / unit) if n >= 1 and |n unit - total| <= 1e-9 total, else 0."""
    n = round(total / unit)
    return n if n >= 1 and abs(n * unit - total) <= 1e-9 * total else 0


def max_norm_error(y: np.ndarray, reference: np.ndarray) -> float:
    """Max-norm distance between a state and its reference, of the same shape."""
    y, reference = _check_array("y", y), _check_array("reference", reference)
    if y.shape != reference.shape:
        raise ConfigError(f"state shape {y.shape} differs from reference shape {reference.shape}")
    return float(np.max(np.abs(y - reference), initial=0.0))  # 0 between empty states


def reference_solution(
    problem: HamiltonianProblem, h_ref: float, horizon: float
) -> np.ndarray:
    """Reference terminal state at t = horizon.

    A whole number of the problem's periods returns the initial state;
    anything else is integrated with the (12, 6) method at h_ref (order 12),
    adjusted to land exactly on the horizon.
    """
    checked = []
    for name, value in (("horizon", horizon), ("h_ref", h_ref)):
        checked.append(_check_real(name, value))
        if not 0.0 < checked[-1] < math.inf:
            raise ConfigError(f"{name} must be positive and finite, got {value}")
    horizon, h_ref = checked
    if not horizon / h_ref < math.inf:
        raise ConfigError(f"horizon {horizon!r} / h_ref {h_ref!r} is not finite")
    n = _reference_steps(problem, h_ref, horizon)
    if n == 0:
        return problem.initial_state.copy()
    return integrate(problem, None, MethodConfig(s=6, k=12), horizon / n, n).states[-1]


def _reference_steps(problem: HamiltonianProblem, h_ref: float, horizon: float) -> int:
    """Steps reference_solution integrates; 0 for a whole number of periods."""
    period = _facts(problem.name).period
    if period is not None and _whole_multiple(horizon, period):
        return 0
    return max(1, int(round(horizon / h_ref)))


def _fsum(values) -> float:
    """math.fsum(values), or nan where fsum raises (inf - inf, a finite sum past float range)."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return math.nan


def _fit_times(times: np.ndarray) -> tuple:
    """(dt, sum(dt^2)) for dt = times - mean(times), centred twice so that dt sums to ~0; a
    ConfigError unless sum(dt^2) lies in (0, inf), the one rule of a drift fit."""
    mean = _fsum(t := times.tolist()) / len(t)
    shift = _fsum(dt := [x - mean for x in t]) / len(t)
    dt = [d - shift for d in dt]
    if not 0.0 < (ss := _fsum(d * d for d in dt)) < math.inf:
        raise ConfigError("times need squared deviations from their mean summing into (0, inf)")
    return dt, ss


def drift_slope(times, errors) -> float:
    """Least-squares slope sum(dt de) / sum(dt^2) of de = |errors| - mean(|errors|) on times."""
    times, errors = _check_array("times", times), np.abs(_check_array("errors", errors))
    if times.ndim != 1 or times.shape != errors.shape or times.size < 2:
        raise ConfigError("times and errors must be equal-length with >= 2 samples")
    dt, ss = _fit_times(times)
    mean = _fsum(e := errors.tolist()) / len(e)
    return _fsum(d * (x - mean) for d, x in zip(dt, e)) / ss


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
    h_error, invariant_error = _deviations(problem, monitored, trajectory.states)
    h_slope = drift_slope(trajectory.times, h_error)
    inv_slopes = np.array([drift_slope(trajectory.times, column) for column in invariant_error.T])
    return DriftReport(
        h_error=h_error,
        invariant_error=invariant_error,
        h_slope=h_slope,
        invariant_slopes=inv_slopes,
        h_max=float(np.max(np.abs(h_error))),
        invariant_max=np.max(np.abs(invariant_error), axis=0),
    )


def cost_ratio(r1: int, k1: int, r2: int, k2: int, nu: int) -> float:
    """Per-step work ratio (k1 + (nu+1) r1) / (k2 + nu r2) of the uncorrected
    formulation over the corrected one, counting vector-field and gradient
    evaluations per sweep."""
    r1, k1, r2, k2, nu = (_check_count(name, value, 0 if name == "nu" else 1) for name, value in
                          (("r1", r1), ("k1", k1), ("r2", r2), ("k2", k2), ("nu", nu)))
    return (k1 + (nu + 1) * r1) / (k2 + nu * r2)
