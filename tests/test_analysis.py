"""Order estimation, reference solutions, and drift diagnostics."""

import math
import re

import numpy as np
import pytest

from linteg.analysis import (
    DriftReport,
    cost_ratio,
    drift_report,
    drift_slope,
    estimate_orders,
    max_norm_error,
    reference_solution,
)
from linteg.integrators import MethodConfig, integrate
from linteg.problems import (
    ConfigError,
    HamiltonianProblem,
    kepler_invariants,
    kepler_problem,
    polynomial_oscillator,
)


def test_estimate_orders_recovers_exponent():
    h = np.array([0.1, 0.05, 0.025, 0.0125])
    errors = 3.7 * h**4
    np.testing.assert_allclose(estimate_orders(errors), 4.0, rtol=0, atol=1e-12)


def test_estimate_orders_validation():
    with pytest.raises(ValueError):
        estimate_orders([1e-3])
    with pytest.raises(ValueError):
        estimate_orders([1e-3, 0.0])
    with pytest.raises(ValueError):
        estimate_orders([1e-3, -1e-4])
    # a NaN passes the check and gives NaN orders, as log2 of a NaN ratio is,
    # and so does a ratio that underflows to 0
    for errors in ([1e-3, math.nan, 1e-5], [1e-320, 1e10]):
        orders = estimate_orders(errors)
        assert orders.dtype == np.float64 and np.isnan(orders).all()


def test_max_norm_error():
    assert max_norm_error(np.array([1.0, 2.0]), np.array([1.0, 2.5])) == 0.5
    # shapes that differ are refused by name, not broadcast into a distance
    for y, reference in ((np.zeros(4), np.ones(1)), (np.zeros((2, 4)), np.zeros(4)), ([0.0], 0.0)):
        message = f"state shape {np.shape(y)} differs from reference shape {np.shape(reference)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            max_norm_error(y, reference)


def test_reference_solution_range_failures_are_config_errors():
    # as its type checks are: an h_ref or horizon that is not positive and
    # finite, or whose ratio overflows
    prob = kepler_problem(0.6)
    for h_ref, horizon, message in (
        (0.0, 1.0, "h_ref must be positive and finite, got 0.0"),
        (0.1, -1.0, "horizon must be positive and finite, got -1.0"),
        (0.1, math.inf, "horizon must be positive and finite, got inf"),
        (5e-324, 1.0, "horizon 1.0 / h_ref 5e-324 is not finite"),
    ):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            reference_solution(prob, h_ref, horizon)


def test_reference_solution_whole_periods_is_initial_state():
    prob = kepler_problem(0.6)
    ref = reference_solution(prob, h_ref=0.01, horizon=4.0 * math.pi)
    np.testing.assert_array_equal(ref, prob.initial_state)


def test_reference_solution_fractional_horizon_consistency():
    # the fallback integrates at high order; halving its step must not move
    # the answer beyond fixed-point noise
    prob = kepler_problem(0.3)
    a = reference_solution(prob, h_ref=0.02, horizon=1.0)
    b = reference_solution(prob, h_ref=0.01, horizon=1.0)
    assert max_norm_error(a, b) <= 1e-11
    assert not np.array_equal(a, prob.initial_state)


def test_reference_solution_below_one_period_is_integrated():
    # 1e-10 is 1.6e-11 Kepler periods, which rounds to zero periods: no
    # whole number of them, so the reference is the (12, 6) run
    prob = kepler_problem(0.6)
    ref = reference_solution(prob, h_ref=2.5e-12, horizon=1e-10)
    traj = integrate(prob, None, MethodConfig(s=6, k=12), 1e-10 / 40, 40)
    np.testing.assert_array_equal(ref, traj.states[-1])
    assert not np.array_equal(ref, prob.initial_state)


def test_reference_solution_whole_periods_survive_a_rebuilt_record():
    # a record rebuilt from its constructor fields, as a caller that wraps
    # the callables makes it, keeps the exact reference: the period is a
    # fact of the problem's name, not a field that the rebuild would drop
    base = kepler_problem(0.6)
    c, s = math.cos(1.3), math.sin(1.3)
    rot = np.array([[c, -s], [s, c]])
    rotated = np.concatenate([rot @ base.initial_state[:2], rot @ base.initial_state[2:]])
    for y0 in (base.initial_state, rotated):
        rebuilt = HamiltonianProblem(
            name=base.name, m=base.m, hamiltonian=base.hamiltonian, grad_h=base.grad_h,
            initial_state=y0,
        )
        for periods in (1, 3):
            ref = reference_solution(rebuilt, h_ref=math.pi / 480, horizon=periods * 2 * math.pi)
            np.testing.assert_array_equal(ref, y0)


def test_reference_solution_validation():
    # each bad argument is named, whether or not the horizon is a whole
    # number of periods (which the Kepler orbit's 2 pi is)
    for prob in (kepler_problem(0.3), polynomial_oscillator(4)):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match=f"horizon must be positive and finite, got {bad}"):
                reference_solution(prob, h_ref=0.01, horizon=bad)
        for horizon in (1.0, 2.0 * math.pi):
            for bad in (0.0, -0.1, math.inf, -math.inf, math.nan):
                with pytest.raises(ValueError, match=f"h_ref must be positive and finite, got {bad}"):
                    reference_solution(prob, h_ref=bad, horizon=horizon)
        # a value that is no real number, or too large for a float, is refused
        # by the real-number rule, naming the argument
        not_real = ((10**400, "is too large for a float"),
                    ("x", "must be a real number, got 'x'"),
                    (None, "must be a real number, got None"))
        for bad, message in not_real:
            with pytest.raises(ConfigError, match=f"^horizon {message}$"):
                reference_solution(prob, h_ref=0.01, horizon=bad)
            for horizon in (1.0, 2.0 * math.pi):
                with pytest.raises(ConfigError, match=f"^h_ref {message}$"):
                    reference_solution(prob, h_ref=bad, horizon=horizon)


def test_reference_solution_integrates_with_its_checked_floats():
    # float32(0.01) and float32(1.0) are used as the floats they convert to,
    # so the run lands on t = 1 rather than 100 float32 steps short of it
    prob = kepler_problem(0.6)
    got = reference_solution(prob, np.float32(0.01), np.float32(1.0))
    want = reference_solution(prob, float(np.float32(0.01)), float(np.float32(1.0)))
    assert got.tobytes() == want.tobytes()


def test_drift_slope_on_synthetic_data():
    t = np.linspace(0.0, 100.0, 201)
    assert drift_slope(t, 2.5e-7 * t) == pytest.approx(2.5e-7, rel=1e-10)
    # bounded oscillation regresses to (nearly) zero slope
    wiggle = 1e-8 * np.sin(0.37 * t)
    assert abs(drift_slope(t, wiggle)) < 1e-10
    for times, errors in ((t, t[:-1]), (t[:1], t[:1])):
        with pytest.raises(ValueError, match="equal-length with >= 2 samples"):
            drift_slope(times, errors)


def test_drift_report_fields_and_flags():
    prob = kepler_problem(0.6)
    inv = kepler_invariants("angular_momentum_only")
    config = MethodConfig(s=3, k=12, r=12)
    traj = integrate(prob, inv, config, h=0.1, n_steps=120)
    report = drift_report(traj, prob, inv)
    assert isinstance(report, DriftReport)
    assert report.h_error.shape == (121,)
    assert report.invariant_error.shape == (121, 1)
    assert report.h_max == np.max(np.abs(report.h_error))
    # conserving method: slopes at round-off level
    assert abs(report.h_slope) <= 1e-12
    assert abs(report.invariant_slopes[0]) <= 1e-12
    # with nothing monitored the invariant fields are empty float arrays
    bare = drift_report(traj, prob)
    assert bare.invariant_error.shape == (121, 0)
    for arr in (bare.invariant_max, bare.invariant_slopes):
        assert (arr.shape, arr.dtype) == ((0,), np.float64)


def test_drift_report_monitors_unimposed_invariants():
    # monitoring set independent of what the integrator imposed
    prob = kepler_problem(0.6)
    config = MethodConfig(s=3, k=3)
    traj = integrate(prob, None, config, h=0.1, n_steps=120)
    monitored = kepler_invariants("angular_momentum_and_lrl")
    report = drift_report(traj, prob, monitored)
    assert report.invariant_error.shape == (121, 2)
    # the plain method conserves quadratic L1 but lets the cubic-like L2 walk
    assert report.invariant_max[0] <= 1e-12
    assert report.invariant_max[1] > 1e-7


@pytest.mark.parametrize("label", [None, "angular_momentum_only", "angular_momentum_and_lrl"])
def test_drift_report_of_the_imposed_set_is_the_trajectory_series(label):
    # integrate and drift_report take their deviations from one rule
    prob = kepler_problem(0.6)
    invariants = None if label is None else kepler_invariants(label)
    traj = integrate(prob, invariants, MethodConfig(s=3, k=6), 0.1, 20)
    report = drift_report(traj, prob, invariants)
    assert report.invariant_error.shape == (21, 0 if invariants is None else invariants.nu)
    for a, b in ((report.h_error, traj.h_error), (report.invariant_error, traj.invariant_error)):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def test_cost_ratio_reference_values():
    assert cost_ratio(r1=12, k1=12, r2=12, k2=12, nu=1) == 1.5
    assert cost_ratio(r1=12, k1=12, r2=12, k2=12, nu=2) == pytest.approx(4.0 / 3.0, abs=0)
    # equal node counts: ratio is (nu + 2) / (nu + 1) independent of k
    for k in (2, 5, 9):
        assert cost_ratio(r1=k, k1=k, r2=k, k2=k, nu=3) == pytest.approx(1.25, abs=0)


def test_cost_ratio_general_counts():
    assert cost_ratio(r1=6, k1=4, r2=8, k2=4, nu=2) == pytest.approx(22.0 / 20.0)


def test_cost_ratio_validation():
    with pytest.raises(ValueError):
        cost_ratio(r1=0, k1=1, r2=1, k2=1, nu=1)
    with pytest.raises(ValueError):
        cost_ratio(r1=1, k1=1, r2=1, k2=1, nu=-1)
