"""The benchmark's Kepler workloads: inputs made from a seed, one job each, and its gates.

Every workload integrates the paper's Kepler orbit (e = 0.6, started at
perihelion) with s = 3 and k = r = 12.  Seed 0 is that orbit exactly; any
other seed draws e within +-0.02 and, where the workload builds its own
problem record, a rotation of the orbit in its plane.  The program sees only
the resulting initial state (or, for the CLI, the --eccentricity flag).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from linteg import (
    HamiltonianProblem,
    InvariantSet,
    MethodConfig,
    drift_report,
    elim_step,
    hbvm_step,
    integrate,
    kepler_invariants,
    kepler_problem,
    max_norm_error,
    reference_solution,
)

PAPER_ECCENTRICITY = 0.6
ECCENTRICITY_JITTER = 0.02
S, K = 3, 12
DRIFT_H = 0.1

# acceptance bounds reused as gates (criteria 3, 6 and 7); never loosened here
H_ERROR_MAX = 1e-11
L2_ERROR_MAX = 1e-9
ORDER_RANGE = (5.8, 6.6)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "drift" or "cli"
    invariants: Optional[str]  # kepler_invariants selection, None for plain HBVM
    tol: float = 1e-14


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "drift_elim2",
            "EHBVM(12,3) nu=2 drift run at h=0.1: every ELIM layer (gradients, Phi "
            "tensordot, scaling solve, r=k stage update) runs each sweep",
            "drift",
            "angular_momentum_and_lrl",
        ),
        Workload(
            "drift_hbvm",
            "HBVM(12,3) on the same orbit and h with no invariants: the shared sweep "
            "bypassing every ELIM layer, so ELIM-only changes predict no change",
            "drift",
            None,
        ),
        Workload(
            "cli_convergence_elim1",
            "linteg convergence via harness.main, elim nu=1, tol 1e-15, pi/120 and "
            "pi/240 over 2pi: CLI, reference, CSV path, alpha noise floor, ~7 sweeps/step",
            "cli",
            "angular_momentum_only",
            tol=1e-15,
        ),
    )
}


def orbit(seed: int, rotate: bool) -> tuple[float, float]:
    """(eccentricity, rotation angle) of the orbit a seed stands for."""
    # drawn for seed 0 too, so every seed loads numpy.random (same memory and set-up)
    rng = np.random.default_rng(seed)
    e = PAPER_ECCENTRICITY + float(rng.uniform(-ECCENTRICITY_JITTER, ECCENTRICITY_JITTER))
    theta = float(rng.uniform(0.0, 2.0 * math.pi)) if rotate else 0.0
    if seed == 0:
        return PAPER_ECCENTRICITY, 0.0
    return e, theta


def build_problem(e: float, theta: float, wrap=None) -> HamiltonianProblem:
    """Kepler record for the orbit, built with the public constructor.

    wrap(name, fn), when given, replaces each callable by a traced one.
    """
    base = kepler_problem(e)
    y0 = base.initial_state
    if theta:
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        y0 = np.concatenate([rot @ y0[:2], rot @ y0[2:]])
        y0.flags.writeable = False
    wrap = wrap or (lambda name, fn: fn)
    return HamiltonianProblem(
        name=base.name,
        m=base.m,
        hamiltonian=wrap("problems.hamiltonian", base.hamiltonian),
        grad_h=wrap("problems.vector_field", base.grad_h),
        initial_state=y0,
    )


def build_invariants(which: Optional[str], wrap=None) -> Optional[InvariantSet]:
    if which is None:
        return None
    base = kepler_invariants(which)
    wrap = wrap or (lambda name, fn: fn)
    return InvariantSet(
        nu=base.nu,
        values=wrap("problems.values", base.values),
        gradients=wrap("problems.gradients", base.gradients),
    )


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def states_sha256(traj) -> str:
    return sha256(np.ascontiguousarray(traj.states).tobytes())


def _finite(a) -> bool:
    return bool(np.all(np.isfinite(a)))


def _order_gate(orders) -> list[str]:
    return [
        f"order {o:.3f} outside {ORDER_RANGE}"
        for o in orders
        if not ORDER_RANGE[0] <= o <= ORDER_RANGE[1]
    ]


class DriftRun:
    """integrate() over n_steps at h = 0.1 from the seeded orbit."""

    job_key = "states"  # fingerprint of the job's output

    def __init__(self, wl: Workload, seed: int, n_steps: int, tracer=None):
        self.wl = wl
        self.e, self.theta = orbit(seed, rotate=True)
        self.n_steps = n_steps
        self.h = DRIFT_H
        self.problem = build_problem(self.e, self.theta)
        self.invariants = build_invariants(wl.invariants)
        self.monitored = build_invariants("angular_momentum_and_lrl")
        self.config = MethodConfig(
            s=S, k=K, r=K if wl.invariants else None, fp_tolerance=wl.tol
        )
        if tracer is not None:
            self.t_problem = build_problem(self.e, self.theta, tracer.wrap)
            self.t_invariants = build_invariants(wl.invariants, tracer.wrap)
            self.t_monitored = build_invariants("angular_momentum_and_lrl", tracer.wrap)

    @property
    def steps(self) -> int:
        return self.n_steps

    def job(self):
        """The timed unit of the untraced run: one integrate call."""
        return integrate(self.problem, self.invariants, self.config, self.h, self.n_steps)

    def sweeps(self, traj) -> int:
        return traj.iteration_total

    def check(self, traj) -> list[str]:
        bad = []
        if not _finite(traj.states):
            bad.append("non-finite state")
        h_max = float(np.max(np.abs(traj.h_error)))
        if not h_max <= H_ERROR_MAX:
            bad.append(f"max |H error| {h_max:.3e} > {H_ERROR_MAX:g}")
        if traj.invariant_error.shape[1] == 2:
            l2_max = float(np.max(np.abs(traj.invariant_error[:, 1])))
            if not l2_max <= L2_ERROR_MAX:
                bad.append(f"max |L2 error| {l2_max:.3e} > {L2_ERROR_MAX:g}")
        return bad

    def inputs(self) -> dict:
        return {"eccentricity": self.e, "rotation": self.theta, "h": self.h, "n_steps": self.n_steps}

    def fingerprint_of(self, key: str, result) -> str:
        """sha256 of the states array of the job or of its replica."""
        return states_sha256(result[0] if isinstance(result, tuple) else result)

    def check_replica(self, replica, job_traj) -> list[str]:
        """Gates on a replica; its states must equal those of the last untraced one."""
        bad = self.check(replica[0])
        if job_traj is not None and states_sha256(replica[0]) != states_sha256(job_traj):
            bad.append("replica differs from the untraced job")
        return bad

    def replicate(self, tracer=None):
        """The job plus its drift report; traced through the wrapped records if a tracer is given.

        The traced run alternates the untraced and the traced replica, so
        a traced replica that differs from the job shows the wrapped records
        changed the result.
        """
        if tracer is None:
            traj = self.job()
            return traj, drift_report(traj, self.problem, self.monitored)
        with tracer.span("integrators.integrate"):
            traj = integrate(
                self.t_problem, self.t_invariants, self.config, self.h, self.n_steps
            )
        with tracer.span("analysis.drift_report"):
            report = drift_report(traj, self.t_problem, self.t_monitored)
        return traj, report

    def trajectories(self, replica) -> list:
        return [replica[0]]

    def step_sequence(self):
        """(h, n) segments the stepping loop walks, each from the initial state."""
        return [(self.h, self.n_steps)]


class CliRun:
    """`linteg convergence` through harness.main, writing a CSV inside out_dir."""

    job_key = "csv"  # fingerprint of the job's output

    def __init__(self, wl: Workload, seed: int, out_dir: Path, smoke: bool, tracer=None):
        from linteg import harness

        self.harness = harness
        self.wl = wl
        self.e, _ = orbit(seed, rotate=False)
        # One period, where criterion 3 takes ten: a ten-period job lasts
        # about 8 s, too few of them fit in a run for the fastest to be steady.
        steps = "pi/30,pi/60" if smoke else "pi/120,pi/240"
        horizon = "2pi"
        out_dir.mkdir(parents=True, exist_ok=True)
        self.csv_path = out_dir / f"{wl.name}-{seed}.csv"
        self.argv = [
            "convergence", "--problem", "kepler", "--eccentricity", repr(self.e),
            "--method", "elim", "-s", str(S), "-k", str(K), "--invariants", "L1",
            "--tol", repr(wl.tol), "--steps", steps, "--horizon", horizon,
            "--out", str(self.csv_path),
        ]
        self.step_sizes = [harness.parse_step_size(t) for t in steps.split(",")]
        self.horizon = harness.parse_step_size(horizon)
        self.problem = build_problem(self.e, 0.0)
        self.invariants = build_invariants(wl.invariants)
        self.config = MethodConfig(s=S, k=K, fp_tolerance=wl.tol)
        if tracer is not None:
            self.t_problem = build_problem(self.e, 0.0, tracer.wrap)
            self.t_invariants = build_invariants(wl.invariants, tracer.wrap)

    @property
    def steps(self) -> int:
        return sum(n for _, n in self.step_sequence())

    def step_sequence(self):
        return [(h, int(round(self.horizon / h))) for h in self.step_sizes]

    def job(self):
        """The timed unit of the untraced run: one CLI call; returns (exit code, CSV bytes)."""
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.harness.main(self.argv)
        return code, self.csv_path.read_bytes() if code == 0 else b""

    @staticmethod
    def rows(result) -> list[dict]:
        return list(csv.DictReader(io.StringIO(result[1].decode())))

    def sweeps(self, result) -> int:
        return sum(int(row["iteration_total"]) for row in self.rows(result))

    def check(self, result) -> list[str]:
        if result[0] != 0:
            return [f"linteg exited with {result[0]}"]
        rows = self.rows(result)
        if len(rows) != len(self.step_sizes):
            return [f"{len(rows)} CSV rows for {len(self.step_sizes)} step sizes"]
        bad = [] if _finite([float(row["error"]) for row in rows]) else ["non-finite error"]
        return bad + _order_gate(float(row["order"]) for row in rows[1:])

    def inputs(self) -> dict:
        return {"eccentricity": self.e, "argv": self.argv[:-2]}

    def fingerprint_of(self, key: str, result) -> str:
        """sha256 of the CSV bytes ("csv") or of the finest run's states array ("states")."""
        return sha256(result[1]) if key == "csv" else states_sha256(result[0][-1])

    def replicate(self, tracer=None):
        """The CLI's reference, integrate and error calls made directly."""
        problem = self.problem if tracer is None else self.t_problem
        invariants = self.invariants if tracer is None else self.t_invariants
        span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
        with span("analysis.reference_solution"):
            y_ref = reference_solution(problem, min(self.step_sizes) / 2.0, self.horizon)
        trajs, errors = [], []
        for h, n in self.step_sequence():
            with span("integrators.integrate"):
                traj = integrate(problem, invariants, self.config, h, n)
            with span("analysis.max_norm_error"):
                errors.append(max_norm_error(traj.states[-1], y_ref))
            trajs.append(traj)
        return trajs, errors

    def trajectories(self, replica) -> list:
        return replica[0]

    def check_replica(self, replica, job_result) -> list[str]:
        """Gates on the direct calls; the CLI's CSV must agree with them digit for digit."""
        trajs, errors = replica
        bad = []
        if not all(_finite(t.states) for t in trajs) or not _finite(errors):
            bad.append("non-finite state or error")
        elif min(errors) > 0.0:
            bad += _order_gate(np.log2(np.array(errors[:-1]) / np.array(errors[1:])))
        if job_result is None or job_result[0] != 0:
            return bad
        for row, traj, err in zip(self.rows(job_result), trajs, errors):
            if row["error"] != f"{err:.16g}" or int(row["iteration_total"]) != traj.iteration_total:
                bad.append(f"CSV row {row} differs from direct integrate")
        return bad


def make_run(wl: Workload, seed: int, out_dir: Path, smoke: bool, tracer=None):
    if wl.kind == "cli":
        return CliRun(wl, seed, out_dir, smoke, tracer)
    # 100 steps (t = 10, two perihelion passages): a short job lets the
    # fastest of many find a quiet moment on a loaded host; 500-step jobs
    # spread three times as much over seeds.
    return DriftRun(wl, seed, 20 if smoke else 100, tracer)


def step_latencies(run, min_samples: int):
    """Per-step wall times of hbvm_step / elim_step walking the job's step sequence.

    Repeats the sequence until min_samples steps are timed.  Returns the
    latencies, the fallback sweeps of one pass and the final states of one
    pass per segment (which must equal integrate's, bit for bit).
    """
    problem, invariants, config = run.problem, run.invariants, run.config
    times, fallback_sweeps, finals = [], 0, []
    first_pass = True
    while first_pass or len(times) < min_samples:
        for h, n in run.step_sequence():
            y = problem.initial_state
            for _ in range(n):
                t0 = time.perf_counter()
                if invariants is None:
                    y, ws = hbvm_step(problem, config, y, h)
                else:
                    y, ws = elim_step(problem, invariants, config, y, h)
                times.append(time.perf_counter() - t0)
                if first_pass:
                    fallback_sweeps += ws.fallback_sweeps
            if first_pass:
                finals.append(y)
        first_pass = False
    return times, fallback_sweeps, finals
