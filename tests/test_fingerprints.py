"""The seed-0 benchmark jobs, recomputed with the public API, give the recorded bytes.

The sha256 values are the `# fingerprints` lines of
perfbench/records/<workload>-seed0-trace0.txt.  Any change to the stepper's
floating-point operations, their order or the layouts they see shows up here.
"""

import hashlib

import numpy as np
import pytest

from linteg import MethodConfig, harness, integrate, kepler_invariants, kepler_problem

DRIFT_STATES_SHA256 = {
    "drift_elim2": "3816fcf81b06046eee48050ff1717eebe8f89f326d7a4ad62b0477ec52e79f6c",
    "drift_hbvm": "e2a0e8d7f895d5bf3f93a16dab347bafa8ae4e17dffa1cd4fcf310bbb88ed1f6",
}
CLI_CSV_SHA256 = "309a40a40a93e6941c64e939fe3f18c389fec165460a8cf43b41ba28a13a6597"


@pytest.mark.parametrize(
    "workload, invariants, r",
    [("drift_elim2", "angular_momentum_and_lrl", 12), ("drift_hbvm", None, None)],
)
def test_drift_jobs_match_recorded_states(workload, invariants, r):
    # Kepler e = 0.6 from perihelion, HBVM(12, 3) or EHBVM(12, 3), 100 steps of 0.1
    inv = kepler_invariants(invariants) if invariants else None
    traj = integrate(kepler_problem(0.6), inv, MethodConfig(s=3, k=12, r=r), 0.1, 100)
    digest = hashlib.sha256(np.ascontiguousarray(traj.states).tobytes()).hexdigest()
    assert digest == DRIFT_STATES_SHA256[workload]


def test_cli_convergence_job_matches_recorded_csv(tmp_path, capsys):
    out = tmp_path / "convergence.csv"
    argv = [
        "convergence", "--problem", "kepler", "--eccentricity", "0.6",
        "--method", "elim", "-s", "3", "-k", "12", "--invariants", "L1",
        "--tol", "1e-15", "--steps", "pi/120,pi/240", "--horizon", "2pi",
        "--out", str(out),
    ]
    assert harness.main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CLI_CSV_SHA256
