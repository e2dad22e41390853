"""The seed-0 benchmark jobs, recomputed with the public API, give the recorded bytes.

The default kernel's sha256 values are the `# fingerprints` lines of
perfbench/records/<workload>-seed0-trace0.txt.  Any change to the stepper's
floating-point operations, their order or the layouts they see shows up here.
The digests are recorded per arithmetic (see conftest).
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from linteg import MethodConfig, harness, integrate, kepler_invariants, kepler_problem

from conftest import __cpu_features__, _recorded
from test_integrators import _openblas_haswell_kernel_runs_here

DRIFT_STATES_SHA256 = {
    ("SkylakeX", True): {
        "drift_elim2": "3816fcf81b06046eee48050ff1717eebe8f89f326d7a4ad62b0477ec52e79f6c",
        "drift_hbvm": "e2a0e8d7f895d5bf3f93a16dab347bafa8ae4e17dffa1cd4fcf310bbb88ed1f6",
    },
    ("Haswell", True): {
        "drift_elim2": "0d53b9b126f2a01aef6ca5b938825453063f6dd664bf644a04a0c115da9960de",
        "drift_hbvm": "e2a0e8d7f895d5bf3f93a16dab347bafa8ae4e17dffa1cd4fcf310bbb88ed1f6",
    },
    ("SkylakeX", False): {
        "drift_elim2": "d43f85c5eccb6561d43c6cdf90748099c0ce3a0a78ca5bfe7d28515d454232e7",
        "drift_hbvm": "336c2731b4b2af7d92354912b5bb86ef1173520d195ac01dbdbbe9661621a818",
    },
}
CLI_CSV_SHA256 = {
    ("SkylakeX", True): "309a40a40a93e6941c64e939fe3f18c389fec165460a8cf43b41ba28a13a6597",
    ("Haswell", True): "e0e781ee7082f774648069c10102fac31d64202f5f233a81b8ca0bb8284e3beb",
    ("SkylakeX", False): "cdbcad45b90fe52d0d2b261637945619826d671b60bb106cc8dfba14a51893a8",
}


@pytest.mark.parametrize(
    "workload, invariants, r",
    [("drift_elim2", "angular_momentum_and_lrl", 12), ("drift_hbvm", None, None)],
)
def test_drift_jobs_match_recorded_states(workload, invariants, r):
    # Kepler e = 0.6 from perihelion, HBVM(12, 3) or EHBVM(12, 3), 100 steps of 0.1
    inv = kepler_invariants(invariants) if invariants else None
    traj = integrate(kepler_problem(0.6), inv, MethodConfig(s=3, k=12, r=r), 0.1, 100)
    digest = hashlib.sha256(np.ascontiguousarray(traj.states).tobytes()).hexdigest()
    assert digest == _recorded(DRIFT_STATES_SHA256)[workload]


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
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _recorded(CLI_CSV_SHA256)


# the three jobs above and every test holding a pin keyed by arithmetic, with
# the tables they sit in, and how many tests that is
_KEYED_PIN_TESTS = [
    "tests/test_fingerprints.py::test_drift_jobs_match_recorded_states",
    "tests/test_fingerprints.py::test_cli_convergence_job_matches_recorded_csv",
    "tests/test_harness.py::test_nonconvergence_exit_code",
    "tests/test_harness.py::test_orders_divide_by_the_step_ratio",
    "tests/test_harness.py::test_reproduce_paper_tables_match_the_subcommands",
    "tests/test_harness.py::test_cli_bytes_are_pinned",
    "tests/test_integrators.py::test_solve_scaling_outputs_are_pinned",
    "tests/test_integrators.py::test_nu2_runs_off_the_fingerprinted_path_are_pinned",
    "tests/test_integrators.py::test_runs_off_the_fingerprinted_path_are_pinned",
    "tests/test_tableau.py::test_hbvm_tableau_bytes_are_pinned",
    "tests/test_tableau.py::test_large_hbvm_tableau_bytes_are_pinned",
]
_KEYED_PIN_COUNT = 46


def _rerun_keyed_pins(variable, value):
    # _KEYED_PIN_TESTS in a child process where variable, one of the two
    # kernel switches, is set and the other is not, against the digests of
    # that arithmetic
    root = Path(__file__).resolve().parents[1]
    switches = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")
    env = {key: text for key, text in os.environ.items() if key not in switches}
    env.update({variable: value, "PYTHONPATH": str(root / "src")})
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *_KEYED_PIN_TESTS],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout
    assert f"{_KEYED_PIN_COUNT} passed" in done.stdout, done.stdout


@pytest.mark.skipif(
    not _openblas_haswell_kernel_runs_here(), reason="needs OpenBLAS on an AVX2 and FMA CPU"
)
def test_jobs_match_their_recorded_bytes_under_the_haswell_kernel():
    # OpenBLAS runs its Haswell kernel, with NumPy's AVX-512 loops on
    _rerun_keyed_pins("OPENBLAS_CORETYPE", "Haswell")


@pytest.mark.skipif(not __cpu_features__.get("AVX512F"), reason="needs an AVX-512 CPU")
def test_jobs_match_their_recorded_bytes_without_the_avx512_loops():
    # NumPy dispatches no AVX-512 loop, with the kernel OpenBLAS picks itself
    _rerun_keyed_pins("NPY_DISABLE_CPU_FEATURES", "AVX512_SPR AVX512_ICL X86_V4")
