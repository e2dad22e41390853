"""The benchmark in perfbench/ calls the library through these entry points;
a change that breaks one fails here, not only when the benchmark runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
NAMES = ["drift_elim2", "drift_hbvm", "cli_convergence_elim1"]


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    return workloads


@pytest.mark.parametrize("name", NAMES)
def test_coldstart_prints_its_micro_timings(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "coldstart.py"), name, "0", "--micro"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    [line] = done.stdout.splitlines()
    assert set(json.loads(line)) == {"gauss_rule_cold_us", "tables_us", "build_hbvm_us"}


@pytest.mark.parametrize("name", NAMES)
def test_workload_job_replica_and_steps_pass_their_gates(name, workloads, tmp_path):
    run = workloads.make_run(workloads.WORKLOADS[name], 0, tmp_path, True)
    result = run.job()
    assert run.check(result) == []
    replica = run.replicate()
    assert run.check_replica(replica, result) == []
    # the single-step walk ends where integrate does, bit for bit
    _, _, finals = workloads.step_latencies(run, 1)
    expected = [traj.states[-1] for traj in run.trajectories(replica)]
    assert np.array(finals).tobytes() == np.array(expected).tobytes()
