"""Command-line interface: parsing, validation, output files."""

import collections
import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import asdict, fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import linteg
from linteg import harness, problems
from linteg.analysis import estimate_orders, max_norm_error, reference_solution
from linteg.harness import ExperimentSpec, main, parse_step_size
from linteg.integrators import MethodConfig, NonConvergence, integrate
from linteg.problems import (
    ConfigError,
    HamiltonianProblem,
    InvariantSet,
    kepler_invariants,
    kepler_problem,
    polynomial_oscillator,
)
from linteg.tableau import build_hbvm_tableau

from conftest import _recorded


def test_parse_step_size():
    assert parse_step_size("0.125") == 0.125
    assert parse_step_size("pi") == pytest.approx(math.pi, abs=0)
    assert parse_step_size("pi/30") == pytest.approx(math.pi / 30, abs=0)
    assert parse_step_size("20pi") == pytest.approx(20 * math.pi, abs=0)
    assert parse_step_size("2*pi") == pytest.approx(2 * math.pi, abs=0)
    assert parse_step_size("1.5pi/3") == pytest.approx(0.5 * math.pi, abs=0)
    assert parse_step_size("1e-3") == 1e-3
    with pytest.raises(ConfigError):
        parse_step_size("two pi")
    with pytest.raises(ConfigError, match="'pi/0'"):
        parse_step_size("pi/0")


def test_spec_validation_rejects_bad_combinations():
    good = ExperimentSpec(
        experiment="drift", method="elim", s=3, k=6, invariants="L1",
        step_sizes=(0.1,), horizon=10.0,
    )
    good.validate()
    with pytest.raises(ConfigError):
        ExperimentSpec(experiment="drift", method="elim", s=3, k=6,
                       step_sizes=(0.1,), horizon=10.0).validate()
    with pytest.raises(ConfigError):
        ExperimentSpec(experiment="drift", method="hbvm", s=3, invariants="L1",
                       step_sizes=(0.1,), horizon=10.0).validate()
    with pytest.raises(ConfigError):
        ExperimentSpec(experiment="drift", method="gauss", s=3, k=12,
                       step_sizes=(0.1,), horizon=10.0).validate()
    with pytest.raises(ConfigError):
        ExperimentSpec(experiment="drift", method="hbvm", s=3,
                       step_sizes=(0.1, 0.05), horizon=10.0).validate()
    with pytest.raises(ConfigError):
        ExperimentSpec(experiment="alpha-norm", method="hbvm", s=3,
                       step_sizes=(0.1,), horizon=10.0).validate()
    with pytest.raises(ConfigError):
        ExperimentSpec(experiment="drift", problem="pendulum", method="hbvm",
                       s=2, step_sizes=(0.1,), horizon=10.0).validate()
    # elim offers the problem's own labels, and says when it has none
    with pytest.raises(ConfigError, match=r"^the elim method needs --invariants L1 or L1L2$"):
        replace(good, invariants="none").validate()
    with pytest.raises(ConfigError, match=r"needs --invariants \(the oscillator4 problem defines none\)$"):
        replace(good, problem="oscillator4", invariants="none").validate()
    # the plan's nu is the size of the invariant set the label builds
    for label, nu in (("none", 0), ("L1", 1), ("L1L2", 2)):
        plan = replace(good, method="elim" if nu else "hbvm", invariants=label).validate()
        assert plan.nu == nu == (0 if plan.invariants is None else plan.invariants.nu)
    # reproduce-paper is a subcommand, not an experiment a spec can name
    with pytest.raises(ConfigError, match="unknown experiment 'reproduce-paper'"):
        replace(good, experiment="reproduce-paper").validate()


def test_tableau_subcommand_writes_schema(tmp_path):
    out = tmp_path / "tab.json"
    assert main(["tableau", "-s", "2", "-k", "6", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"s", "k", "c", "b", "A"}
    tab = build_hbvm_tableau(6, 2)
    np.testing.assert_array_equal(np.array(payload["A"]), tab.A)
    np.testing.assert_array_equal(np.array(payload["c"]), tab.c)


def test_tableau_subcommand_stdout(capsys):
    assert main(["tableau", "-s", "1"]) == 0
    stdout = capsys.readouterr().out
    payload = json.loads(stdout)
    assert payload["s"] == 1 and payload["k"] == 1
    assert payload["A"] == [[0.5]]
    # python -m linteg is the same entry point
    src = str(Path(linteg.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-m", "linteg", "tableau", "-s", "1"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, stdout, "")


def test_convergence_subcommand(tmp_path):
    out = tmp_path / "conv.csv"
    code = main([
        "convergence", "--method", "hbvm", "-s", "2", "-k", "4",
        "--steps", "pi/8,pi/16", "--horizon", "2pi", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "h,n_steps,error,order,iteration_total"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[1] == "16" and first[3] == ""
    second = lines[2].split(",")
    # fourth order at these steps
    assert 3.0 < float(second[3]) < 4.6
    # an oscillator has no closed-form reference; it is integrated at order 12
    code = main([
        "convergence", "--problem", "oscillator4", "--method", "hbvm", "-s", "2", "-k", "4",
        "--steps", "0.25,0.125", "--horizon", "2", "--out", str(out),
    ])
    assert code == 0
    assert 3.5 < float(out.read_text().splitlines()[2].split(",")[3]) < 4.5


def test_drift_subcommand_and_monitoring(tmp_path, capsys):
    out = tmp_path / "drift.csv"
    code = main([
        "drift", "--method", "hbvm", "-s", "2", "-k", "6",
        "--steps", "0.1", "--horizon", "5", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    # plain run on kepler still reports both invariant errors
    assert lines[0] == "n,t,h_error,err_L1,err_L2,iterations,fallback"
    assert len(lines) == 52
    row0 = lines[1].split(",")
    assert row0[0] == "0" and row0[2] == "0"
    # an oscillator defines no invariant beyond H, so none is reported
    capsys.readouterr()
    code = main([
        "drift", "--problem", "oscillator4", "--method", "hbvm", "-s", "2", "-k", "4",
        "--steps", "0.1", "--horizon", "1", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,t,h_error,iterations,fallback"
    assert len(lines) == 12
    [summary] = capsys.readouterr().out.splitlines()
    assert summary.startswith("h=0.1  n=10  max|H err|=")


def test_alpha_norm_subcommand(tmp_path):
    out = tmp_path / "alpha.csv"
    code = main([
        "alpha-norm", "--method", "elim", "-s", "3", "-k", "6",
        "--invariants", "L1L2", "--steps", "pi/16", "--horizon", "pi",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "h,n,t,alpha_1,alpha_2,alpha_inf"
    assert len(lines) == 17
    row = lines[1].split(",")
    assert float(row[5]) == max(abs(float(row[3])), abs(float(row[4])))


def test_iterations_subcommand(tmp_path):
    out = tmp_path / "iters.csv"
    code = main([
        "iterations", "--method", "gauss", "-s", "2",
        "--steps", "pi/8,pi/16", "--horizon", "2pi", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "h,n_steps,iteration_total,fallback_steps"
    totals = [int(line.split(",")[2]) for line in lines[1:]]
    assert totals[0] > 0 and totals[1] > totals[0]


def test_determinism_byte_identical(tmp_path):
    args = [
        "drift", "--method", "elim", "-s", "3", "-k", "6", "--invariants", "L1",
        "--steps", "0.1", "--horizon", "5",
    ]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_validation_fails_before_writing(tmp_path, capsys, monkeypatch):
    out = tmp_path / "never.csv"
    code = main([
        "convergence", "--method", "elim", "-s", "3", "-k", "6",
        "--steps", "0.1", "--horizon", "10", "--out", str(out),
    ])
    assert code == 2
    assert not out.exists()
    # non-finite step sizes and horizons are configuration errors too, as are
    # a division by zero, a step that does not divide the horizon (even after
    # a valid one), a subnormal step whose step count overflows, a step count
    # too large for any state array and a non-finite tolerance
    cases = (
        ("nan", "2pi", "1e-14"), ("pi/30", "inf", "1e-14"), ("pi/30", "nan", "1e-14"),
        ("pi/0", "2pi", "1e-14"), ("pi/30", "pi/0", "1e-14"), ("pi/30,0.7", "2pi", "1e-14"),
        ("1e-320", "1", "1e-14"), ("1e-300", "1", "1e-14"), ("pi/30,pi/60", "2pi", "inf"),
    )
    for steps, horizon, tol in cases:
        code = main([
            "convergence", "--method", "hbvm", "-s", "2", "-k", "4", "--tol", tol,
            "--steps", steps, "--horizon", horizon, "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()
    # so are an unbound orbit and invariants on a problem that does not define them
    for flags in (["--eccentricity", "1"], ["--problem", "oscillator4", "--invariants", "L1"]):
        code = main([
            "convergence", "--method", "elim", "-s", "3", "-k", "6", "--invariants", "L1L2",
            "--steps", "pi/8", "--horizon", "2pi", "--out", str(out), *flags,
        ])
        assert code == 2
        assert not out.exists()
    # an unbound orbit fails the same way when no integration would follow
    assert main(["tableau", "-s", "2", "--eccentricity", "1", "--out", str(out)]) == 2
    assert not out.exists()
    # nothing was integrated, so no run was reported
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "horizon 1.0 / step size 1e-300" in captured.err
    assert captured.err.count("eccentricity must lie in [0, 1), got 1.0") == 2
    assert "invariant selections are defined for the kepler problem" in captured.err
    # a problem name that is no entry of the problems table, an oscillator
    # degree the table does not hold included
    for name in ("pendulum", "oscillator", "oscillator02", "oscillator3"):
        code = main([
            "convergence", "--problem", name, "--method", "hbvm", "-s", "2", "-k", "4",
            "--steps", "pi/8", "--horizon", "2pi", "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unknown problem {name!r}" in captured.err
    # and a CSV experiment without --out
    monkeypatch.chdir(tmp_path)
    no_out = ["iterations", "--method", "gauss", "-s", "2", "--steps", "pi/8", "--horizon", "2pi"]
    assert main(no_out) == 2
    assert list(tmp_path.iterdir()) == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "pass --out" in captured.err


def test_node_count_r_is_an_elim_setting_of_at_least_s(tmp_path, capsys):
    out = tmp_path / "never.csv"
    run = ["--steps", "0.1", "--horizon", "0.2", "--out", str(out)]
    for method, r, message in (
        ("hbvm", "-5", "-r requires --method elim"),
        ("gauss", "3", "-r requires --method elim"),
        ("elim", "-5", "need r >= s, got r=-5, s=3"),
    ):
        flags = ["--method", method, "-s", "3", "-r", r]
        if method != "gauss":
            flags += ["-k", "12"]
        if method == "elim":
            flags += ["--invariants", "L1"]
        assert main(["iterations", *flags, *run]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
    spec = ExperimentSpec("iterations", method="hbvm", k=12, r=12, step_sizes=(0.1,),
                          horizon=0.2)
    with pytest.raises(ConfigError, match="^-r requires --method elim$"):
        spec.validate()


def test_nonconvergence_exit_code(tmp_path, capsys):
    out = tmp_path / "fail.csv"
    code = main([
        "drift", "--method", "hbvm", "-s", "2", "-k", "4", "--tol", "1e-15",
        "--steps", "0.5", "--horizon", "50", "--out", str(out),
    ])
    assert code == 1
    # the runs before the failing one keep their lines, wherever each ran
    capsys.readouterr()
    code = main([
        "convergence", "--method", "hbvm", "-s", "2", "-k", "4", "--tol", "1e-15",
        "--steps", "0.1,0.5", "--horizon", "15", "--out", str(out),
    ])
    assert code == 1
    assert not out.exists()
    captured = capsys.readouterr()
    [line] = captured.out.splitlines()
    assert line.startswith("h=0.1  n=150  error=")
    assert captured.err == (
        "error: step 26 of 30: no fixed point after 200 sweeps (residual 2.842e-14, h=0.5)\n"
    )


def test_overflowing_stages_fail_the_run(tmp_path, capsys):
    # at h = 1e300 the stages overflow; no step is taken as converged
    out = tmp_path / "x.csv"
    argv = ["drift", "--method", "hbvm", "-s", "2", "-k", "4", "--steps", "1e300",
            "--horizon", "1e300", "--out", str(out)]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(argv) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: step 1 of 1: no fixed point: sweep 4 repeated the non-finite stages of sweep 3 "
        "(residual nan, h=1e+300)\n"
    )


def test_an_out_that_names_a_directory_fails_before_any_integration(
    tmp_path, monkeypatch, capsys
):
    def never(*args):
        raise AssertionError("integrated before --out was checked")

    monkeypatch.setattr(harness, "integrate", never)
    monkeypatch.chdir(tmp_path)
    run = ["drift", "--method", "hbvm", "-s", "3", "-k", "12", "--steps", "0.1",
           "--horizon", "1000"]
    for out in (str(tmp_path), ""):  # "" is the working directory
        assert main([*run, "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --out {out!r} names a directory; pass a file path\n"
    assert main(["tableau", "-s", "3", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


def _stop_at_integration(calls, directory=None):
    # a stand-in for an integration: it notes whether directory exists when
    # it is called, and fails the run there (exit 1)
    def stop(*args):
        calls.append(directory is not None and Path(directory).is_dir())
        raise NonConvergence("stopped before integrating")

    return stop


def test_out_directories_are_made_before_any_integration(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(harness, "integrate", _stop_at_integration(calls))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("a file\n")
    run = ["drift", "--method", "hbvm", "-s", "3", "-k", "12", "--steps", "0.1",
           "--horizon", "300"]
    # a parent path through a regular file fails at once, writing nothing
    for argv in ([*run, "--out", "afile/x.csv"], ["tableau", "-s", "3", "--out", "afile/t.json"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and "afile" in line
    assert calls == []
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]
    assert (tmp_path / "afile").read_text() == "a file\n"
    # a nested directory exists by the time the first run starts
    monkeypatch.setattr(harness, "integrate", _stop_at_integration(calls, "new/sub"))
    assert main([*run, "--out", "new/sub/x.csv"]) == 1
    assert calls == [True] and not Path("new/sub/x.csv").exists()
    # and reproduce-paper makes --out-dir before it integrates its reference
    monkeypatch.setattr(harness, "reference_solution", _stop_at_integration(calls, "deep/er"))
    assert main(["reproduce-paper", "--out-dir", "deep/er"]) == 1
    assert calls == [True, True]
    capsys.readouterr()


def test_spec_fields_of_the_wrong_type_are_named_before_any_integration(monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "integrate", _stop_at_integration(calls))
    good = ExperimentSpec("drift", method="hbvm", s=3, k=12, step_sizes=(0.1,), horizon=1.0,
                          out="never.csv")
    cases = (
        (dict(problem=3), "unknown problem 3"),
        (dict(step_sizes=("a",)), "step sizes must be positive and finite"),
        (dict(step_sizes=(True,)), "step sizes must be positive and finite"),
        (dict(horizon="x"), "horizon must be positive and finite, got 'x'"),
        (dict(out=3), "out must be a file path, got 3"),
        # a field of the wrong kind, and a number too large for a float
        (dict(experiment=["drift"]), "unknown experiment ['drift']"),
        (dict(problem=["kepler"]), "unknown problem ['kepler']"),
        (dict(step_sizes=0.1), "step sizes must be positive and finite"),
        (dict(step_sizes=np.array([0.1, 0.2])), "step sizes must be positive and finite"),
        (dict(step_sizes=(10**400,)), "step size is too large for a float"),
        (dict(horizon=10**400), "horizon is too large for a float"),
        # an eccentricity the oscillators ignore is checked all the same
        (dict(problem="oscillator4", eccentricity="abc"),
         "eccentricity must be a real number, got 'abc'"),
    )
    for fields_, message in cases:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            harness.run_experiment(replace(good, **fields_))
    assert calls == []
    # a path object is a file path too
    plan = replace(good, out=Path("never.csv")).validate()
    assert plan.counts == [(0.1, 10)]


def test_the_whole_multiple_rule_judges_a_step_as_the_float_it_runs():
    # float32(0.1) is 0.10000000149...: ten such steps end 1.5e-8 past t = 1,
    # beyond the rule's 1e-9, however float32 arithmetic rounds 10 x float32(0.1)
    spec = ExperimentSpec("drift", s=3, k=12, step_sizes=(np.float32(0.1),), horizon=1.0)
    with pytest.raises(ConfigError, match="^horizon 1.0 is not an integer multiple of step size "
                                          "0.10000000149011612$"):
        spec.validate()


def test_numpy_numbers_in_a_spec_run_as_their_python_values(tmp_path):
    # a spec plans with the numbers its checks return, so NumPy scalars give
    # Python floats and ints and the bytes of the spec holding those values
    numpy_fields = dict(step_sizes=(np.float32(0.25),), horizon=np.float32(2.0),
                        tol=np.float32(1e-14), s=np.int64(3), k=np.int64(12))
    python_fields = dict(step_sizes=(0.25,), horizon=2.0, tol=float(np.float32(1e-14)), s=3, k=12)
    written = []
    for name, fields_ in (("numpy", numpy_fields), ("python", python_fields)):
        spec = ExperimentSpec("drift", method="elim", invariants="L1L2",
                              out=str(tmp_path / f"{name}.csv"), **fields_)
        plan = spec.validate()
        assert plan.counts == [(0.25, 8)] and plan.horizon == 2.0
        assert [type(v) for v in (*plan.counts[0], plan.horizon)] == [float, int, float]
        config = plan.config
        assert config == MethodConfig(3, 12, None, python_fields["tol"])
        assert [type(v) for v in (config.s, config.k, config.fp_tolerance)] == [int, int, float]
        harness.run_experiment(spec)
        written.append(Path(spec.out).read_bytes())
    assert written[0] == written[1]


def _two_cpus(monkeypatch):
    # fork a worker even on a host with one usable CPU
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def test_failure_in_a_worker_keeps_its_fields(monkeypatch):
    _two_cpus(monkeypatch)
    problem = kepler_problem(0.6)
    config = MethodConfig(s=2, k=4, fp_tolerance=1e-15)
    # the larger run stays in this process; the child takes the one that fails
    tasks = [(n, partial(integrate, problem, None, config, h, n)) for h, n in ((0.1, 40), (0.5, 30))]
    results = harness._parallel(tasks)
    assert next(results).states.shape == (41, 4)
    with pytest.raises(NonConvergence) as failure:
        next(results)
    assert (failure.value.iterations, failure.value.step_index) == (200, 26)
    assert failure.value.residual == pytest.approx(2.842e-14, rel=1e-3)


def test_dead_worker_fails_and_leaves_no_child(tmp_path, monkeypatch, capsys):
    _two_cpus(monkeypatch)
    parent = os.getpid()

    def dies_in_a_child(*args):
        if os.getpid() != parent:
            os._exit(3)
        return integrate(*args)

    monkeypatch.setattr(harness, "integrate", dies_in_a_child)
    out = tmp_path / "conv.csv"
    code = main([
        "convergence", "--method", "hbvm", "-s", "2", "-k", "4",
        "--steps", "pi/8,pi/16", "--horizon", "2pi", "--out", str(out),
    ])
    assert code == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: worker process ")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_operators_too_large_to_allocate_fail_with_exit_1(tmp_path, monkeypatch, capsys):
    # a method whose operators NumPy cannot allocate (tableau -s 3 -k
    # 300000 asks for 671 GiB) exits 1 with one error line, from this
    # process and from a worker alike; the stand-in allocates nothing
    _two_cpus(monkeypatch)

    def too_large(k, s):
        raise MemoryError(f"Unable to allocate the k={k}, s={s} operators")

    monkeypatch.setattr(harness, "build_hbvm_tableau", too_large)
    monkeypatch.setattr(linteg.integrators, "build_hbvm_tableau", too_large)
    out = tmp_path / "x.csv"
    for argv in (
        ["tableau", "-s", "3", "-k", "300000"],
        ["drift", "--method", "hbvm", "-s", "3", "-k", "200000",
         "--steps", "0.1", "--horizon", "0.2", "--out", str(out)],
        ["iterations", "--method", "hbvm", "-s", "3", "-k", "200000",
         "--steps", "0.1,0.05", "--horizon", "0.2", "--out", str(out)],
    ):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: Unable to allocate the k=")
        assert not out.exists()


class _Interrupt(BaseException):
    """Stands for an interrupt: no Exception, so _outcome lets it through."""


def test_interrupted_parent_kills_its_worker(monkeypatch):
    _two_cpus(monkeypatch)

    def interrupted():
        raise _Interrupt

    # the larger task stays in this process; the child sleeps far past the bound
    tasks = [(2, interrupted), (1, partial(time.sleep, 60))]
    start = time.monotonic()
    with pytest.raises(_Interrupt):
        next(harness._parallel(tasks))
    assert time.monotonic() - start < 5
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _no_fork():
    raise AssertionError("forked without sched_getaffinity")


@pytest.mark.parametrize("cpus", ["two", "one", "no_affinity"])
def test_parallel_runs_equal_the_plain_loop(monkeypatch, cpus):
    if cpus == "two":
        _two_cpus(monkeypatch)
    elif cpus == "one":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    else:  # macOS, Windows: every task runs in this process
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "fork", _no_fork)
    kepler = kepler_problem(0.6)
    runs = [
        (kepler, None, MethodConfig(s=3, k=3), 0.1, 30),
        (kepler, None, MethodConfig(s=3, k=12), 0.1, 40),
        (kepler, kepler_invariants("angular_momentum_only"), MethodConfig(s=3, k=12), 0.1, 20),
        (kepler, kepler_invariants("angular_momentum_and_lrl"), MethodConfig(s=3, k=12, r=8),
         0.1, 25),
        (polynomial_oscillator(4), None, MethodConfig(s=2, k=4), 0.1, 30),
    ]
    results = list(harness._parallel([(run[-1], partial(integrate, *run)) for run in runs]))
    assert len(results) == len(runs)
    for run, traj in zip(runs, results):
        alone = integrate(*run)
        assert traj.h == alone.h
        for field in fields(alone)[1:]:
            a, b = getattr(traj, field.name), getattr(alone, field.name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "method": "hbvm", "s": 2, "k": 4,
        "steps": "pi/8", "horizon": "2pi",
    }))
    out = tmp_path / "from_config.csv"
    assert main(["iterations", "--config", str(cfg), "--out", str(out)]) == 0
    base_total = int(out.read_text().splitlines()[1].split(",")[2])

    out2 = tmp_path / "override.csv"
    code = main([
        "iterations", "--config", str(cfg), "--tol", "1e-6", "--out", str(out2),
    ])
    assert code == 0
    loose_total = int(out2.read_text().splitlines()[1].split(",")[2])
    assert loose_total < base_total


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"stepsize": 0.1}))
    assert main(["iterations", "--config", str(cfg), "--out", "x.csv"]) == 2
    # a value goes into the spec as given and meets the check of the field it
    # sets, and a file that is not an object is refused: each a configuration
    # error with that check's text, before any run, and nothing is written
    valid = {"method": "hbvm", "s": 2, "k": 4, "steps": "pi/8", "horizon": "2pi"}
    out = tmp_path / "never.csv"
    cases = (
        ("iterations", {**valid, "steps": 0.1}, "step sizes must be positive and finite"),
        ("iterations", {**valid, "eccentricity": None}, "eccentricity must be a real number, got None"),
        ("iterations", {**valid, "s": "abc"}, "s must be an integer, got 'abc'"),
        ("iterations", {**valid, "s": 3.7}, "s must be an integer, got 3.7"),
        ("iterations", [1, 2], f"config file {cfg} must hold a JSON object"),
        ("iterations", {**valid, "steps": None}, "step sizes must be positive and finite"),
        ("iterations", {**valid, "steps": {"a": 1}}, "step sizes must be positive and finite"),
        ("iterations", {**valid, "horizon": [1]}, "horizon must be positive and finite, got [1]"),
        ("iterations", {**valid, "tol": "1e-12"}, "fp_tolerance must be a real number, got '1e-12'"),
        ("iterations", {**valid, "k": True}, "k must be an integer, got True"),
        # values the flags' choices would refuse are refused from a file too
        ("iterations", {**valid, "method": "rk4"}, "unknown method 'rk4'"),
        ("iterations", {**valid, "method": "elim", "invariants": "L3"},
         "unknown invariant selection 'L3'"),
        ("iterations", {**valid, "problem": "pendulum"}, "unknown problem 'pendulum'"),
        ("iterations", {**valid, "steps": []}, "need at least one step size (--steps)"),
        # JSON integers too large for a float
        ("iterations", {**valid, "tol": 10**400}, "fp_tolerance is too large for a float"),
        ("iterations", {**valid, "eccentricity": 10**400}, "eccentricity is too large for a float"),
        ("iterations", {**valid, "horizon": 10**400}, "horizon is too large for a float"),
        ("iterations", {**valid, "steps": [0.1, 10**400]}, "step size is too large for a float"),
        # a file takes exactly the keys of the subcommand's flags: tableau has no --steps
        ("tableau", {"horizon": 5}, "unknown config keys: ['horizon']"),
        ("tableau", {"steps": "pi/8"}, "unknown config keys: ['steps']"),
    )
    capsys.readouterr()
    for experiment, payload, message in cases:
        cfg.write_text(json.dumps(payload))
        assert main([experiment, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr() == ("", f"error: {message}\n")
    # a file that is not JSON at all is one too, naming the file and where it breaks
    cfg.write_text('{"s": 2,')
    assert main(["iterations", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(cfg) in captured.err and "line 1 column 9 (char 8)" in captured.err
    cfg.write_bytes(b'{"s": "\xff"}')
    assert main(["iterations", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert str(cfg) in capsys.readouterr().err
    # so is a file that cannot be read: missing, or a directory
    for path, reason in ((tmp_path / "missing.json", "No such file"), (tmp_path, "Is a directory")):
        assert main(["iterations", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"cannot read config file {path}: {reason}" in captured.err


def test_config_file_and_flags_give_the_same_run(tmp_path, monkeypatch):
    settings = {
        "problem": "kepler", "eccentricity": 0.5, "method": "elim", "s": 2, "k": 6, "r": 4,
        "invariants": "L1", "tol": 1e-12, "out": str(tmp_path / "from_config.csv"),
        "steps": [0.1], "horizon": 2,
    }
    # every setting a flag takes can come from the file
    assert set(settings) == set(harness._SETTINGS)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(settings))
    flags = [
        "drift", "--problem", "kepler", "--eccentricity", "0.5", "--method", "elim",
        "-s", "2", "-k", "6", "-r", "4", "--invariants", "L1", "--steps", "0.1", "--horizon", "2",
    ]

    def run(args, name):
        out = tmp_path / name
        assert main(args + ["--out", str(out)]) == 0
        return out.read_bytes()

    assert main(["drift", "--config", str(cfg)]) == 0
    from_config = (tmp_path / "from_config.csv").read_bytes()
    assert run(flags + ["--tol", "1e-12"], "tight.csv") == from_config
    loose = run(flags + ["--tol", "1e-6"], "loose.csv")
    assert loose != from_config
    # a flag overrides the file, and ELIM_FP_TOL loses to both
    assert run(["drift", "--config", str(cfg), "--tol", "1e-6"], "override.csv") == loose
    monkeypatch.setenv("ELIM_FP_TOL", "1e-6")
    assert run(["drift", "--config", str(cfg)], "env_and_config.csv") == from_config
    assert run(flags + ["--tol", "1e-12"], "env_and_flag.csv") == from_config
    assert run(flags, "env_only.csv") == loose


def test_undefined_orders_are_blank_cells(tmp_path, capsys):
    # at tolerance 1 every step stops after its first sweep with alpha still 0,
    # so the alpha order between the two step sizes is undefined
    out = tmp_path / "alpha.csv"
    code = main([
        "alpha-norm", "--method", "elim", "-s", "3", "-k", "12", "--invariants", "L1",
        "--steps", "pi/8,pi/16", "--horizon", "2pi", "--tol", "1", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "h,n,t,alpha_1,alpha_inf"
    assert len(lines) == 1 + 16 + 32
    assert all(line.split(",")[3:] == ["0", "0"] for line in lines[1:])
    assert capsys.readouterr().out.splitlines()[-1] == "alpha orders: "
    # the reproduce-paper tables leave a zero value's order blank too
    table = tmp_path / "orders.csv"
    values = {("a", 0.5): 1e-3, ("a", 0.25): 0.0, ("a", 0.125): 1e-4,
              ("b", 0.5): 4e-3, ("b", 0.25): 1e-3, ("b", 0.125): 2.5e-4}
    harness._write_order_table(table, (0.5, 0.25, 0.125), ("a", "b"), values, "v", "order")
    assert table.read_text().splitlines() == [
        "h,v_a,order_a,v_b,order_b",
        "0.5,0.001,,0.004,",
        "0.25,0,,0.001,2",
        "0.125,0.0001,,0.00025,2",
    ]


def test_orders_divide_by_the_step_ratio(tmp_path, capsys):
    # an order is log2(prev / cur) / log2(h_prev / h): the order-6 HBVM(12,3)
    # from pi/30 to pi/90 reads 6, not the 9.46 of log2(prev / cur) alone,
    # and a halving pair keeps the bits that rule gave
    out = tmp_path / "conv.csv"
    assert main([
        "convergence", "--method", "hbvm", "-s", "3", "-k", "12",
        "--steps", "pi/30,pi/90,pi/180", "--horizon", "2pi", "--out", str(out),
    ]) == 0
    orders = [row["order"] for row in _read_csv(out)]
    assert orders[0] == "" and 5.5 <= float(orders[1]) <= 6.5
    assert orders[2] == "5.998763986556885"
    # the alpha of a nu = 1 run is O(h^2), from 0.3 to 0.1 too
    assert main([
        "alpha-norm", "--method", "elim", "--invariants", "L1", "-s", "3", "-k", "12",
        "--steps", "0.3,0.1", "--horizon", "0.6", "--out", str(tmp_path / "alpha.csv"),
    ]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert line.startswith("alpha orders: ") and 1.5 <= float(line.split()[-1]) <= 2.5
    # equal steps give no order
    assert main([
        "convergence", "--method", "hbvm", "-s", "3", "-k", "12",
        "--steps", "0.1,0.1", "--horizon", "0.2", "--out", str(out),
    ]) == 0
    assert [row["order"] for row in _read_csv(out)] == ["", ""]


def test_order_cells_are_estimate_orders_bit_for_bit(tmp_path, monkeypatch):
    # one order rule: each cell of an order table, written here at full
    # precision, is the estimate_orders value of its pair of values
    monkeypatch.setattr(harness, "_fmt", lambda v: "" if v is None else repr(float(v)))
    values = np.random.default_rng(7).uniform(1e-12, 1.0, 10_001)
    table = tmp_path / "orders.csv"

    def order_cells():
        # halving steps, so each step ratio is 2.0; 1,000 rows a table, as
        # 0.5**j underflows past j = 1,074, each table starting on the last
        # value of the one before
        cells = [""]
        for start in range(0, values.size - 1, 999):
            chunk = values[start:start + 1000].tolist()
            steps = [0.5**j for j in range(len(chunk))]
            by_step = {("e", h): v for h, v in zip(steps, chunk)}
            harness._write_order_table(table, steps, ("e",), by_step, "v", "order")
            cells += [row["order_e"] for row in _read_csv(table)][1:]
        return cells

    assert order_cells() == [""] + [repr(o) for o in estimate_orders(values).tolist()]
    # a value that is not > 0 blanks the orders on both sides of it, and a
    # ratio that underflows to 0 its own
    values[[10, 20, 21, 30, 31]] = (0.0, -1e-3, 0.0, 1e-320, 1e10)
    blank = [i for i, cell in enumerate(order_cells()) if cell == ""]
    assert blank == [0, 10, 11, 20, 21, 22, 31]


def test_a_horizon_far_below_one_period_has_an_integrated_reference(tmp_path):
    # 1e-10 is no whole number of Kepler periods, zero periods included: an
    # initial-state reference would put the 6.25e-10 the orbit moves in that
    # time into every error
    out = tmp_path / "tiny.csv"
    assert main([
        "convergence", "--method", "hbvm", "-s", "3", "-k", "12", "--steps", "1e-11,5e-12",
        "--horizon", "1e-10", "--out", str(out),
    ]) == 0
    errors = [float(row["error"]) for row in _read_csv(out)]
    assert len(errors) == 2 and max(errors) <= 1e-12


def test_env_tolerance_default(tmp_path, monkeypatch, capsys):
    args = [
        "iterations", "--method", "hbvm", "-s", "2", "-k", "4",
        "--steps", "pi/8", "--horizon", "2pi",
    ]
    tight = tmp_path / "tight.csv"
    assert main(args + ["--out", str(tight)]) == 0
    monkeypatch.setenv("ELIM_FP_TOL", "1e-6")
    loose = tmp_path / "loose.csv"
    assert main(args + ["--out", str(loose)]) == 0
    flag = tmp_path / "flag.csv"
    assert main(args + ["--tol", "1e-14", "--out", str(flag)]) == 0

    count = lambda p: int(p.read_text().splitlines()[1].split(",")[2])
    assert count(loose) < count(tight)
    assert count(flag) == count(tight)

    # an unparsable value is a configuration error that names the variable
    monkeypatch.setenv("ELIM_FP_TOL", "abc")
    assert main(args + ["--out", str(tmp_path / "bad.csv")]) == 2
    assert "ELIM_FP_TOL must be a number, got 'abc'" in capsys.readouterr().err


def test_csv_floats_carry_16_significant_digits(tmp_path):
    out = tmp_path / "conv.csv"
    main([
        "convergence", "--method", "gauss", "-s", "2",
        "--steps", "pi/8", "--horizon", "2pi", "--out", str(out),
    ])
    h_text = out.read_text().splitlines()[1].split(",")[0]
    # 16 significant digits: within one last-place unit of the exact value
    assert float(h_text) == pytest.approx(math.pi / 8, rel=1e-15, abs=0)
    assert len(h_text.replace(".", "").lstrip("0")) == 16


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _small_paper(monkeypatch):
    # the published set on a small run: two steps over one period, drift to t = 1
    monkeypatch.setitem(harness._PAPER, "step_sizes", (math.pi / 8, math.pi / 16))
    monkeypatch.setitem(harness._PAPER, "horizon", 2 * math.pi)
    monkeypatch.setitem(harness._PAPER, "drift_horizon", 1.0)


# sha256 of each file of the small run, so a change that moves one bit of
# any output shows here; a change meant to move bits refreshes these.  Per
# arithmetic (see conftest): the Haswell kernel moves the files ELIM runs write into
_SMALL_PAPER_SKYLAKEX = {
    "alpha_components.csv": "7c059dba54f026f8fc2823b0642742f854f9b6efc0d8850b3d552554926cbff4",
    "alpha_norms.csv": "5322781fd78159baeb98b0be96daed30f63d7bde9185b649bd0da974727796c5",
    "convergence.csv": "721c6bf1dec94081c8b19d431e0d083c167086d8ffc32b722114a3a5022db8d1",
    "drift_ehbvm_12_3_L1.csv": "e20febc1858c2c36747c41b8bebfc403f81209ce378198f48425e6721b9cbd7d",
    "drift_ehbvm_12_3_L1L2.csv": "f144ae4fe9975c18f7cbcffff9deb7b1b0c4792753c4c2a88941e3cd3715c321",
    "drift_gauss3.csv": "9976c7597a62452e89998df037b60b304686c59125f677d0de97e96357ee0ebf",
    "drift_hbvm_12_3.csv": "10c14c70c32e3e16379b5f464fea36b0611e3527d8ce0be26dcc0a6692c02d33",
    "iterations.csv": "e7861597d6c377702ffcda90d605628477c56e553b8e2e98756291183ac3618d",
    "parameters.json": "3f82533b88fcb5dec2201a70ae7fda18cb4c10b06472ace80ac1a588e3e49373",
}
SMALL_PAPER_SHA256 = {
    ("SkylakeX", True): _SMALL_PAPER_SKYLAKEX,
    ("Haswell", True): {
        **_SMALL_PAPER_SKYLAKEX,
        "alpha_components.csv": "8c351ebc419896a3e4f00eb6ffab25a22b3a34fe7d4fac64457563a1868164fd",
        "alpha_norms.csv": "06d291b40bbcfd61dcaaafdf84fac8b88c194739dddae81c4e53a45b48275eea",
        "convergence.csv": "37570782cd34049bd0d38eb4a2d4afdcb2e57939e3ceacb88663e31ca5eace5d",
        "drift_ehbvm_12_3_L1.csv": "c92f1646dee817b40314c230972f9de38543fde2343d9ae16e15078bd2a491da",
        "drift_ehbvm_12_3_L1L2.csv": "e7bc8684ebfa5a042d43c6c4476d4d071d2b5ac1e95df79207efb2a7be7c2a6e",
    },
}


def test_reproduce_paper_tables_match_the_subcommands(tmp_path, monkeypatch, capsys):
    _small_paper(monkeypatch)
    out = tmp_path / "paper"
    assert main(["reproduce-paper", "--out-dir", str(out)]) == 0
    methods = harness._PAPER["methods"]
    assert sorted(path.name for path in out.iterdir()) == sorted(
        ["alpha_components.csv", "alpha_norms.csv", "convergence.csv", "iterations.csv",
         "parameters.json"] + [f"drift_{label}.csv" for label in methods]
    )
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    assert digests == _recorded(SMALL_PAPER_SHA256)
    params = json.loads((out / "parameters.json").read_text())
    assert params["step_sizes"] == [math.pi / 8, math.pi / 16]
    assert params["fp_tolerance"] == 1e-14 and params["fp_tolerance_convergence"] == 1e-15
    convergence = _read_csv(out / "convergence.csv")
    iterations = _read_csv(out / "iterations.csv")
    alpha_norms = _read_csv(out / "alpha_norms.csv")
    components = _read_csv(out / "alpha_components.csv")
    tables = (convergence, iterations, alpha_norms, components)
    assert [len(table) for table in tables] == [2, 2, 2, 16]
    capsys.readouterr()

    # each cell is the one the experiment subcommand writes for the same method
    run = ["--steps", "pi/8,pi/16", "--horizon", "2pi"]
    for label, fields in methods.items():
        flags = ["--method", fields["method"], "-s", str(fields["s"]),
                 "--invariants", fields["invariants"]]
        for key in ("k", "r"):
            if fields[key] is not None:
                flags += [f"-{key}", str(fields[key])]
        single = tmp_path / f"{label}.csv"
        assert main(["convergence", *flags, *run, "--tol", "1e-15", "--out", str(single)]) == 0
        for wide, row in zip(convergence, _read_csv(single)):
            assert (wide[f"error_{label}"], wide[f"order_{label}"]) == (row["error"], row["order"])
        assert main(["iterations", *flags, *run, "--out", str(single)]) == 0
        for wide, row in zip(iterations, _read_csv(single)):
            assert wide[label] == row["iteration_total"]
        drift = ["drift", *flags, "--steps", "0.1", "--horizon", "1", "--out", str(single)]
        assert main(drift) == 0
        assert (out / f"drift_{label}.csv").read_bytes() == single.read_bytes()
        if fields["invariants"] == "none":
            continue
        capsys.readouterr()
        assert main(["alpha-norm", *flags, *run, "--out", str(single)]) == 0
        lines = capsys.readouterr().out.splitlines()
        maxima = [line.split("max|alpha|=")[1] for line in lines[:2]]
        assert [row[f"alpha_max_{label}"] for row in alpha_norms] == maxima
        assert [row[f"alpha_order_{label}"] for row in alpha_norms] == ["", lines[2].split(": ")[1]]
        if label == list(methods)[-1]:
            first = [row for row in _read_csv(single) if row["h"] == iterations[0]["h"]]
            assert components == [{key: row[key] for key in components[0]} for row in first]


def _log_integrations(monkeypatch, log):
    """Count harness.integrate's calls by (config, nu, h); returns a reader
    of the counts.  Runs may go to forked workers, so each call appends a
    line to a file that every process writes to."""
    integrate = harness.integrate

    def counted(problem, invariants, config, h, n_steps):
        with open(log, "a") as fh:
            fh.write(json.dumps([asdict(config), 0 if invariants is None else invariants.nu, h]))
            fh.write("\n")
        return integrate(problem, invariants, config, h, n_steps)

    def logged_calls():
        with open(log) as fh:
            entries = map(json.loads, fh)
            return collections.Counter((MethodConfig(**c), nu, h) for c, nu, h in entries)

    monkeypatch.setattr(harness, "integrate", counted)
    return logged_calls


def test_reproduce_paper_integrates_each_run_once(tmp_path, monkeypatch):
    _small_paper(monkeypatch)
    log = tmp_path / "calls.jsonl"
    logged_calls = _log_integrations(monkeypatch, log)
    # two tolerances: each method runs each step twice, then drifts once
    assert main(["reproduce-paper", "--out-dir", str(tmp_path / "a")]) == 0
    calls = logged_calls()
    assert len(calls) == 4 * 2 * 2 + 4 and set(calls.values()) == {1}
    # one tolerance: the convergence and iteration tables share each run
    log.unlink()
    assert main(["reproduce-paper", "--out-dir", str(tmp_path / "b"), "--tol", "1e-13"]) == 0
    calls = logged_calls()
    assert len(calls) == 4 * 2 + 4 and set(calls.values()) == {1}
    assert {config.fp_tolerance for config, _, _ in calls} == {1e-13}


def test_env_tolerance_replaces_both_paper_tolerances(tmp_path, monkeypatch):
    # ELIM_FP_TOL stands in for the published 1e-15 and 1e-14 alike, and
    # --tol overrides it; parameters.json records the tolerances used
    _small_paper(monkeypatch)
    monkeypatch.setenv("ELIM_FP_TOL", "1e-13")
    log = tmp_path / "calls.jsonl"
    logged_calls = _log_integrations(monkeypatch, log)
    for flags, tol in (([], 1e-13), (["--tol", "1e-12"], 1e-12)):
        out = tmp_path / str(tol)
        assert main(["reproduce-paper", "--out-dir", str(out), *flags]) == 0
        calls = logged_calls()
        assert len(calls) == 4 * 2 + 4 and set(calls.values()) == {1}
        assert {config.fp_tolerance for config, _, _ in calls} == {tol}
        params = json.loads((out / "parameters.json").read_text())
        assert params["fp_tolerance"] == params["fp_tolerance_convergence"] == tol
        log.unlink()


def test_each_invocation_builds_its_problem_once(tmp_path, monkeypatch):
    # validate builds the problem record, and the runners read it from the plan
    built = []
    named = harness._named_problem

    def counted(name, eccentricity):
        built.append(name)
        return named(name, eccentricity)

    monkeypatch.setattr(harness, "_named_problem", counted)
    elim = ["--method", "elim", "-s", "3", "-k", "6", "--invariants", "L1"]
    two = ["--steps", "0.2,0.1", "--horizon", "0.4"]
    for argv in (["convergence", *elim, *two], ["alpha-norm", *elim, *two],
                 ["iterations", *elim, *two], ["drift", *elim, "--steps", "0.1", "--horizon", "1"],
                 ["tableau", "-s", "2"]):
        built.clear()
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        assert built == ["kepler"], argv[0]
    # reproduce-paper validates each of its eight specs once
    _small_paper(monkeypatch)
    built.clear()
    assert main(["reproduce-paper", "--out-dir", str(tmp_path / "paper")]) == 0
    assert built == ["kepler"] * 8


def _isotropic_oscillator(eccentricity):
    """H = (|q|^2 + |p|^2) / 2 in the plane: every orbit is an ellipse of period 2 pi."""
    y0 = np.array([1.0, 0.0, 0.0, 0.5])
    y0.flags.writeable = False
    return HamiltonianProblem(
        name="isotropic", m=2, hamiltonian=lambda y: 0.5 * np.sum(np.square(y), axis=-1),
        grad_h=lambda y: np.array(y, dtype=float, order="C"), initial_state=y0,
    )


_ANGULAR_MOMENTUM = InvariantSet(
    nu=1,
    values=lambda y: (y[..., 0] * y[..., 3] - y[..., 1] * y[..., 2])[..., None],
    gradients=lambda y: np.stack([y[..., 3], -y[..., 2], -y[..., 1], y[..., 0]], axis=-1)[..., None],
)


def test_a_problem_added_to_the_problems_table_runs_every_subcommand(tmp_path, monkeypatch, capsys):
    # only linteg.problems learns of the problem: the harness reads its
    # record, invariant labels, drift monitors and period from there
    facts = problems._Facts(
        build=_isotropic_oscillator, invariants={"Lz": _ANGULAR_MOMENTUM}, monitored="Lz",
        monitors=("Lz",), period=2.0 * math.pi,
    )
    monkeypatch.setitem(problems._PROBLEMS, "isotropic", facts)
    problem = _isotropic_oscillator(0.6)
    y0 = problem.initial_state
    toy = ["--problem", "isotropic", "-s", "3", "-k", "6"]
    elim = ["--method", "elim", "--invariants", "Lz"]

    # two periods: the reference is the initial state, exactly
    np.testing.assert_array_equal(reference_solution(problem, 0.1, 4 * math.pi), y0)
    conv = tmp_path / "conv.csv"
    run = ["--steps", "pi/8,pi/16", "--horizon", "4pi", "--out", str(conv)]
    assert main(["convergence", *toy, *run]) == 0
    for row, n in zip(_read_csv(conv), (32, 64)):
        traj = integrate(problem, None, MethodConfig(s=3, k=6), 4 * math.pi / n, n)
        assert row["error"] == f"{max_norm_error(traj.states[-1], y0):.16g}"
        assert 0.0 < float(row["error"]) < 1e-6

    alpha = tmp_path / "alpha.csv"
    run = ["--steps", "0.2,0.1", "--horizon", "0.4"]
    assert main(["alpha-norm", *toy, *elim, *run, "--out", str(alpha)]) == 0
    assert list(_read_csv(alpha)[0]) == ["h", "n", "t", "alpha_1", "alpha_inf"]
    assert main(["iterations", *toy, *elim, *run, "--out", str(tmp_path / "it.csv")]) == 0
    drift = tmp_path / "drift.csv"
    run = ["--steps", "0.1", "--horizon", "2", "--out", str(drift)]
    assert main(["drift", *toy, *elim, *run]) == 0
    rows = _read_csv(drift)
    assert list(rows[0]) == ["n", "t", "h_error", "err_Lz", "alpha_1", "iterations", "fallback"]
    assert len(rows) == 21 and max(abs(float(row["err_Lz"])) for row in rows) < 1e-13
    assert "max|Lz err|=" in capsys.readouterr().out
    assert main(["tableau", *toy]) == 0

    # the new problem and label are choices, the label only for the problem
    # that defines it, and the help and error texts name them from the table
    with pytest.raises(SystemExit):
        main(["drift", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "{none,L1,L1L2,Lz}" in help_text
    assert ("--problem PROBLEM kepler or oscillator2 or oscillator4 or oscillator6 or oscillator8 "
            "or isotropic") in help_text
    assert main(["drift", *elim, *run]) == 2
    assert capsys.readouterr().err == (
        "error: invariant selections are defined for the isotropic problem\n"
    )
    assert main(["drift", *toy, "--method", "elim", "--invariants", "L1", *run]) == 2
    assert capsys.readouterr().err == "error: invariant selections are defined for the kepler problem\n"
    assert main(["drift", *toy, "--method", "elim", *run]) == 2
    assert capsys.readouterr().err == "error: the elim method needs --invariants Lz\n"
    # a label two problems define names both
    monkeypatch.setitem(problems._PROBLEMS, "planar", facts)
    assert main(["drift", *elim, *run]) == 2
    assert capsys.readouterr().err == (
        "error: invariant selections are defined for the isotropic or planar problem\n"
    )


_RUN = "--steps 0.1 --horizon 1 --out out.csv"
# (argv, exit code, then the first 16 hex digits of the sha256 of stdout, of
# stderr and of out.csv, None where no file is written), recorded in CPython
# 3.11, whose argparse lays out the help, at an 80-column width; a digest the
# arithmetic moves is a dict keyed by arithmetic (see conftest)
_CLI_BATTERY = [
    ("--help", 0, "2a78fd1bb6d4a6c3", "e3b0c44298fc1c14", None),
    ("convergence --help", 0, "fd453aea87ef0ac6", "e3b0c44298fc1c14", None),
    ("alpha-norm --help", 0, "abafb4876cd64ebb", "e3b0c44298fc1c14", None),
    ("iterations --help", 0, "1a81cb548f710fa6", "e3b0c44298fc1c14", None),
    ("drift --help", 0, "09991774a75981f8", "e3b0c44298fc1c14", None),
    ("tableau --help", 0, "98d707273a4f9888", "e3b0c44298fc1c14", None),
    ("reproduce-paper --help", 0, "fad3999ac920a864", "e3b0c44298fc1c14", None),
    ("convergence --method hbvm -s 2 -k 4 --steps pi/8,pi/16 --horizon 2pi --out out.csv",
     0, "bc5e3aa1f4a40356", "e3b0c44298fc1c14", "167a8478562d1d28"),
    ("convergence --method elim --invariants L1L2 -s 3 -k 6 --steps 0.25,0.125 --horizon 1 "
     "--out out.csv", 0, "6c07693ab8215583", "e3b0c44298fc1c14", "8d67547f46f39d73"),
    ("convergence --problem oscillator4 --method gauss -s 2 --steps 0.25,0.125 --horizon 1 "
     "--out out.csv", 0, "653e4d41900ac312", "e3b0c44298fc1c14", "e2a24a8fa5ebf082"),
    ("alpha-norm --method elim --invariants L1 -s 3 -k 6 --eccentricity 0.3 --steps 0.2,0.1 "
     "--horizon 0.4 --out out.csv", 0, "db18543adb2b9c38", "e3b0c44298fc1c14", "fc5434d15ee6b60a"),
    ("iterations --method hbvm -s 3 -k 12 --steps 0.2,0.1 --horizon 0.4 --out out.csv",
     0, "5d539531c4c2ca97", "e3b0c44298fc1c14", "0d81fa121747c1dc"),
    ("drift --method elim --invariants L1L2 -s 3 -k 12 " + _RUN, 0,
     {("SkylakeX", True): "10d741d469fb03e6", ("Haswell", True): "bb841788fd656871"},
     "e3b0c44298fc1c14",
     {("SkylakeX", True): "f144ae4fe9975c18", ("Haswell", True): "e7bc8684ebfa5a04"}),
    ("drift --problem oscillator2 --method hbvm -s 2 -k 4 " + _RUN,
     0, "8dd54317095c684f", "e3b0c44298fc1c14", "2d395843080e1c5c"),
    ("tableau -s 2 -k 3", 0, "ec84e72f127da3a9", "e3b0c44298fc1c14", None),
    ("tableau -s 2 --out out.csv", 0, "7bf52be270ebc146", "e3b0c44298fc1c14", "5dcda1732c7a6c3c"),
    ("convergence --problem oscillator3 " + _RUN, 2, "e3b0c44298fc1c14", "104838e9e05e7bb7", None),
    ("convergence --problem oscillator03 " + _RUN, 2, "e3b0c44298fc1c14", "4e1d6f3172bd1023", None),
    ("convergence --problem pendulum " + _RUN, 2, "e3b0c44298fc1c14", "a349b307420b9726", None),
    ("drift --problem oscillator4 --method elim --invariants L1 " + _RUN,
     2, "e3b0c44298fc1c14", "ed95643b77c7d0db", None),
    ("drift --method elim " + _RUN, 2, "e3b0c44298fc1c14", "64602cc3cc0b52a1", None),
    ("drift --invariants L1 " + _RUN, 2, "e3b0c44298fc1c14", "33d383ada7e7bc62", None),
    ("drift --method elim --invariants L3 " + _RUN, 2, "e3b0c44298fc1c14", "1383573ad9b5fa0d", None),
    # cfg.json holds {"invariants": "L3"}
    ("drift --method elim --config cfg.json " + _RUN, 2, "e3b0c44298fc1c14", "5582218439a660f9", None),
    ("drift --eccentricity 1 " + _RUN, 2, "e3b0c44298fc1c14", "afb01d7bfa43eb16", None),
    ("convergence --steps 0.1 --horizon 1", 2, "e3b0c44298fc1c14", "7676fa35bbf06f89", None),
]


@pytest.mark.parametrize("argv, code, stdout, stderr, written", _CLI_BATTERY)
def test_cli_bytes_are_pinned(argv, code, stdout, stderr, written, tmp_path, monkeypatch, capsys):
    # every subcommand, each --help and each validation error, byte for byte
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("ELIM_FP_TOL", raising=False)
    (tmp_path / "cfg.json").write_text('{"invariants": "L3"}')
    try:
        got = main(argv.split())
    except SystemExit as exc:
        got = exc.code
    out, err = capsys.readouterr()
    out_csv = tmp_path / "out.csv"

    def digest(data):
        return None if data is None else hashlib.sha256(data).hexdigest()[:16]

    found = (got, digest(out.encode()), digest(err.encode()),
             digest(out_csv.read_bytes() if out_csv.exists() else None))
    assert found == (code, _recorded(stdout), stderr, _recorded(written)), (out, err)
