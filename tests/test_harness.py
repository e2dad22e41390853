"""Command-line interface: parsing, validation, output files."""

import collections
import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import linteg
from linteg import harness
from linteg.harness import ExperimentSpec, main, parse_step_size
from linteg.integrators import ConfigError, MethodConfig, NonConvergence, integrate
from linteg.problems import kepler_invariants, kepler_problem, polynomial_oscillator
from linteg.tableau import build_hbvm_tableau


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
    # nu is the size of the invariant set the label builds
    for label, nu in (("none", 0), ("L1", 1), ("L1L2", 2)):
        spec = replace(good, invariants=label)
        built = spec.build_invariants()
        assert spec.nu() == nu == (0 if built is None else built.nu)
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
    # and a CSV experiment without --out
    monkeypatch.chdir(tmp_path)
    no_out = ["iterations", "--method", "gauss", "-s", "2", "--steps", "pi/8", "--horizon", "2pi"]
    assert main(no_out) == 2
    assert list(tmp_path.iterdir()) == []
    # nothing was integrated, so no run was reported
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "horizon 1.0 / step size 1e-300" in captured.err
    for message in ("eccentricity must lie in [0, 1), got 1.0",
                    "invariant selections are defined for the kepler problem", "pass --out"):
        assert message in captured.err


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


@pytest.mark.parametrize("cpus", ["two", "one"])
def test_parallel_runs_equal_the_plain_loop(monkeypatch, cpus):
    if cpus == "two":
        _two_cpus(monkeypatch)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
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
    # values of the wrong JSON type and files that are not an object are
    # configuration errors that name the key, and nothing is written
    valid = {"method": "hbvm", "s": 2, "k": 4, "steps": "pi/8", "horizon": "2pi"}
    out = tmp_path / "never.csv"
    cases = (
        ({**valid, "steps": 0.1}, "'steps'"),
        ({**valid, "eccentricity": None}, "'eccentricity'"),
        ({**valid, "s": "abc"}, "'s'"),
        ({**valid, "s": 3.7}, "'s'"),
        ([1, 2], "JSON object"),
        # values the flags' choices would refuse are refused from a file too
        ({**valid, "method": "rk4"}, "unknown method 'rk4'"),
        ({**valid, "method": "elim", "invariants": "L3"}, "unknown invariant selection 'L3'"),
        ({**valid, "problem": "pendulum"}, "unknown problem 'pendulum'"),
        ({**valid, "steps": []}, "need at least one step size"),
    )
    capsys.readouterr()
    for payload, message in cases:
        cfg.write_text(json.dumps(payload))
        assert main(["iterations", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert message in capsys.readouterr().err
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


def test_reproduce_paper_tables_match_the_subcommands(tmp_path, monkeypatch, capsys):
    _small_paper(monkeypatch)
    out = tmp_path / "paper"
    assert main(["reproduce-paper", "--out-dir", str(out)]) == 0
    methods = harness._PAPER["methods"]
    assert sorted(path.name for path in out.iterdir()) == sorted(
        ["alpha_components.csv", "alpha_norms.csv", "convergence.csv", "iterations.csv",
         "parameters.json"] + [f"drift_{label}.csv" for label in methods]
    )
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


def test_reproduce_paper_integrates_each_run_once(tmp_path, monkeypatch):
    _small_paper(monkeypatch)
    # runs may go to forked workers, so each call appends a line to a file
    # that every process writes to
    log = tmp_path / "calls.jsonl"
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
