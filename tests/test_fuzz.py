"""Seeded fuzz of the public entry points' scalar and array arguments, of
every ExperimentSpec field and of every --config key.

Each call returns or raises ConfigError; a valid input that does not converge
may raise NonConvergence instead.  NumPy's floating-point warnings are
silenced, as a step size of 1e308 overflows by design.
"""

import json
import math
import random
import shutil
from dataclasses import fields, replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from linteg import (
    ConfigError,
    MethodConfig,
    NonConvergence,
    apply_structure,
    build_hbvm_tableau,
    cost_ratio,
    elim_step,
    estimate_orders,
    gauss_rule,
    hbvm_step,
    integral_table,
    integrate,
    kepler_invariants,
    kepler_problem,
    legendre_table,
    max_norm_error,
    polynomial_oscillator,
    reference_solution,
    xhat_matrix,
    xi_coefficient,
)
from linteg.analysis import drift_slope
from linteg.harness import _SETTINGS, ExperimentSpec, main, parse_step_size, run_experiment

# ints, bools, non-finite and extreme floats, integers past any float or
# array dimension, NumPy scalars from int8 and float16 to longdouble, 0-d and
# 1-element arrays, strings (some of them valid names), None, lists, tuples,
# complex numbers, Fraction, Decimal and an arbitrary object
VALUES = [
    0, 1, 2, 3, 4, 6, 12, -1, 2**63, True, False,
    0.0, -0.0, 0.1, 0.2, 0.5, 0.6, -0.5, 1.0, 2.0, math.nan, math.inf, -math.inf, 1e308, 5e-324,
    10**400, -10**400,
    np.int8(2), np.int64(4), np.uint8(3), np.bool_(True), np.float16(0.5), np.float32(0.1),
    np.float64(0.3), np.longdouble(0.2), np.longdouble("1e400"),
    np.array(3), np.array(0.5), np.array([0.5]),
    "a", "0.1", "pi/8", "", "kepler", "oscillator4", "drift", "hbvm", "elim", "L1", "none",
    "angular_momentum_only", None, [1], [0.1], (2,), (0.1,), 1 + 0j, 0.5j, Fraction(1, 2),
    Decimal("0.5"), object(),
]

KEPLER = kepler_problem(0.6)
L1 = kepler_invariants("angular_momentum_only")
Y0 = KEPLER.initial_state


def _cost_ratio_slot(i):
    def call(v):
        args = [12, 12, 12, 12, 1]
        args[i] = v
        return cost_ratio(*args)

    return call


# each public entry point's scalar arguments, one at a time, the others valid
SLOTS = {
    "gauss_rule.n": gauss_rule,
    "legendre_table.n_max": lambda v: legendre_table(v, [0.5]),
    "integral_table.n_max": lambda v: integral_table(v, [0.5]),
    "xi_coefficient.i": xi_coefficient,
    "build_hbvm_tableau.k": lambda v: build_hbvm_tableau(v, 2),
    "build_hbvm_tableau.s": lambda v: build_hbvm_tableau(4, v),
    "xhat_matrix.s": xhat_matrix,
    "kepler_problem.eccentricity": kepler_problem,
    "kepler_invariants.which": kepler_invariants,
    "polynomial_oscillator.degree": polynomial_oscillator,
    "apply_structure.m": lambda v: apply_structure(np.zeros(4), v),
    "HamiltonianProblem.m": lambda v: hbvm_step(replace(KEPLER, m=v), MethodConfig(2, 4), Y0, 0.1),
    "InvariantSet.nu": lambda v: elim_step(KEPLER, replace(L1, nu=v), MethodConfig(2, 4), Y0, 0.1),
    "MethodConfig.s": lambda v: hbvm_step(KEPLER, MethodConfig(v, 4), Y0, 0.1),
    "MethodConfig.k": lambda v: hbvm_step(KEPLER, MethodConfig(2, v), Y0, 0.1),
    "MethodConfig.r": lambda v: elim_step(KEPLER, L1, MethodConfig(2, 4, v), Y0, 0.1),
    "MethodConfig.fp_tolerance": lambda v: hbvm_step(KEPLER, MethodConfig(2, 4, None, v), Y0, 0.1),
    "hbvm_step.h": lambda v: hbvm_step(KEPLER, MethodConfig(2, 4), Y0, v),
    "elim_step.h": lambda v: elim_step(KEPLER, L1, MethodConfig(2, 4), Y0, v),
    "integrate.h": lambda v: integrate(KEPLER, None, MethodConfig(2, 4), v, 2),
    "integrate.n_steps": lambda v: integrate(KEPLER, L1, MethodConfig(2, 4), 0.1, v),
    "reference_solution.h_ref": lambda v: reference_solution(KEPLER, v, 0.2),
    "reference_solution.horizon": lambda v: reference_solution(KEPLER, 0.1, v),
    "parse_step_size.token": parse_step_size,
    **{f"cost_ratio.{name}": _cost_ratio_slot(i)
       for i, name in enumerate(("r1", "k1", "r2", "k2", "nu"))},
}

# hostile arrays: a list past any float, complex, bool, text NumPy would
# parse, ragged nesting, non-numbers, 0-d arrays and arrays of another ndim
# or shape; then arrays of valid entries (integers past int64, int8,
# float32), so that calls and pairs of arrays also go through
ARRAYS = [
    [10**400], [0.5, -10**400], [1j], np.array([0.5j, 1.0]), [True, False], np.array([True]), True,
    ["0.5"], "0.5", [[0.1], [0.2, 0.3]], [[1], 0, 0, 1], object(), [object()], None, [None, 0.5],
    [Fraction(1, 2)], [Decimal("0.5")], np.array(0.5), np.array(3), 0.5, [], np.zeros((2, 2, 2)),
    np.ones((1, 4)), np.ones((4, 1)),
    [0.0, 1.0], [1e-3, 5e-4], [2**64, 1], np.array([1, 2, 3, 4], dtype=np.int8),
    np.array([0.4, 0.1, 0.2, 1.9], dtype=np.float32), Y0, Y0.tolist(),
]

# times np.polyfit cannot fit a line against: non-finite, all equal, and so
# small or so large that their squares sum to 0 or overflow
TIMES = [[0, math.nan], [0, math.inf], [1, 1], [1e-170, 2e-170], [0, 5e-324], [1e200, 2e200]]

# each public entry point's array arguments, one at a time, the others valid;
# the two-array helpers take a pair
ARRAY_SLOTS = {
    "hbvm_step.y0": lambda v: hbvm_step(KEPLER, MethodConfig(2, 4), v, 0.1),
    "elim_step.y0": lambda v: elim_step(KEPLER, L1, MethodConfig(2, 4), v, 0.1),
    "HamiltonianProblem.initial_state":
        lambda v: integrate(replace(KEPLER, initial_state=v), None, MethodConfig(2, 4), 0.1, 2),
    "legendre_table.x": lambda v: legendre_table(3, v),
    "integral_table.c": lambda v: integral_table(3, v),
    "estimate_orders.errors": estimate_orders,
    "apply_structure.grad": lambda v: apply_structure(v, 2),
    "drift_slope.times, errors": lambda pair: drift_slope(*pair),
    "max_norm_error.y, reference": lambda pair: max_norm_error(*pair),
}

# two valid specs of one short run each: an HBVM drift and an ELIM iterations table
BASES = {
    "hbvm": ExperimentSpec("drift", method="hbvm", s=2, k=4, step_sizes=(0.1,), horizon=0.2,
                           out="out.csv"),
    "elim": ExperimentSpec("iterations", method="elim", s=2, k=4, r=4, invariants="L1",
                           step_sizes=(0.1,), horizon=0.2, out="out.csv"),
}
SPEC_FIELDS = [f.name for f in fields(ExperimentSpec)]


_ALLOWED = ("returned", "ConfigError", "NonConvergence")


def _outcomes(call, values):
    """Per value, what its call did: one of _ALLOWED, or (value, the type
    and message of any other exception)."""
    found = []
    for v in values:
        try:
            with np.errstate(all="ignore"):
                call(v)
            found.append("returned")
        except (ConfigError, NonConvergence) as exc:
            found.append(type(exc).__name__)
        except Exception as exc:  # noqa: BLE001 - any other exception is the finding
            found.append((v, f"{type(exc).__name__}: {exc}"))
    return found


def _unexpected(outcomes):
    return [outcome for outcome in outcomes if outcome not in _ALLOWED]


@pytest.mark.parametrize("slot", SLOTS)
def test_each_scalar_argument_returns_or_raises_config_error(slot):
    assert _unexpected(_outcomes(SLOTS[slot], VALUES)) == []


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("field", SPEC_FIELDS)
def test_each_spec_field_returns_or_raises_config_error(field, base, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    spec = BASES[base]
    outcomes = _outcomes(lambda v: run_experiment(replace(spec, **{field: v})), VALUES)
    assert _unexpected(outcomes) == []
    capsys.readouterr()


def test_random_specs_return_or_raise_config_error(tmp_path, monkeypatch, capsys):
    # every field at once: each keeps a base's value or takes one of VALUES,
    # with a seeded generator, so a failure here replays
    monkeypatch.chdir(tmp_path)
    rng = random.Random(0)
    specs = []
    for _ in range(400):
        base = BASES[rng.choice(list(BASES))]
        changes = {f: rng.choice(VALUES) for f in SPEC_FIELDS if rng.random() < 0.15}
        specs.append(replace(base, **changes))
    outcomes = _outcomes(run_experiment, specs)
    assert _unexpected(outcomes) == []
    # and the draws are not all refused: some of them run
    assert outcomes.count("returned") > 0
    capsys.readouterr()


def test_each_array_argument_returns_or_raises_config_error(capfd):
    # every array of ARRAYS in each single slot, and seeded pairs of them
    # (each array with itself included) in the two-array slots, then each of
    # TIMES with errors of its length; nothing reaches stderr (LAPACK prints there)
    rng = random.Random(0)
    pairs = [(a, a) for a in ARRAYS] + [(rng.choice(ARRAYS), rng.choice(ARRAYS)) for _ in range(300)]
    pairs += [(times, [1, 2]) for times in TIMES]
    unexpected = {}
    for slot, call in ARRAY_SLOTS.items():
        outcomes = _outcomes(call, pairs if "," in slot else ARRAYS)
        unexpected[slot] = _unexpected(outcomes)
        # and some calls go through
        assert "returned" in outcomes, slot
    assert unexpected == dict.fromkeys(ARRAY_SLOTS, [])
    assert capfd.readouterr().err == ""


def _json_representable(value):
    try:
        json.dumps(value)
    except (TypeError, ValueError):
        return False
    return True


# a valid --config file of one short run per subcommand kind, steps and
# horizon given as a string and as a number or a list
CONFIGS = {
    "drift": dict(method="hbvm", s=2, k=4, steps="0.1", horizon=0.2, out="out.csv"),
    "iterations": dict(method="elim", s=2, k=4, r=4, invariants="L1", steps=[0.1], horizon="0.2",
                       out="out.csv"),
    "tableau": dict(s=2, k=4, out="out.json"),
}


def test_each_config_key_exits_0_or_2_and_a_refusal_writes_nothing(tmp_path, monkeypatch, capsys):
    # each JSON value of VALUES under each key of _SETTINGS, then seeded draws
    # changing several keys at once, through main; a key tableau has no flag
    # for is refused as unknown
    values = [v for v in VALUES if _json_representable(v)]
    rng = random.Random(0)
    files = [(name, {**base, key: v}) for name, base in CONFIGS.items() for key in _SETTINGS
             for v in values]
    for _ in range(100):
        name = rng.choice(list(CONFIGS))
        changes = {key: rng.choice(values) for key in _SETTINGS if rng.random() < 0.15}
        files.append((name, {**CONFIGS[name], **changes}))
    cfg, run = tmp_path / "cfg.json", tmp_path / "run"
    run.mkdir()
    monkeypatch.chdir(run)
    monkeypatch.delenv("ELIM_FP_TOL", raising=False)
    codes, unexpected = [], []
    for name, settings in files:
        cfg.write_text(json.dumps(settings))
        capsys.readouterr()
        codes.append(main([name, "--config", str(cfg)]))
        out, written = capsys.readouterr().out, sorted(p.name for p in run.iterdir())
        refused = name == "tableau" and not {"steps", "horizon"}.isdisjoint(settings)
        if codes[-1] not in ((2,) if refused else (0, 2)) or codes[-1] == 2 and (out or written):
            unexpected.append((name, settings, codes[-1], out, written))
        for path in run.iterdir():
            shutil.rmtree(path) if path.is_dir() else path.unlink()
    assert unexpected == []
    # and both outcomes occur
    assert {0, 2} <= set(codes)
