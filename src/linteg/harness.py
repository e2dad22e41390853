"""Command-line experiment runner.

Subcommands build one validated ExperimentSpec, integrate, and write CSV
(floats at 16 significant digits, so identical specs give byte-identical
files).  `tableau` emits a JSON Butcher tableau instead; `reproduce-paper`
chains the full benchmark set for the elliptic two-body problem at the
published parameters.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import pickle
import re
import sys
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from .analysis import _reference_steps, drift_report, max_norm_error, reference_solution
from .integrators import ConfigError, MethodConfig, NonConvergence, _max_steps, integrate
from .problems import (
    HamiltonianProblem,
    InvariantSet,
    kepler_invariants,
    kepler_problem,
    polynomial_oscillator,
)
from .tableau import build_hbvm_tableau, tableau_to_json

__all__ = ["ExperimentSpec", "main", "parse_step_size", "run_experiment"]

_METHODS = ("gauss", "hbvm", "elim")
# each --invariants label and the kepler_invariants selection that imposes it
_INVARIANTS = {
    "none": None,
    "L1": "angular_momentum_only",
    "L1L2": "angular_momentum_and_lrl",
}

_PI_PATTERN = re.compile(
    r"^\s*(?P<num>[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)?\s*\*?\s*pi\s*"
    r"(?:/\s*(?P<den>[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?))?\s*$"
)


def parse_step_size(token: str) -> float:
    """Parse a step size such as '0.1', 'pi/30' or '20pi'."""
    match = _PI_PATTERN.match(token)
    if match:
        value = math.pi
        if match.group("num"):
            value *= float(match.group("num"))
        if match.group("den"):
            den = float(match.group("den"))
            if den == 0.0:
                raise ConfigError(f"step size or horizon {token!r} divides by zero")
            value /= den
        return value
    try:
        return float(token)
    except ValueError:
        raise ConfigError(f"cannot parse step size or horizon {token!r}") from None


def _fmt(value) -> str:
    return f"{value:.16g}"


def _order(prev, cur) -> str:
    """Observed order log2(prev / cur) between successive step sizes, as a
    CSV cell; blank where it is undefined (a value that is not > 0)."""
    return _fmt(math.log2(prev / cur)) if prev > 0 and cur > 0 else ""


@dataclass(frozen=True)
class ExperimentSpec:
    """One validated experiment invocation."""

    experiment: str
    problem: str = "kepler"
    eccentricity: float = 0.6
    method: str = "hbvm"
    s: int = 3
    k: Optional[int] = None
    r: Optional[int] = None
    invariants: str = "none"
    step_sizes: tuple = ()
    horizon: float = 0.0
    tol: float = MethodConfig.fp_tolerance
    out: Optional[str] = None

    def resolved_k(self) -> int:
        # validate holds gauss to k = s
        return self.s if self.k is None else self.k

    def nu(self) -> int:
        invariants = self.build_invariants()
        return 0 if invariants is None else invariants.nu

    def validate(self) -> None:
        if self.experiment not in _RUNNERS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.method not in _METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.invariants not in _INVARIANTS:
            raise ConfigError(f"unknown invariant selection {self.invariants!r}")
        if not (self.problem == "kepler" or re.fullmatch(r"oscillator[2468]", self.problem)):
            raise ConfigError(f"unknown problem {self.problem!r}")
        if self.problem == "kepler" and not 0.0 <= self.eccentricity < 1.0:
            raise ConfigError(f"eccentricity must lie in [0, 1), got {self.eccentricity}")
        if self.method == "gauss" and self.k is not None and self.k != self.s:
            raise ConfigError("the gauss method fixes k = s; drop -k or pass k = s")
        if self.method == "elim" and self.invariants == "none":
            raise ConfigError("the elim method needs --invariants L1 or L1L2")
        if self.method != "elim" and self.invariants != "none":
            raise ConfigError("--invariants requires --method elim")
        if self.invariants != "none" and self.problem != "kepler":
            raise ConfigError("invariant selections are defined for the kepler problem")
        if self.experiment != "tableau":
            if not self.step_sizes:
                raise ConfigError("need at least one step size (--steps)")
            if not all(0.0 < h < math.inf for h in self.step_sizes):
                raise ConfigError("step sizes must be positive and finite")
            if self.experiment == "drift" and len(self.step_sizes) != 1:
                raise ConfigError("drift runs use exactly one step size")
            if not 0.0 < self.horizon < math.inf:
                raise ConfigError(f"horizon must be positive and finite, got {self.horizon}")
            if self.experiment == "alpha-norm" and self.method != "elim":
                raise ConfigError("alpha-norm tracks the elim scaling; use --method elim")
            self.step_counts()
        # fail on impossible method parameters before any stepping
        self.method_config().validate(nu=self.nu())

    def step_counts(self) -> list:
        """(h, n_steps) for each step size; the horizon must be a whole multiple of each."""
        counts = []
        dim = self.build_problem().dim
        for h in self.step_sizes:
            ratio = self.horizon / h
            if not math.isfinite(ratio):
                raise ConfigError(f"horizon {self.horizon!r} / step size {h!r} is not finite")
            n = int(round(ratio))
            if n < 1 or abs(n * h - self.horizon) > 1e-9 * self.horizon:
                raise ConfigError(
                    f"horizon {self.horizon!r} is not an integer multiple of step size {h!r}"
                )
            if n > _max_steps(dim):
                raise ConfigError(
                    f"horizon {self.horizon!r} / step size {h!r} is {ratio:.3g} steps, "
                    f"more than the {_max_steps(dim)} whose states an array can hold"
                )
            counts.append((h, n))
        return counts

    def method_config(self) -> MethodConfig:
        return MethodConfig(
            s=self.s, k=self.resolved_k(), r=self.r, fp_tolerance=self.tol
        )

    def build_problem(self) -> HamiltonianProblem:
        if self.problem == "kepler":
            return kepler_problem(self.eccentricity)
        return polynomial_oscillator(int(self.problem.removeprefix("oscillator")))

    def build_invariants(self) -> Optional[InvariantSet]:
        selection = _INVARIANTS[self.invariants]
        return kepler_invariants(selection) if selection else None


def _write_csv(path: Path, header: list, rows: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _outcome(task):
    """(True, task()) or (False, the exception it raised)."""
    try:
        return True, task()
    except Exception as exc:
        return False, exc


def _serve(tasks: list, share: list, write) -> None:
    """Body of a forked child: run tasks[i] for i in share, pickle their
    outcomes into the pipe and leave by os._exit on every path, so that no
    exit handler inherited from the parent (pytest's, the CLI's) runs twice."""
    status = 1
    try:
        pickle.dump([_outcome(tasks[i][1]) for i in share], write)
        write.flush()
        status = 0
    finally:
        os._exit(status)


def _parallel(tasks: list):
    """Run the (n_steps, task) pairs of one invocation, each task taking no
    argument; yield the results in task order.  A task that raised raises
    again at its place, after the results before it, as the plain loop would.

    On Linux the tasks go, largest n_steps first, each to the least loaded
    of this process and a forked child per further usable CPU.  Fork makes
    a child inherit the imported package and the tasks, whose problem
    records hold lambdas, so only results are pickled (linteg starts no
    thread, and OpenBLAS stops its own before a fork).  A child that dies
    fails its tasks with ChildProcessError.  With one task, one usable CPU
    or no sched_getaffinity (macOS, Windows) every task runs in this process
    and nothing is forked.
    """
    try:
        n_procs = max(1, min(len(tasks), len(os.sched_getaffinity(0))))
    except AttributeError:
        n_procs = 1
    shares = [[] for _ in range(n_procs)]
    loads = [0] * n_procs
    for i in sorted(range(len(tasks)), key=lambda i: -tasks[i][0]):
        least = loads.index(min(loads))
        shares[least].append(i)
        loads[least] += tasks[i][0]
    outcomes = [None] * len(tasks)
    children = []  # (pid, pipe, share) of each child not yet waited for
    try:
        for share in shares[1:]:
            read, write = (open(fd, mode) for fd, mode in zip(os.pipe(), ("rb", "wb")))
            with write:
                pid = os.fork()
                if pid == 0:
                    _serve(tasks, share, write)
            children.append((pid, read, share))
        for i in shares[0]:
            outcomes[i] = _outcome(tasks[i][1])
        while children:
            pid, pipe, share = children[0]
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            if code == 0:
                results = pickle.loads(data)
            else:
                dead = ChildProcessError(f"worker process {pid} exited with status {code}")
                results = [(False, dead)] * len(share)
            for i, outcome in zip(share, results):
                outcomes[i] = outcome
    finally:
        if children:  # left early, by an interrupt or a failed fork or read
            import signal

            for pid, pipe, _ in children:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    for ok, value in outcomes:
        if not ok:
            raise value
        yield value


def _integrations(spec: ExperimentSpec, problem: HamiltonianProblem) -> list:
    """(n_steps, task) per step size: spec's method integrated over its horizon."""
    invariants, config = spec.build_invariants(), spec.method_config()
    return [
        (n, partial(integrate, problem, invariants, config, h, n)) for h, n in spec.step_counts()
    ]


def _runs(spec: ExperimentSpec, problem: HamiltonianProblem):
    """Yield (h, n_steps, trajectory) per step size of spec, in step order;
    the runs go side by side (see _parallel)."""
    for (h, n), traj in zip(spec.step_counts(), _parallel(_integrations(spec, problem))):
        yield h, n, traj


def _run_convergence(spec: ExperimentSpec, out: Path) -> None:
    problem = spec.build_problem()
    h_ref = min(spec.step_sizes) / 2.0
    # an integrated reference is the costliest run, so it shares their batch
    reference = (
        _reference_steps(problem, h_ref, spec.horizon),
        partial(reference_solution, problem, h_ref, spec.horizon),
    )
    results = _parallel([reference] + _integrations(spec, problem))
    y_ref = next(results)
    rows = []
    prev = None
    for (h, n), traj in zip(spec.step_counts(), results):
        err = max_norm_error(traj.states[-1], y_ref)
        order = "" if prev is None else _order(prev, err)
        rows.append([_fmt(h), str(n), _fmt(err), order, str(traj.iteration_total)])
        print(f"h={_fmt(h)}  n={n}  error={_fmt(err)}  iterations={traj.iteration_total}")
        prev = err
    _write_csv(out, ["h", "n_steps", "error", "order", "iteration_total"], rows)


def _alpha_names(nu: int) -> list:
    return [f"alpha_{v + 1}" for v in range(nu)]


def _alpha_rows(traj) -> list:
    """Step number, time and scaling components of each step, as CSV cells."""
    return [
        [str(i + 1), _fmt(traj.times[i + 1])] + [_fmt(a) for a in traj.alpha[i]]
        for i in range(traj.alpha.shape[0])
    ]


def _run_alpha_norm(spec: ExperimentSpec, out: Path) -> None:
    rows = []
    maxima = []
    for h, n, traj in _runs(spec, spec.build_problem()):
        amax = float(np.max(np.abs(traj.alpha)))
        maxima.append(amax)
        for row, alpha in zip(_alpha_rows(traj), traj.alpha):
            rows.append([_fmt(h)] + row + [_fmt(np.max(np.abs(alpha)))])
        print(f"h={_fmt(h)}  n={n}  max|alpha|={_fmt(amax)}")
    if len(maxima) >= 2:
        print("alpha orders:", " ".join(map(_order, maxima, maxima[1:])))
    _write_csv(out, ["h", "n", "t"] + _alpha_names(spec.nu()) + ["alpha_inf"], rows)


def _run_iterations(spec: ExperimentSpec, out: Path) -> None:
    rows = []
    for h, n, traj in _runs(spec, spec.build_problem()):
        total = traj.iteration_total
        nfall = int(np.count_nonzero(traj.fallback))
        rows.append([_fmt(h), str(n), str(total), str(nfall)])
        print(f"h={_fmt(h)}  n={n}  iterations={total}  fallback_steps={nfall}")
    _write_csv(out, ["h", "n_steps", "iteration_total", "fallback_steps"], rows)


def _run_drift(spec: ExperimentSpec, out: Path) -> None:
    problem = spec.build_problem()
    [(h, n, traj)] = _runs(spec, problem)
    _write_drift(spec, problem, h, n, traj, out)


def _write_drift(
    spec: ExperimentSpec, problem: HamiltonianProblem, h: float, n: int, traj, out: Path
) -> None:
    # every invariant the problem defines is reported, whatever is imposed
    kepler = spec.problem == "kepler"
    labels = ("L1", "L2") if kepler else ()
    monitored = kepler_invariants(_INVARIANTS["L1L2"]) if kepler else None
    report = drift_report(traj, problem, monitored)
    nu = spec.nu()
    header = (
        ["n", "t", "h_error"] + [f"err_{lab}" for lab in labels] + _alpha_names(nu)
        + ["iterations", "fallback"]
    )
    rows = []
    for i in range(n + 1):
        row = [str(i), _fmt(traj.times[i]), _fmt(report.h_error[i])]
        row += [_fmt(e) for e in report.invariant_error[i]]
        if i == 0:
            row += [""] * nu + ["", ""]
        else:
            row += [_fmt(a) for a in traj.alpha[i - 1]]
            row += [str(int(traj.iterations[i - 1])), str(int(traj.fallback[i - 1]))]
        rows.append(row)
    _write_csv(out, header, rows)
    print(
        f"h={_fmt(h)}  n={n}  max|H err|={_fmt(report.h_max)}  "
        f"H slope={_fmt(report.h_slope)}  iterations={traj.iteration_total}"
    )
    for v, lab in enumerate(labels):
        print(
            f"max|{lab} err|={_fmt(report.invariant_max[v])}  "
            f"{lab} slope={_fmt(report.invariant_slopes[v])}"
        )


def _run_tableau(spec: ExperimentSpec, out: Optional[Path]) -> None:
    tab = build_hbvm_tableau(spec.resolved_k(), spec.s)
    payload = json.dumps(tableau_to_json(tab), indent=2)
    if out is None:
        print(payload)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(payload + "\n")
        print(f"wrote {out}")


_RUNNERS = {
    "convergence": _run_convergence,
    "alpha-norm": _run_alpha_norm,
    "iterations": _run_iterations,
    "drift": _run_drift,
    "tableau": _run_tableau,
}


def run_experiment(spec: ExperimentSpec) -> None:
    """Validate and execute one experiment, writing its output file."""
    spec.validate()
    if spec.out is None and spec.experiment != "tableau":
        raise ConfigError("this experiment writes CSV; pass --out")
    _RUNNERS[spec.experiment](spec, None if spec.out is None else Path(spec.out))


# ---------------------------------------------------------------------------
# full benchmark reproduction

# the published parameter set, written out as parameters.json: the
# eccentricity 0.6 orbit over ten periods at five halving steps, then 10^4
# drift steps at h = 0.1, for four methods given as ExperimentSpec fields;
# --tol replaces both tolerances
_PAPER = {
    "problem": "kepler",
    "eccentricity": 0.6,
    "horizon": 20.0 * math.pi,
    "step_sizes": tuple(math.pi / d for d in (30, 60, 120, 240, 480)),
    "drift_step_size": 0.1,
    "drift_horizon": 1000.0,
    "fp_tolerance": MethodConfig.fp_tolerance,
    "fp_tolerance_convergence": 1e-15,
    "methods": {
        "gauss3": dict(method="gauss", s=3, k=None, r=None, invariants="none"),
        "hbvm_12_3": dict(method="hbvm", s=3, k=12, r=None, invariants="none"),
        "ehbvm_12_3_L1": dict(method="elim", s=3, k=12, r=12, invariants="L1"),
        "ehbvm_12_3_L1L2": dict(method="elim", s=3, k=12, r=12, invariants="L1L2"),
    },
}


def _write_order_table(path, steps, labels, values, value_name, order_name):
    """Write h, then per label its value at h and its order against the
    previous step (see _order), one row per step."""
    header = ["h"]
    for label in labels:
        header += [f"{value_name}_{label}", f"{order_name}_{label}"]
    rows = []
    for i, h in enumerate(steps):
        row = [_fmt(h)]
        for label in labels:
            cur = values[label, h]
            row += [_fmt(cur), _order(values[label, steps[i - 1]], cur) if i else ""]
        rows.append(row)
    _write_csv(path, header, rows)


def _reproduce_paper(out_dir: Path, tol: Optional[float]) -> None:
    """Convergence, iteration, scaling-norm and drift benchmarks at the
    published parameters (_PAPER).

    The convergence table runs at a tighter fixed-point tolerance than the
    rest: at the finest steps the order-2s error term sits near 1e-12 and
    would otherwise drown in solver noise."""
    paper = dict(_PAPER)
    if tol is not None:
        paper.update(fp_tolerance=tol, fp_tolerance_convergence=tol)
    conv_tol, base_tol = paper["fp_tolerance_convergence"], paper["fp_tolerance"]
    steps = paper["step_sizes"]
    specs = {
        label: ExperimentSpec(
            "convergence", problem=paper["problem"], eccentricity=paper["eccentricity"],
            step_sizes=steps, horizon=paper["horizon"], tol=base_tol, **fields,
        )
        for label, fields in paper["methods"].items()
    }
    drift_specs = {
        label: replace(
            spec, experiment="drift", step_sizes=(paper["drift_step_size"],),
            horizon=paper["drift_horizon"],
        )
        for label, spec in specs.items()
    }
    labels = list(specs)
    for spec in [*specs.values(), *drift_specs.values()]:
        spec.validate()
    problem = specs[labels[0]].build_problem()
    y_ref = reference_solution(problem, min(steps) / 2.0, paper["horizon"])
    out_dir.mkdir(parents=True, exist_ok=True)

    # every distinct (label, tolerance, h) is integrated once, in one batch
    # with the drift runs; the tables read the store
    keys, tasks = [], []
    for label, spec in specs.items():
        for t in dict.fromkeys((conv_tol, base_tol)):
            keys += [(label, t, h) for h, _ in spec.step_counts()]
            tasks += _integrations(replace(spec, tol=t), problem)
    for spec in drift_specs.values():
        tasks += _integrations(spec, problem)
    results = _parallel(tasks)
    runs = {}
    errors = {}
    for (label, t, h), traj in zip(keys, results):
        runs[label, t, h] = traj
        if t == base_tol:  # the last run of (label, h)
            errors[label, h] = max_norm_error(runs[label, conv_tol, h].states[-1], y_ref)
            print(
                f"{label}  h=pi/{round(math.pi / h)}  error={_fmt(errors[label, h])}  "
                f"iterations={runs[label, base_tol, h].iteration_total}"
            )

    _write_order_table(out_dir / "convergence.csv", steps, labels, errors, "error", "order")
    iter_rows = [
        [_fmt(h)] + [str(runs[label, base_tol, h].iteration_total) for label in labels]
        for h in steps
    ]
    _write_csv(out_dir / "iterations.csv", ["h"] + labels, iter_rows)

    elim_labels = [label for label, spec in specs.items() if spec.nu()]
    alpha_max = {
        (label, h): float(np.max(np.abs(runs[label, base_tol, h].alpha)))
        for label in elim_labels for h in steps
    }
    _write_order_table(
        out_dir / "alpha_norms.csv", steps, elim_labels, alpha_max, "alpha_max", "alpha_order"
    )
    # per-step scaling components of the last (most constrained) method at the largest step
    traj = runs[elim_labels[-1], base_tol, steps[0]]
    header = ["n", "t"] + _alpha_names(traj.alpha.shape[1])
    _write_csv(out_dir / "alpha_components.csv", header, _alpha_rows(traj))

    for label, spec in drift_specs.items():
        print(f"drift {label}:")
        [(h, n)] = spec.step_counts()
        _write_drift(spec, problem, h, n, next(results), out_dir / f"drift_{label}.csv")
    (out_dir / "parameters.json").write_text(json.dumps(paper, indent=2) + "\n")
    print(f"wrote {out_dir}/")


# ---------------------------------------------------------------------------
# argument handling


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linteg",
        description="experiment runner for the conserving line-integral methods",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    helps = {name: f"run the {name} experiment" for name in _RUNNERS}
    helps["tableau"] = "export a Butcher tableau as JSON"
    for name, text in helps.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="JSON file with defaults; flags override it")
        for key, (flag, _, options) in _SETTINGS.items():
            if name != "tableau" or key not in ("steps", "horizon"):
                p.add_argument(flag, dest=key, **options)

    repro = sub.add_parser(
        "reproduce-paper", help="run the full published benchmark set"
    )
    repro.add_argument("--out-dir", default="results", help="output directory")
    repro.add_argument("--tol", type=float, help="fixed-point tolerance")
    return parser


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_JSON_KINDS = {
    "a string": lambda v: isinstance(v, str),
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a number": _is_number,
    "null": lambda v: v is None,
    "a list of numbers": lambda v: isinstance(v, list) and all(map(_is_number, v)),
}
# each setting of an experiment subcommand: its flag, the JSON values its
# --config key takes, and its argparse options; ExperimentSpec holds the defaults
_SETTINGS = {
    "problem": ("--problem", ("a string",), dict(help="kepler or oscillator{2,4,6,8}")),
    "eccentricity": ("--eccentricity", ("a number",),
                     dict(type=float, help="kepler eccentricity")),
    "method": ("--method", ("a string",), dict(choices=_METHODS, help="integrator family")),
    "s": ("-s", ("an integer",), dict(type=int, help="polynomial degree count (order 2s)")),
    "k": ("-k", ("an integer", "null"), dict(type=int, help="Gauss nodes for the Hamiltonian")),
    "r": ("-r", ("an integer", "null"), dict(type=int, help="Gauss nodes for the invariants")),
    "invariants": ("--invariants", ("a string",),
                   dict(choices=tuple(_INVARIANTS), help="invariants the method imposes")),
    "tol": ("--tol", ("a number",), dict(type=float, help="fixed-point tolerance")),
    "out": ("--out", ("a string",), dict(help="output file path")),
    "steps": ("--steps", ("a string", "a list of numbers"),
              dict(help="comma list of step sizes, e.g. pi/30,pi/60")),
    "horizon": ("--horizon", ("a string", "a number"),
                dict(help="integration time, e.g. 20pi or 1000")),
}


def _load_config(path: str) -> dict:
    try:
        # JSON text is UTF-8 (RFC 8259), whatever the locale
        with open(path, encoding="utf-8") as fh:
            values = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(values, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = set(values) - set(_SETTINGS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, value in values.items():
        kinds = _SETTINGS[key][1]
        if not any(_JSON_KINDS[kind](value) for kind in kinds):
            raise ConfigError(f"config key {key!r} must be {' or '.join(kinds)}, got {value!r}")
    return values


def _spec_from_args(args: argparse.Namespace, env_tol: Optional[float]) -> ExperimentSpec:
    # rising precedence: ELIM_FP_TOL, the --config file, the flags given
    values = {} if env_tol is None else {"tol": env_tol}
    if args.config:
        values.update(_load_config(args.config))
    for key in _SETTINGS:
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)

    steps = values.pop("steps", ())
    if isinstance(steps, str):
        steps = [parse_step_size(tok) for tok in steps.split(",")]
    horizon = values.pop("horizon", 0.0)
    if isinstance(horizon, str):
        horizon = parse_step_size(horizon)
    for key in ("eccentricity", "tol"):
        if key in values:
            values[key] = float(values[key])
    return ExperimentSpec(
        args.experiment,
        step_sizes=tuple(float(h) for h in steps),
        horizon=float(horizon),
        **values,
    )


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        env_value = os.environ.get("ELIM_FP_TOL")
        try:
            env_tol = float(env_value) if env_value is not None else None
        except ValueError:
            raise ConfigError(f"ELIM_FP_TOL must be a number, got {env_value!r}") from None
        if args.experiment == "reproduce-paper":
            _reproduce_paper(Path(args.out_dir), args.tol if args.tol is not None else env_tol)
        else:
            run_experiment(_spec_from_args(args, env_tol))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergence, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
