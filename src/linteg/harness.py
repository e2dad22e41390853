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

from .analysis import _fit_times, _observed_order, _reference_steps, _whole_multiple
from .analysis import drift_report, max_norm_error, reference_solution
from .integrators import MethodConfig, NonConvergence, _max_steps, integrate
from .problems import ConfigError, HamiltonianProblem, InvariantSet, _check_real, _facts, _is_real
from .problems import _PROBLEMS, _invariant_labels, _named_problem
from .tableau import build_hbvm_tableau, tableau_to_json

__all__ = ["ExperimentSpec", "main", "parse_step_size", "run_experiment"]

_METHODS = ("gauss", "hbvm", "elim")

_PI_PATTERN = re.compile(
    r"^\s*(?P<num>[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)?\s*\*?\s*pi\s*"
    r"(?:/\s*(?P<den>[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?))?\s*$"
)


def parse_step_size(token: str) -> float:
    """Parse a step size such as '0.1', 'pi/30' or '20pi'."""
    if not isinstance(token, str):
        raise ConfigError(f"step size or horizon must be a string, got {token!r}")
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


def _fmt(value) -> str:  # a CSV cell; None, an undefined order, is blank
    return "" if value is None else f"{value:.16g}"


def _order_column(values, steps) -> list:  # None, then each value's order (_observed_order)
    return [None, *map(_observed_order, values, values[1:], steps, steps[1:])]


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment invocation; validate() checks it and returns its run plan."""

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

    def validate(self) -> _Plan:
        """Check every field, before any stepping; return the plan the runners execute."""
        if not isinstance(self.experiment, str) or self.experiment not in _RUNNERS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.method not in _METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.invariants not in _invariant_labels():
            raise ConfigError(f"unknown invariant selection {self.invariants!r}")
        if not isinstance(self.out, (str, os.PathLike, type(None))):
            raise ConfigError(f"out must be a file path, got {self.out!r}")
        problem = _named_problem(self.problem, self.eccentricity)
        labels = _facts(self.problem).invariants
        if self.method == "gauss" and self.k is not None and self.k != self.s:
            raise ConfigError("the gauss method fixes k = s; drop -k or pass k = s")
        if self.method == "elim" and self.invariants == "none":
            offered = " or ".join(labels) or f"(the {self.problem} problem defines none)"
            raise ConfigError(f"the elim method needs --invariants {offered}")
        if self.method != "elim" and self.invariants != "none":
            raise ConfigError("--invariants requires --method elim")
        if self.method != "elim" and self.r is not None:
            raise ConfigError("-r requires --method elim")
        if self.invariants != "none" and self.invariants not in labels:
            owners = " or ".join(n for n, f in _PROBLEMS.items() if self.invariants in f.invariants)
            raise ConfigError(f"invariant selections are defined for the {owners} problem")
        counts, steps, horizon = [], [], self.horizon  # (h, n_steps) per checked float step size
        if self.experiment != "tableau":
            for h in self.step_sizes if isinstance(self.step_sizes, (tuple, list)) else [None]:
                if not (_is_real(h) and 0.0 < (h := _check_real("step size", h)) < math.inf):
                    raise ConfigError("step sizes must be positive and finite")
                steps.append(h)
            if not steps:
                raise ConfigError("need at least one step size (--steps)")
            if self.experiment == "drift" and len(steps) != 1:
                raise ConfigError("drift runs use exactly one step size")
            if not (_is_real(horizon)
                    and 0.0 < (horizon := _check_real("horizon", horizon)) < math.inf):
                raise ConfigError(f"horizon must be positive and finite, got {self.horizon!r}")
            if self.experiment == "alpha-norm" and self.method != "elim":
                raise ConfigError("alpha-norm tracks the elim scaling; use --method elim")
            for h in steps:
                ratio = horizon / h
                if not math.isfinite(ratio):
                    raise ConfigError(f"horizon {horizon!r} / step size {h!r} is not finite")
                n = _whole_multiple(horizon, h)
                if not n:
                    raise ConfigError(
                        f"horizon {horizon!r} is not an integer multiple of step size {h!r}"
                    )
                if n > _max_steps(problem.dim):
                    raise ConfigError(
                        f"horizon {horizon!r} / step size {h!r} is {ratio:.3g} steps, "
                        f"more than the {_max_steps(problem.dim)} whose states an array can hold"
                    )
                if self.experiment == "drift":  # the times drift_report fits its slopes against
                    _fit_times(h * np.arange(n + 1))
                counts.append((h, n))
        # fail on impossible method parameters before any stepping (gauss has k = s)
        config = MethodConfig(self.s, self.s if self.k is None else self.k, self.r, self.tol)
        plan = _Plan(problem, labels.get(self.invariants), config, counts, horizon)
        return replace(plan, config=config.validate(nu=plan.nu))


@dataclass(frozen=True)
class _Plan:
    """What a validated ExperimentSpec runs: its problem record, the invariant set the
    method imposes (None without), the method, and (h, n_steps) per step size over the horizon."""

    problem: HamiltonianProblem
    invariants: Optional[InvariantSet]
    config: MethodConfig
    counts: list
    horizon: float

    @property
    def nu(self) -> int:
        return 0 if self.invariants is None else self.invariants.nu


def _write_csv(path: Path, header: list, rows: list) -> None:
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


def _integrations(plan: _Plan) -> list:
    """(n_steps, task) per step size: the plan's method integrated over its horizon."""
    method = plan.problem, plan.invariants, plan.config
    return [(n, partial(integrate, *method, h, n)) for h, n in plan.counts]


def _runs(plan: _Plan):
    """Yield (h, n_steps, trajectory) per step size of plan, in step order;
    the runs go side by side (see _parallel)."""
    for (h, n), traj in zip(plan.counts, _parallel(_integrations(plan))):
        yield h, n, traj


def _run_convergence(plan: _Plan, out: Path) -> None:
    h_ref = min(h for h, _ in plan.counts) / 2.0
    # an integrated reference is the costliest run, so it shares their batch
    reference = (_reference_steps(plan.problem, h_ref, plan.horizon),
                 partial(reference_solution, plan.problem, h_ref, plan.horizon))
    results = _parallel([reference] + _integrations(plan))
    y_ref = next(results)
    rows, errors = [], []
    for (h, n), traj in zip(plan.counts, results):
        errors.append(err := max_norm_error(traj.states[-1], y_ref))
        rows.append([_fmt(h), str(n), _fmt(err), str(traj.iteration_total)])
        print(f"h={_fmt(h)}  n={n}  error={_fmt(err)}  iterations={traj.iteration_total}")
    for row, order in zip(rows, _order_column(errors, [h for h, _ in plan.counts])):
        row.insert(3, _fmt(order))
    _write_csv(out, ["h", "n_steps", "error", "order", "iteration_total"], rows)


def _alpha_names(nu: int) -> list:
    return [f"alpha_{v + 1}" for v in range(nu)]


def _alpha_rows(traj) -> list:
    """Step number, time and scaling components of each step, as CSV cells."""
    return [
        [str(i + 1), _fmt(traj.times[i + 1])] + [_fmt(a) for a in traj.alpha[i]]
        for i in range(traj.alpha.shape[0])
    ]


def _run_alpha_norm(plan: _Plan, out: Path) -> None:
    rows, maxima = [], []
    for h, n, traj in _runs(plan):
        maxima.append(amax := float(np.max(np.abs(traj.alpha))))
        for row, alpha in zip(_alpha_rows(traj), traj.alpha):
            rows.append([_fmt(h)] + row + [_fmt(np.max(np.abs(alpha)))])
        print(f"h={_fmt(h)}  n={n}  max|alpha|={_fmt(amax)}")
    if len(maxima) >= 2:
        orders = _order_column(maxima, [h for h, _ in plan.counts])[1:]
        print("alpha orders:", " ".join(map(_fmt, orders)))
    _write_csv(out, ["h", "n", "t"] + _alpha_names(plan.nu) + ["alpha_inf"], rows)


def _run_iterations(plan: _Plan, out: Path) -> None:
    rows = []
    for h, n, traj in _runs(plan):
        total = traj.iteration_total
        nfall = int(np.count_nonzero(traj.fallback))
        rows.append([_fmt(h), str(n), str(total), str(nfall)])
        print(f"h={_fmt(h)}  n={n}  iterations={total}  fallback_steps={nfall}")
    _write_csv(out, ["h", "n_steps", "iteration_total", "fallback_steps"], rows)


def _run_drift(plan: _Plan, out: Path) -> None:
    [(_, _, traj)] = _runs(plan)
    _write_drift(plan, traj, out)


def _write_drift(plan: _Plan, traj, out: Path) -> None:
    h, n, nu = traj.h, traj.iterations.size, plan.nu
    facts = _facts(plan.problem.name)  # its monitors are reported whatever the method imposes
    report = drift_report(traj, plan.problem, facts.invariants.get(facts.monitored))
    header = (
        ["n", "t", "h_error"] + [f"err_{lab}" for lab in facts.monitors] + _alpha_names(nu)
        + ["iterations", "fallback"]
    )
    rows = [
        [str(i), _fmt(t), _fmt(e)] + [_fmt(x) for x in errs]
        for i, (t, e, errs) in enumerate(zip(traj.times, report.h_error, report.invariant_error))
    ]
    rows[0] += [""] * nu + ["", ""]  # step 0 has no alpha, sweeps or fallback
    for row, alpha, sweeps, fell in zip(rows[1:], traj.alpha, traj.iterations, traj.fallback):
        row += [_fmt(a) for a in alpha] + [str(int(sweeps)), str(int(fell))]
    _write_csv(out, header, rows)
    print(
        f"h={_fmt(h)}  n={n}  max|H err|={_fmt(report.h_max)}  "
        f"H slope={_fmt(report.h_slope)}  iterations={traj.iteration_total}"
    )
    for v, lab in enumerate(facts.monitors):
        print(
            f"max|{lab} err|={_fmt(report.invariant_max[v])}  "
            f"{lab} slope={_fmt(report.invariant_slopes[v])}"
        )


def _run_tableau(plan: _Plan, out: Optional[Path]) -> None:
    tab = build_hbvm_tableau(plan.config.k, plan.config.s)
    payload = json.dumps(tableau_to_json(tab), indent=2)
    if out is None:
        print(payload)
    else:
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
    plan = spec.validate()
    if spec.out is None and spec.experiment != "tableau":
        raise ConfigError("this experiment writes CSV; pass --out")
    if spec.out is not None:
        if Path(spec.out).is_dir():
            raise ConfigError(f"--out {spec.out!r} names a directory; pass a file path")
        Path(spec.out).parent.mkdir(parents=True, exist_ok=True)
    _RUNNERS[spec.experiment](plan, None if spec.out is None else Path(spec.out))


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
    """Write h, then per label its value at h and its order (_order_column), a row per step."""
    header, rows = ["h"], [[_fmt(h)] for h in steps]
    for label in labels:
        header += [f"{value_name}_{label}", f"{order_name}_{label}"]
        column = [values[label, h] for h in steps]
        for row, value, order in zip(rows, column, _order_column(column, steps)):
            row += [_fmt(value), _fmt(order)]
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
    plans, drift_plans = {}, {}
    for label, fields in paper["methods"].items():
        spec = ExperimentSpec(
            "convergence", problem=paper["problem"], eccentricity=paper["eccentricity"],
            step_sizes=steps, horizon=paper["horizon"], tol=base_tol, **fields,
        )
        plans[label] = spec.validate()
        drift_plans[label] = replace(
            spec, experiment="drift", step_sizes=(paper["drift_step_size"],),
            horizon=paper["drift_horizon"],
        ).validate()
    out_dir.mkdir(parents=True, exist_ok=True)
    labels = list(plans)
    y_ref = reference_solution(plans[labels[0]].problem, min(steps) / 2.0, paper["horizon"])

    # every distinct (label, tolerance, h) is integrated once, in one batch
    # with the drift runs; the tables read the store
    keys, tasks = [], []
    for label, plan in plans.items():
        for t in dict.fromkeys((conv_tol, base_tol)):
            keys += [(label, t, h) for h, _ in plan.counts]
            tasks += _integrations(replace(plan, config=replace(plan.config, fp_tolerance=t)))
    for plan in drift_plans.values():
        tasks += _integrations(plan)
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

    elim_labels = [label for label, plan in plans.items() if plan.nu]
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

    for label, plan in drift_plans.items():
        print(f"drift {label}:")
        _write_drift(plan, next(results), out_dir / f"drift_{label}.csv")
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
    # read now, as the problems table may have gained entries and labels
    live = {"problem": dict(help=" or ".join(_PROBLEMS)),
            "invariants": dict(choices=_invariant_labels())}
    helps = {name: f"run the {name} experiment" for name in _RUNNERS}
    helps["tableau"] = "export a Butcher tableau as JSON"
    for name, text in helps.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="JSON file with defaults; flags override it")
        for key in _TABLEAU_SETTINGS if name == "tableau" else _SETTINGS:
            flag, options = _SETTINGS[key]
            p.add_argument(flag, dest=key, **options, **live.get(key, {}))

    repro = sub.add_parser("reproduce-paper", help="run the full published benchmark set")
    repro.add_argument("--out-dir", default="results", help="output directory")
    repro.add_argument("--tol", type=float, help="fixed-point tolerance")
    return parser


# each setting of an experiment subcommand: its flag and argparse options;
# ExperimentSpec holds the defaults and checks each value, from a flag or a --config key
_SETTINGS = {
    "problem": ("--problem", {}),  # help from the problems table
    "eccentricity": ("--eccentricity", dict(type=float, help="kepler eccentricity")),
    "method": ("--method", dict(choices=_METHODS, help="integrator family")),
    "s": ("-s", dict(type=int, help="polynomial degree count (order 2s)")),
    "k": ("-k", dict(type=int, help="Gauss nodes for the Hamiltonian")),
    "r": ("-r", dict(type=int, help="Gauss nodes for the invariants")),
    "invariants": ("--invariants", dict(help="invariants the method imposes")),
    "tol": ("--tol", dict(type=float, help="fixed-point tolerance")),
    "out": ("--out", dict(help="output file path")),
    "steps": ("--steps", dict(help="comma list of step sizes, e.g. pi/30,pi/60")),
    "horizon": ("--horizon", dict(help="integration time, e.g. 20pi or 1000")),
}
_TABLEAU_SETTINGS = ("method", "s", "k", "out")  # the settings a tableau reads


def _load_config(path: str, keys: list) -> dict:
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
    unknown = set(values) - set(keys)  # keys: the settings the subcommand has flags for
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return values


def _spec_from_args(args: argparse.Namespace, env_tol: Optional[float]) -> ExperimentSpec:
    # rising precedence: ELIM_FP_TOL, the --config file, the flags given
    values = {} if env_tol is None or not hasattr(args, "tol") else {"tol": env_tol}
    if args.config:
        values.update(_load_config(args.config, [key for key in _SETTINGS if hasattr(args, key)]))
    for key in _SETTINGS:
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)

    steps = values.pop("steps", ())
    if isinstance(steps, str):
        steps = [parse_step_size(tok) for tok in steps.split(",")]
    if isinstance(values.get("horizon"), str):
        values["horizon"] = parse_step_size(values["horizon"])
    step_sizes = tuple(steps) if isinstance(steps, list) else steps
    return ExperimentSpec(args.experiment, step_sizes=step_sizes, **values)


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
    except (NonConvergence, ValueError, OSError, MemoryError) as exc:
        # ConfigError, a ValueError, marks a refused input: exit code 2
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1
    return 0
