"""Benchmark of the linteg steppers on the paper's Kepler orbit.

    python3 perfbench/run.py --workload drift_elim2 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --reproduce-paper          # one timed reproduce-paper, hashed

Run from the root of a checkout; the package is imported from src/.  One
process and one thread make all the load (a closed loop: each job starts
when the previous one returns); only setup_s starts fresh interpreters, one
at a time.  --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
metrics of a separate traced run.  The last stdout line is one JSON object
with keys correct, attempted, failed and metrics; lines before it starting
with '#' record the environment and the output fingerprints.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
MIN_OPS = 2
SETUP_REPEATS = 11
MICRO_REPEATS = 5
MIN_STEP_SAMPLES = 1000
RECONCILE_MAX_PCT = 10.0


def median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


class Ops:
    """Counts operations (integration jobs) attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, fn, check):
        """Run fn() timed, then check(result) untimed; returns (result or None, seconds)."""
        from linteg import NonConvergence

        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn()
        except NonConvergence as exc:
            self.fail(f"NonConvergence: {exc}")
            return None, time.perf_counter() - t0
        dt = time.perf_counter() - t0
        bad = check(result)
        if bad:
            self.fail("; ".join(bad))
            return None, dt
        return result, dt

    def fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"# failed: {message}", file=sys.stderr)


def cold_starts(name: str, seed: int, repeats: int, micro: bool):
    """Wall times of fresh coldstart.py processes, plus their micro timings."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "coldstart.py"), name, str(seed)] + (["--micro"] if micro else [])
    walls, records = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed: {proc.stderr.strip()}")
        if micro:
            records.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return walls, records


def _checker(run, fingerprints: dict, key: str, check):
    """check() plus: every repeat of the same job gives bit-identical output."""

    def full(result):
        bad = check(result)
        if not bad:
            fp = fingerprints.setdefault(key, run.fingerprint_of(key, result))
            if run.fingerprint_of(key, result) != fp:
                bad = [f"{key} output differs between repeats"]
        return bad

    return full


def timed_loop(seconds: float, body) -> None:
    """Call body() until the deadline has passed and body() has run MIN_OPS times.

    Ends whether or not the jobs pass, so a program whose jobs always fail
    still ends the run and reports them as failed.
    """
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_OPS or time.perf_counter() < deadline:
        body()
        rounds += 1


def measure_untraced(run, seed: int, seconds: float, setup_repeats: int, ops: Ops, fps: dict):
    setup, _ = cold_starts(run.wl.name, seed, setup_repeats, micro=False)
    check_job = _checker(run, fps, run.job_key, run.check)
    walls, sweeps = [], []

    def body():
        result, dt = ops.attempt(run.job, check_job)
        if result is not None:
            walls.append(dt)
            sweeps.append(run.sweeps(result))

    timed_loop(seconds, body)
    # the fastest job: host load only ever slows a job down
    fastest = min(walls, default=0.0)
    n_sweeps = sweeps[0] if sweeps else 0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": metric(median(setup), "s"),
        "steps_per_s": metric(run.steps / fastest if fastest else 0.0, "1/s"),
        "us_per_sweep": metric(fastest / n_sweeps * 1e6 if n_sweeps else 0.0, "us"),
        "sweeps_per_step": metric(n_sweeps / run.steps, "count"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


def measure_traced(
    run, seed: int, seconds: float, cold_repeats: int, min_samples: int, ops: Ops, fps: dict, tracer
):
    import numpy as np

    from workloads import step_latencies

    _, micro = cold_starts(run.wl.name, seed, cold_repeats, micro=True)
    check_job = _checker(run, fps, run.job_key, run.check)
    # (untraced wall, traced wall, traced summary) of replicas made back to back
    pairs, job_walls, state = [], [], {"job": None, "replica": None}
    check_traced = _checker(run, fps, "states", lambda r: run.check_replica(r, state["job"]))

    def body():
        if run.wl.kind == "cli":
            result, dt = ops.attempt(run.job, check_job)
            if result is not None:
                state["job"] = result
                job_walls.append(dt)
        rep, plain_dt = ops.attempt(run.replicate, lambda r: run.check_replica(r, state["job"]))
        if rep is not None and run.wl.kind == "drift":  # the drift job is the replica's integrate
            state["job"] = rep[0]
        tracer.reset()
        traced_rep, dt = ops.attempt(lambda: run.replicate(tracer), check_traced)
        if traced_rep is not None:
            state["replica"] = traced_rep
            if rep is not None:
                pairs.append((plain_dt, dt, tracer.summary()))

    timed_loop(seconds, body)
    tracer.dump(OUT / f"spans-{run.wl.name}-{seed}.json")

    trajs = run.trajectories(state["replica"]) if state["replica"] is not None else []
    sweeps = sum(t.iteration_total for t in trajs)
    per_step = np.concatenate([t.iterations for t in trajs]) if trajs else np.zeros(1)

    # per-step latency through hbvm_step / elim_step, which must end where integrate did
    def same_finals(stepped):
        finals = stepped[2]
        if len(finals) == len(trajs) and all(
            np.array_equal(y, t.states[-1]) for y, t in zip(finals, trajs)
        ):
            return []
        return ["stepping differs from integrate"]

    stepped, _ = ops.attempt(lambda: step_latencies(run, min_samples), same_finals)
    times, fallback_sweeps, _ = stepped if stepped is not None else ([], 0, [])
    p50, p99 = np.percentile(times, [50, 99]) * 1e6 if times else (0.0, 0.0)

    # timings take the fastest job, shares the median over jobs
    def total_us(name):
        return min((s[name]["total_s"] * 1e6 if name in s else 0.0 for _, s in traced), default=0.0)

    def share(name):
        return median([s[name]["total_s"] / w if name in s else 0.0 for w, s in traced])

    def per_call_us(name):
        return min(
            (s[name]["total_s"] / s[name]["calls"] * 1e6 if name in s else 0.0 for _, s in traced),
            default=0.0,
        )

    traced = [(w, s) for _, w, s in pairs]
    vf, grad = "problems.vector_field", "problems.gradients"
    last_summary = traced[-1][1] if traced else {}

    def count(name, field):
        return last_summary.get(name, {}).get(field, 0)

    integ_self = [s["integrators.integrate"]["self_s"] for _, s in traced]
    walls = [w for w, _ in traced]
    plain = min((p for p, _, _ in pairs), default=0.0)
    # Coverage of the traced replica by layer spans.  The self times of all
    # spans add up to the root spans' durations, so this is the share of the
    # replica's wall time spent outside every span: it grows only if work is
    # added to the replica outside the spans.  The comparison with the
    # untraced replica is trace.overhead_pct (not gated: back-to-back jobs
    # differ by up to 25% on a shared host).
    reconcile_pct = median(
        [(1.0 - sum(a["self_s"] for a in s.values()) / w) * 100.0 for _, w, s in pairs]
    )
    if pairs and not abs(reconcile_pct) <= RECONCILE_MAX_PCT:
        ops.fail(f"layer self times cover only {100.0 - reconcile_pct:.1f}% of the traced replica")
    harness_self = min(job_walls) - plain if job_walls and plain else 0.0
    output_bytes = len(state["job"][1]) if run.wl.kind == "cli" and state["job"] is not None else 0
    return {
        "problems.vf_calls": metric(count(vf, "calls"), "count"),
        "problems.vf_points": metric(count(vf, "points"), "count"),
        "problems.vf_us_per_call": metric(per_call_us(vf), "us"),
        "problems.vf_share": metric(share(vf), "fraction"),
        "problems.grad_calls": metric(count(grad, "calls"), "count"),
        "problems.grad_points": metric(count(grad, "points"), "count"),
        "problems.grad_us_per_call": metric(per_call_us(grad), "us"),
        "problems.grad_share": metric(share(grad), "fraction"),
        "integrators.self_us_per_sweep": metric(min(integ_self, default=0.0) / sweeps * 1e6 if sweeps else 0.0, "us"),
        "integrators.self_share": metric(median([i / w for i, w in zip(integ_self, walls)]), "fraction"),
        "integrators.sweeps_p50": metric(float(np.median(per_step)), "count"),
        "integrators.sweeps_max": metric(int(np.max(per_step)), "count"),
        "integrators.fallback_steps": metric(int(sum(np.count_nonzero(t.fallback) for t in trajs)), "count"),
        "integrators.fallback_sweeps": metric(int(fallback_sweeps), "count"),
        "integrators.step_us_p50": metric(float(p50), "us"),
        "integrators.step_us_p99": metric(float(p99), "us"),
        "integrators.step_samples": metric(len(times), "count"),
        "polybasis.gauss_rule_cold_us": metric(median([m["gauss_rule_cold_us"] for m in micro]), "us"),
        "polybasis.tables_us": metric(median([m["tables_us"] for m in micro]), "us"),
        "tableau.build_hbvm_us": metric(median([m["build_hbvm_us"] for m in micro]), "us"),
        "analysis.reference_us": metric(total_us("analysis.reference_solution"), "us"),
        "analysis.drift_report_us": metric(total_us("analysis.drift_report"), "us"),
        "harness.self_s": metric(harness_self, "s"),
        "harness.output_bytes": metric(output_bytes, "B"),
        "trace.overhead_pct": metric(median([(w / p - 1.0) * 100.0 for p, w, _ in pairs]), "%"),
        "trace.reconcile_pct": metric(reconcile_pct, "%"),
    }


def reproduce_paper() -> dict:
    """Time one `linteg reproduce-paper` and hash every file it writes (not gated)."""
    import hashlib

    from linteg import harness

    out_dir = OUT / "reproduce-paper"
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = harness.main(["reproduce-paper", "--out-dir", str(out_dir)])
    wall = time.perf_counter() - t0
    files = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())
    }
    return {"exit_code": code, "reproduce_paper_s": wall, "files_sha256": files}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", help="drift_elim2, drift_hbvm or cli_convergence_elim1")
    parser.add_argument("--seed", type=int, default=0, help="0 is the paper's orbit")
    parser.add_argument("--seconds", type=float, default=30.0, help="timed length of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for checking the output")
    parser.add_argument("--reproduce-paper", action="store_true", help="time reproduce-paper once")
    args = parser.parse_args(argv)
    if args.workload is None and not args.reproduce_paper:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "linteg" / "__init__.py").is_file():
        print(f"error: no linteg sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import workloads
    from spans import Tracer

    env = environment()
    print("# env " + json.dumps(env))
    if args.reproduce_paper:
        record = {"env": env, **reproduce_paper()}
        print(json.dumps(record))
        return 0
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    run = workloads.make_run(wl, args.seed, OUT, args.smoke, tracer)
    ops, fps = Ops(), {}
    if args.trace:
        metrics = measure_traced(
            run, args.seed, args.seconds, 1 if args.smoke else MICRO_REPEATS,
            20 if args.smoke else MIN_STEP_SAMPLES, ops, fps, tracer,
        )
    else:
        metrics = measure_untraced(
            run, args.seed, args.seconds, 1 if args.smoke else SETUP_REPEATS, ops, fps
        )
    print(f"# workload {wl.name}: {wl.why}")
    print("# inputs " + json.dumps({"seed": args.seed, **run.inputs()}))
    print("# fingerprints " + json.dumps(fps))
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
