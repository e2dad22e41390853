"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at a tiny size (--smoke) untraced and traced, and checks
that each prints a correct result whose metrics are exactly the ones
BENCHMARK.json names, each with its unit, and that each workload's recorded
rationale matches BENCHMARK.json.  Then makes every gate of every
workload fail and checks that each run still ends and counts its failed
operations, and that the benchmark fails without printing a result in a
directory that holds only BENCHMARK.json and perfbench/.  Exits non-zero if
any check fails.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def failing_gates(spec) -> list[str]:
    """Run each workload in-process with gates that always fail; the runs must end."""
    import run as bench
    from spans import Tracer
    import workloads

    def never(*_):
        return ["forced failure"]

    failures = []
    out = ROOT / ".bench_out" / "smoke-failing"
    for name in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            tracer = Tracer() if trace else None
            run = workloads.make_run(workloads.WORKLOADS[name], 1, out, True, tracer)
            run.check = run.check_replica = never
            ops = bench.Ops()
            with contextlib.redirect_stderr(io.StringIO()):
                if trace:
                    bench.measure_traced(run, 1, 0.2, 1, 20, ops, {}, tracer)
                else:
                    bench.measure_untraced(run, 1, 0.2, 1, ops, {})
            tag = f"{name} --trace {trace} with failing gates"
            if ops.attempted < bench.MIN_OPS or ops.failed != ops.attempted:
                failures.append(f"{tag}: attempted {ops.attempted}, failed {ops.failed}")
            print(f"{tag}: ended, attempted {ops.attempted}, failed {ops.failed}")
    return failures


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    for w in spec["workloads"]:
        if workloads.WORKLOADS[w["name"]].why != w["why"]:
            failures.append(f"{w['name']}: rationale differs from BENCHMARK.json")
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, wl, trace)
            result = last_json(proc.stdout)
            tag = f"{wl} --trace {trace}"
            if proc.returncode != 0 or result is None:
                failures.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{tag}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                failures.append(f"{tag}: correct={result['correct']} failed={result['failed']}")
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != expected[trace]:
                failures.append(f"{tag}: metrics {got} != {expected[trace]}")
            print(f"{tag}: {len(got)} metrics, attempted {result['attempted']}")

    failures += failing_gates(spec)

    bare = ROOT / ".bench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, spec["workloads"][0]["name"], 0)
    if proc.returncode == 0 or last_json(proc.stdout) is not None:
        failures.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    shutil.rmtree(bare)

    for f in failures:
        print("FAIL", f)
    print("smoke:", "failed" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
