"""One cold start: import linteg and take the workload's first step in a fresh process.

    python3 perfbench/coldstart.py <workload> <seed> [--micro]

run.py times this whole process for setup_s.  With --micro it first times
the cold operator construction (Gauss rule, basis tables, HBVM tableau) and
prints those times as one JSON line.
"""

import json
import math
import sys
from time import perf_counter


def main(argv) -> int:
    name, seed, micro = argv[0], int(argv[1]), "--micro" in argv[2:]
    import workloads  # imports linteg and numpy
    from linteg import build_hbvm_tableau, elim_step, gauss_rule, hbvm_step, integral_table
    from linteg import legendre_table

    wl = workloads.WORKLOADS[name]
    if micro:
        t0 = perf_counter()
        rule = gauss_rule(workloads.K)
        t1 = perf_counter()
        legendre_table(workloads.S - 1, rule.nodes)
        integral_table(workloads.S - 1, rule.nodes)
        t2 = perf_counter()
        build_hbvm_tableau(workloads.K, workloads.S)
        t3 = perf_counter()
        print(json.dumps({
            "gauss_rule_cold_us": (t1 - t0) * 1e6,
            "tables_us": (t2 - t1) * 1e6,
            "build_hbvm_us": (t3 - t2) * 1e6,
        }))
    if wl.kind == "cli":
        import linteg.harness  # noqa: F401  (the CLI path imports it)
    e, theta = workloads.orbit(seed, rotate=wl.kind == "drift")
    problem = workloads.build_problem(e, theta)
    invariants = workloads.build_invariants(wl.invariants)
    config = workloads.MethodConfig(s=workloads.S, k=workloads.K, fp_tolerance=wl.tol)
    h = workloads.DRIFT_H if wl.kind == "drift" else math.pi / 120
    if invariants is None:
        hbvm_step(problem, config, problem.initial_state, h)
    else:
        elim_step(problem, invariants, config, problem.initial_state, h)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
