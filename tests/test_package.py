"""The package's public names and what importing it loads."""

import os
import subprocess
import sys
from pathlib import Path

import linteg
from linteg import analysis, harness, integrators, polybasis, problems, tableau


def test_package_exports_every_module_list():
    modules = (analysis, integrators, polybasis, problems, tableau)
    assert linteg.__all__ == [name for module in modules for name in module.__all__]
    assert len(set(linteg.__all__)) == len(linteg.__all__)
    # each name resolves on the package to the object its module defines
    for module in modules:
        for name in module.__all__:
            assert getattr(linteg, name) is getattr(module, name)
    assert "QuadratureRule" not in linteg.__all__
    assert sorted(linteg.__all__) == [
        "ConfigError", "DriftReport", "HamiltonianProblem", "InvariantSet", "MethodConfig",
        "NonConvergence", "StepWorkspace", "TableauMatrices", "Trajectory", "apply_structure",
        "build_hbvm_tableau", "cost_ratio", "drift_report", "drift_slope", "elim_step",
        "estimate_orders", "gauss_rule", "hbvm_step", "integral_table", "integrate",
        "kepler_invariants", "kepler_problem", "legendre_table", "max_norm_error",
        "polynomial_oscillator", "reference_solution", "tableau_to_json", "xhat_matrix",
        "xi_coefficient",
    ]


def test_import_leaves_the_cli_unloaded():
    # the library's cold start does not compile or run the experiment runner
    # and its argparse and csv imports; only the CLI entry point needs them
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, linteg; "
        "print(sorted({'linteg.harness', 'argparse', 'csv'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


def test_the_package_has_one_cache():
    # the (k, s) tableau memo is the only cached callable: no module-level
    # function, nor any method of a class the modules define, keeps a cache
    cached = {}
    for module in (analysis, harness, integrators, polybasis, problems, tableau):
        for obj in vars(module).values():
            members = vars(obj).values() if isinstance(obj, type) else ()
            for candidate in (obj, *members):
                if hasattr(candidate, "cache_info"):
                    cached[id(candidate)] = candidate
    assert list(cached.values()) == [tableau._hbvm_tableau]
