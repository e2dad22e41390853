"""Shared test helpers.

Acceptance-criterion verdict lines are collected and echoed at the end of
the run, where pytest's output capture cannot hide them.

Byte pins are recorded per arithmetic.  OpenBLAS's kernels and NumPy's SIMD
loops sum and round in different orders, so a digest that depends on them
is a dict keyed by what this process has loaded: (the core OpenBLAS runs,
whether NumPy dispatches its X86_V4 (AVX-512) loops).  OpenBLAS picks its
core itself unless OPENBLAS_CORETYPE names one.  ("SkylakeX", True) is the
AVX-512 CPU the records were made on, ("Haswell", True) the same CPU under
OPENBLAS_CORETYPE=Haswell, and ("SkylakeX", False) the same CPU with
NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4".  An arithmetic
with no recorded digests fails by name.
"""

import ctypes
from pathlib import Path

import numpy as np
import pytest

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # NumPy 1.x
    from numpy.core._multiarray_umath import __cpu_features__

CRITERION_LINES = []


def record_criterion(line: str) -> None:
    CRITERION_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if not CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in CRITERION_LINES:
        terminalreporter.write_line(line)


def _openblas_core():
    # the core of the OpenBLAS bundled with NumPy's wheel, asked of the copy
    # this process has loaded (CDLL of a loaded library hands back that
    # copy); None for any other BLAS
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    if not libs:
        return None
    corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


ARITHMETIC = (_openblas_core(), bool(__cpu_features__.get("X86_V4")))


def _avx512_moves(digest, off):
    """A pin the Haswell kernel keeps and NumPy's non-AVX-512 loops move: digest
    under ("SkylakeX", True) and ("Haswell", True), off under ("SkylakeX", False)."""
    return {("SkylakeX", True): digest, ("Haswell", True): digest, ("SkylakeX", False): off}


def _recorded(digests):
    # the digests of the arithmetic this process runs, from a dict keyed by
    # arithmetic; any other value is one record that every recorded
    # arithmetic gives
    if not isinstance(digests, dict):
        return digests
    if ARITHMETIC not in digests:
        pytest.fail(f"no digests for (core, X86_V4) = {ARITHMETIC}")
    return digests[ARITHMETIC]
