"""Canonical Hamiltonian test problems and their conserved quantities.

States are flat arrays y = (q, p) of length 2m with the canonical structure
matrix J = [[0, I_m], [-I_m, 0]].  All callables are vectorized over leading
axes: they accept shape (..., 2m) in any memory layout and return float64
values with matching batch shape.  The steppers pass column-major stage
arrays, whose columns y[..., i] are contiguous.

The gradients come back C-ordered whatever the input's layout.  The steppers
project them with PTB @ grad, and NumPy hands BLAS a Fortran-ordered operand
as a transposed one, whose kernel may group the k-term sums differently
(NumPy 2.4 with OpenBLAS 0.3.31 on x86-64 does from k = 16 on): the layout
of a gradient array is part of the last bits of a step.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ConfigError",
    "HamiltonianProblem",
    "InvariantSet",
    "apply_structure",
    "kepler_problem",
    "kepler_invariants",
    "polynomial_oscillator",
]


class ConfigError(ValueError):
    """Raised for invalid problem or method parameters before any stepping happens."""


# the largest array dimension NumPy takes
_MAX_COUNT = int(np.iinfo(np.intp).max)


def _check_count(name, value, low=None):
    """value as a Python int; refuses by name a non-integer (a bool, a whole float),
    one below low and one above the largest array dimension"""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ConfigError(f"need {name} >= {low}, got {name}={value}")
    if value > _MAX_COUNT:
        raise ConfigError(f"{name} is too large for an array dimension")
    return int(value)


def _is_real(value):
    # a Python or NumPy integer or float: no bool, and no string float() would parse
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _check_real(name, value):
    # value as a float, refusing by name a non-real and an integer too large for one
    if not _is_real(value):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{name} is too large for a float") from None


def _check_array(name, value, shape=None, on=None):
    """value as np.asarray(value, dtype=float), refusing by name ragged nesting, any entry but
    a real number a float holds, and any shape but shape.  With on, value is a callable's
    output on shape[0] `on`, kept as it is if an ndarray of integers or floats of <= 64 bits."""
    try:
        array = value if isinstance(value, np.ndarray) else np.asarray(value)
    except ValueError:
        raise ConfigError(f"{name} must be an array, got ragged nesting") from None
    if shape is not None and array.shape != shape:
        raise ConfigError(f"{name} gave shape {array.shape} on {shape[0]} {on}, expected {shape}" if on
                          else f"{name} must have shape {shape}, got {array.shape}")
    if on and (array is not value or array.dtype.kind not in "iuf" or array.itemsize > 8):
        raise ConfigError(f"{name} gave {array.dtype if array is value else type(value).__name__}, "
                          "expected an ndarray of integers or of floats of at most 64 bits")
    if array.dtype.kind not in "iuf":  # entry by entry, where Python ints past int64 convert
        return np.array([_check_real(f"an entry of {name}", v) for v in array.flat]).reshape(array.shape)
    return value if on else np.asarray(array, dtype=float)


def apply_structure(grad: np.ndarray, m: int) -> np.ndarray:
    """Apply J = [[0, I_m], [-I_m, 0]] to (batches of) gradients of length 2m."""
    m = _check_count("m", m, 1)
    grad = _check_array("grad", grad)
    if grad.shape[-1:] != (2 * m,):
        raise ConfigError(f"gradients of shape {grad.shape} do not have length 2m = {2 * m}")
    out = np.empty_like(grad)
    out[..., :m] = grad[..., m:]
    np.negative(grad[..., :m], out=out[..., m:])
    return out


@dataclass(frozen=True)
class HamiltonianProblem:
    """Autonomous canonical system y' = J grad H(y)."""

    name: str
    m: int
    hamiltonian: Callable[[np.ndarray], np.ndarray]
    grad_h: Callable[[np.ndarray], np.ndarray]
    initial_state: np.ndarray

    @property
    def dim(self) -> int:
        return 2 * self.m

    def vector_field(self, y: np.ndarray) -> np.ndarray:
        return apply_structure(self.grad_h(y), self.m)


@dataclass(frozen=True)
class InvariantSet:
    """nu further conserved quantities; values shape (..., nu), gradients (..., 2m, nu)."""

    nu: int
    values: Callable[[np.ndarray], np.ndarray]
    gradients: Callable[[np.ndarray], np.ndarray]


def _kepler_h(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    q, p = y[..., :2], y[..., 2:]
    return 0.5 * np.sum(p * p, axis=-1) - 1.0 / np.sqrt(np.sum(q * q, axis=-1))


def _kepler_grad_h(y: np.ndarray) -> np.ndarray:
    # a C-ordered float64 copy of y (module docstring), its q half then
    # overwritten with q / |q|^3, column by column so that no call
    # broadcasts.  np.power keeps the array power for a single state too.
    out = np.array(y, dtype=float, order="C")
    q1, q2 = y[..., 0], y[..., 1]
    r3 = np.power(q1 * q1 + q2 * q2, 1.5)
    np.divide(q1, r3, out[..., 0])
    np.divide(q2, r3, out[..., 1])
    return out


def kepler_problem(eccentricity: float) -> HamiltonianProblem:
    """Planar two-body problem H = |p|^2 / 2 - 1 / |q| started at perihelion.

    The initial state (1 - e, 0, 0, sqrt((1+e)/(1-e))) gives an ellipse of
    eccentricity e with period 2 pi and angular momentum sqrt(1 - e^2).
    """
    if not (_is_real(eccentricity) and 0.0 <= eccentricity < 1.0):
        raise ConfigError(f"eccentricity must lie in [0, 1), got {eccentricity!r}")
    e = float(eccentricity)
    y0 = np.array([1.0 - e, 0.0, 0.0, np.sqrt((1.0 + e) / (1.0 - e))])
    y0.flags.writeable = False
    return HamiltonianProblem(
        name="kepler",
        m=2,
        hamiltonian=_kepler_h,
        grad_h=_kepler_grad_h,
        initial_state=y0,
    )


def _angular_momentum(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    q1, q2, p1, p2 = y[..., 0], y[..., 1], y[..., 2], y[..., 3]
    return q1 * p2 - q2 * p1


# grad L = (p2, -p1, -q2, q1): the state reversed, two entries negated
_L_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])
_L_SIGNS.flags.writeable = False


def _grad_angular_momentum(y: np.ndarray) -> np.ndarray:
    # grad L as the nu = 1 gradient array (..., 4, 1), written in place
    out = np.empty(y.shape + (1,))
    np.multiply(y[..., ::-1], _L_SIGNS, out[..., 0])
    return out


def _lrl_scalar(y: np.ndarray) -> np.ndarray:
    # second component of the Laplace-Runge-Lenz vector, sign chosen so the
    # attractive potential conserves it
    y = np.asarray(y, dtype=float)
    q1, q2, p1 = y[..., 0], y[..., 1], y[..., 2]
    r = np.sqrt(q1 * q1 + q2 * q2)
    return p1 * _angular_momentum(y) + q2 / r


def _grad_angular_momentum_and_lrl(y: np.ndarray) -> np.ndarray:
    # both gradients written into one (..., 4, 2) array.  The LRL entries
    # are p1 p2 - q1 q2 / r^3, q1^2 / r^3 - p1^2, L - p1 q2 and p1 q1, with
    # L = q1 p2 - q2 p1.  Every product y_a y_b (b < 3) comes from one
    # broadcast multiply; each is correctly rounded, so this grouping gives
    # the bits of the entry-by-entry formulas.  r^3 is a power of a
    # component sum, as in those formulas: a single state then takes
    # NumPy's scalar power and a batch its array power, which can differ in
    # the last bit.
    yy = y[..., :, None] * y[..., None, :3]
    r3 = (yy[..., 0, 0] + yy[..., 1, 1]) ** 1.5
    p1q2 = yy[..., 2, 1]
    out = np.empty(y.shape + (2,))
    np.multiply(y[..., ::-1], _L_SIGNS, out[..., 0])
    np.subtract(yy[..., 3, 2], yy[..., 0, 1] / r3, out[..., 0, 1])
    np.subtract(yy[..., 0, 0] / r3, yy[..., 2, 2], out[..., 1, 1])
    np.subtract(yy[..., 3, 0] - p1q2, p1q2, out[..., 2, 1])
    out[..., 3, 1] = yy[..., 2, 0]
    return out


def kepler_invariants(which: str) -> InvariantSet:
    """Conserved quantities of the Kepler flow beyond the Hamiltonian.

    which = "angular_momentum_only" gives nu = 1 (the angular momentum);
    which = "angular_momentum_and_lrl" adds the Laplace-Runge-Lenz scalar.
    """
    if which == "angular_momentum_only":
        return InvariantSet(
            nu=1,
            values=lambda y: _angular_momentum(y)[..., None],
            gradients=_grad_angular_momentum,
        )
    if which == "angular_momentum_and_lrl":
        return InvariantSet(
            nu=2,
            values=lambda y: np.stack([_angular_momentum(y), _lrl_scalar(y)], axis=-1),
            gradients=_grad_angular_momentum_and_lrl,
        )
    raise ConfigError(
        "which must be 'angular_momentum_only' or 'angular_momentum_and_lrl', "
        f"got {which!r}"
    )


def polynomial_oscillator(degree: int) -> HamiltonianProblem:
    """One-degree-of-freedom oscillator H = p^2 / 2 + q^degree / degree, started at (1, 0)."""
    d = _check_count("degree", degree)
    if d not in _DEGREES:
        degrees = ", ".join(map(str, _DEGREES))
        raise ConfigError(f"degree must be one of {degrees}, got {degree!r}")

    # in float64 whatever y's dtype: q**d of an integer q would wrap
    def ham(y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        q, p = y[..., 0], y[..., 1]
        return 0.5 * p * p + q**d / d

    def grad(y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        q, p = y[..., 0], y[..., 1]
        return np.stack([q ** (d - 1), p], axis=-1)

    y0 = np.array([1.0, 0.0])
    y0.flags.writeable = False
    return HamiltonianProblem(
        name=f"oscillator{d}",
        m=1,
        hamiltonian=ham,
        grad_h=grad,
        initial_state=y0,
    )


# Each problem's facts beyond its record, by HamiltonianProblem.name (also its
# --problem value): `build` makes the record from --eccentricity, `invariants`
# holds its invariant sets by --invariants label, the drift CSV reports the set
# labelled `monitored` under the names `monitors`, and the exact flow is back at
# the initial state after each `period`.  A new problem is one entry.
_Facts = namedtuple("_Facts", "build invariants monitored monitors period", defaults=(None, (), None))
_DEGREES = (2, 4, 6, 8)
_PROBLEMS = {
    "kepler": _Facts(
        kepler_problem,
        {"L1": kepler_invariants("angular_momentum_only"),
         "L1L2": kepler_invariants("angular_momentum_and_lrl")},
        monitored="L1L2", monitors=("L1", "L2"), period=2.0 * np.pi,
    ),
    # the oscillators ignore the eccentricity
    **{f"oscillator{d}": _Facts(lambda e, d=d: polynomial_oscillator(d), {}) for d in _DEGREES},
}


def _facts(name: str) -> _Facts:
    return _PROBLEMS.get(name, _Facts(None, {}))


def _invariant_labels() -> tuple:
    return ("none", *dict.fromkeys(label for f in _PROBLEMS.values() for label in f.invariants))


def _named_problem(name: str, eccentricity: float) -> HamiltonianProblem:
    """The record a --problem name gives, built from the checked eccentricity."""
    if not (isinstance(name, str) and name in _PROBLEMS):
        raise ConfigError(f"unknown problem {name!r}")
    return _PROBLEMS[name].build(_check_real("eccentricity", eccentricity))
