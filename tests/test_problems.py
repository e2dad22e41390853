"""Benchmark Hamiltonian systems and their conserved quantities."""

import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from linteg import problems
from linteg.analysis import cost_ratio
from linteg.integrators import MethodConfig, integrate
from linteg.polybasis import gauss_rule, integral_table, legendre_table, xi_coefficient
from linteg.problems import (
    ConfigError,
    HamiltonianProblem,
    InvariantSet,
    _grad_angular_momentum,
    apply_structure,
    kepler_invariants,
    kepler_problem,
    polynomial_oscillator,
)
from linteg.tableau import build_hbvm_tableau, xhat_matrix


def _fd_gradient(f, y, eps=1e-6):
    grad = np.zeros_like(y)
    for i in range(y.size):
        up = y.copy()
        dn = y.copy()
        up[i] += eps
        dn[i] -= eps
        grad[i] = (f(up) - f(dn)) / (2.0 * eps)
    return grad


def _random_states(rng, n):
    # keep the orbit away from the origin so 1/|q| stays well conditioned
    states = rng.uniform(-2.0, 2.0, size=(n, 4))
    states[:, :2] += np.where(states[:, :2] >= 0.0, 0.5, -0.5)
    return states


def test_kepler_initial_values():
    prob = kepler_problem(0.6)
    assert prob.m == 2 and prob.dim == 4
    np.testing.assert_allclose(
        prob.initial_state, [0.4, 0.0, 0.0, 2.0], rtol=0, atol=1e-15
    )
    assert prob.hamiltonian(prob.initial_state) == pytest.approx(-0.5, abs=1e-15)


def test_kepler_initial_state_general_eccentricity():
    eps = 0.37
    prob = kepler_problem(eps)
    q1, q2, p1, p2 = prob.initial_state
    assert q1 == pytest.approx(1.0 - eps)
    assert q2 == 0.0 and p1 == 0.0
    assert p2 == pytest.approx(np.sqrt((1.0 + eps) / (1.0 - eps)))
    # energy of the ellipse with unit semi-major axis
    assert prob.hamiltonian(prob.initial_state) == pytest.approx(-0.5, abs=1e-14)


def test_kepler_eccentricity_validation():
    # a configuration error, and so still a ValueError; a string, None or a
    # bool is no eccentricity, not a bare TypeError or e = 0
    for e in (1.0, -0.1, np.nan, "0.5", None, False, True):
        with pytest.raises(ConfigError) as info:
            kepler_problem(e)
        assert str(info.value) == f"eccentricity must lie in [0, 1), got {e!r}"
        assert isinstance(info.value, ValueError)
    kepler_problem(0.0)
    kepler_problem(0)
    np.testing.assert_array_equal(
        kepler_problem(np.float64(0.5)).initial_state, kepler_problem(0.5).initial_state
    )


def test_kepler_invariant_values_at_start():
    prob = kepler_problem(0.6)
    inv = kepler_invariants("angular_momentum_and_lrl")
    assert inv.nu == 2
    values = inv.values(prob.initial_state)
    assert values.shape == (2,)
    assert values[0] == pytest.approx(0.8, abs=1e-15)
    assert values[1] == pytest.approx(0.0, abs=1e-15)


def test_kepler_invariants_selection():
    one = kepler_invariants("angular_momentum_only")
    assert one.nu == 1
    with pytest.raises(ConfigError, match="^which must be") as info:
        kepler_invariants("everything")
    assert isinstance(info.value, ValueError)


def test_kepler_gradients_match_finite_differences():
    prob = kepler_problem(0.6)
    inv = kepler_invariants("angular_momentum_and_lrl")
    rng = np.random.default_rng(42)
    for y in _random_states(rng, 6):
        np.testing.assert_allclose(
            prob.grad_h(y), _fd_gradient(prob.hamiltonian, y), rtol=0, atol=1e-8
        )
        grads = inv.gradients(y)
        assert grads.shape == (4, 2)
        for v in range(2):
            fd = _fd_gradient(lambda z, v=v: inv.values(z)[v], y)
            np.testing.assert_allclose(grads[:, v], fd, rtol=0, atol=1e-7)


def _per_entry_lrl_gradient(y):
    # the LRL gradient one entry at a time, each product and quotient
    # formed on its own: the reference for the grouped form in problems
    q1, q2, p1, p2 = y[..., 0], y[..., 1], y[..., 2], y[..., 3]
    q1q1 = q1 * q1
    r3 = (q1q1 + q2 * q2) ** 1.5
    p1q2 = p1 * q2
    out = np.empty(y.shape)
    np.subtract(p1 * p2, q1 * q2 / r3, out=out[..., 0])
    np.subtract(q1q1 / r3, p1 * p1, out=out[..., 1])
    np.subtract(q1 * p2 - p1q2, p1q2, out=out[..., 2])
    np.multiply(p1, q1, out=out[..., 3])
    return out


def test_paired_gradients_equal_stacked_single_gradients():
    # the L + LRL gradient groups its products and quotients into a few
    # NumPy calls; it must be grad L and the per-entry LRL gradient stacked
    # on the last axis, bit for bit, and C-ordered, for batches in either
    # layout and for single states
    inv = kepler_invariants("angular_momentum_and_lrl")
    rng = np.random.default_rng(7)
    for _ in range(200):
        batch = _random_states(rng, 12) * 10.0 ** rng.integers(-3, 4, (12, 4))
        inputs = [
            batch, np.asfortranarray(batch), batch[:6].reshape(2, 3, 4),
            batch[0], np.asfortranarray(batch)[5],
        ]
        for y in inputs:
            expected = np.stack([_grad_angular_momentum(y)[..., 0], _per_entry_lrl_gradient(y)], -1)
            got = inv.gradients(y)
            assert got.shape == y.shape + (2,)
            assert got.flags.c_contiguous
            assert got.tobytes() == expected.tobytes()


def _textbook_kepler(y):
    # grad H, J grad H, grad L and grad A as plain formulas
    q, p = y[..., :2], y[..., 2:]
    r3 = np.sum(q * q, axis=-1, keepdims=True) ** 1.5
    grad_h = np.concatenate([q / r3, p], axis=-1)
    field = np.concatenate([p, -(q / r3)], axis=-1)
    q1, q2, p1, p2 = y[..., 0], y[..., 1], y[..., 2], y[..., 3]
    grad_l = np.stack([p2, -p1, -q2, q1], axis=-1)
    r3 = (q1 * q1 + q2 * q2) ** 1.5
    ell = q1 * p2 - q2 * p1
    grad_a = np.stack(
        [p1 * p2 - q1 * q2 / r3, -p1 * p1 + q1 * q1 / r3, ell - p1 * q2, p1 * q1], axis=-1
    )
    return grad_h, field, grad_l, grad_a


def test_kepler_callables_match_textbook_formulas_bitwise():
    # the problem and invariant callables may compute in any layout but
    # must give the textbook values bit for bit, for single states,
    # batches and strided or Fortran-ordered inputs alike
    prob = kepler_problem(0.6)
    only_l = kepler_invariants("angular_momentum_only")
    both = kepler_invariants("angular_momentum_and_lrl")
    rng = np.random.default_rng(23)
    U = _random_states(rng, 60).reshape(5, 12, 4)
    # single states take NumPy's scalar power and batches its array power,
    # which differ in the last bit for about one r^3 in twenty: hence 60 of them
    inputs = list(U.reshape(-1, 4)) + [
        U[0], U,
        U[0][::-1], np.asfortranarray(U[0]), U[0][-8:],
        U[::-1, ::2], np.asfortranarray(U), U[..., 1, :],
    ]
    for y in inputs:
        grad_h, field, grad_l, grad_a = _textbook_kepler(y)
        got = [
            prob.grad_h(y), prob.vector_field(y), only_l.gradients(y), both.gradients(y),
        ]
        expected = [grad_h, field, grad_l[..., None], np.stack([grad_l, grad_a], axis=-1)]
        for g, e in zip(got, expected):
            assert g.shape == e.shape
            assert g.tobytes() == e.tobytes()


def test_invariants_commute_with_flow():
    # gradient of each invariant is orthogonal to the vector field
    prob = kepler_problem(0.6)
    inv = kepler_invariants("angular_momentum_and_lrl")
    rng = np.random.default_rng(7)
    for y in _random_states(rng, 10):
        f = prob.vector_field(y)
        dots = inv.gradients(y).T @ f
        np.testing.assert_allclose(dots, 0.0, atol=1e-12)


def test_invariants_constant_along_orbit():
    # sanity on actual dynamics: invariants stay fixed under a short
    # high-order integration
    from linteg.integrators import MethodConfig, integrate

    prob = kepler_problem(0.6)
    inv = kepler_invariants("angular_momentum_and_lrl")
    traj = integrate(prob, None, MethodConfig(s=6, k=12), h=0.02, n_steps=200)
    values = np.array([inv.values(y) for y in traj.states])
    np.testing.assert_allclose(values[:, 0], 0.8, rtol=0, atol=1e-11)
    np.testing.assert_allclose(values[:, 1], 0.0, rtol=0, atol=1e-11)


def test_apply_structure():
    grad = np.array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(apply_structure(grad, 2), [3.0, 4.0, -1.0, -2.0])
    # J is skew: f . grad = 0
    rng = np.random.default_rng(3)
    g = rng.standard_normal((5, 6))
    f = apply_structure(g, 3)
    np.testing.assert_allclose(np.sum(f * g, axis=-1), 0.0, atol=1e-12)


def test_vector_field_is_structure_applied_gradient():
    prob = kepler_problem(0.6)
    rng = np.random.default_rng(11)
    states = _random_states(rng, 5)
    np.testing.assert_array_equal(
        prob.vector_field(states), apply_structure(prob.grad_h(states), 2)
    )


def test_batched_evaluation():
    prob = kepler_problem(0.6)
    inv = kepler_invariants("angular_momentum_and_lrl")
    rng = np.random.default_rng(19)
    states = _random_states(rng, 8).reshape(2, 4, 4)
    h_batch = prob.hamiltonian(states)
    assert h_batch.shape == (2, 4)
    grads = inv.gradients(states)
    assert grads.shape == (2, 4, 4, 2)
    for i in range(2):
        for j in range(4):
            assert h_batch[i, j] == pytest.approx(
                prob.hamiltonian(states[i, j]), abs=1e-15
            )
            np.testing.assert_array_equal(grads[i, j], inv.gradients(states[i, j]))


@pytest.mark.parametrize("degree", [2, 4, 6, 8])
def test_polynomial_oscillator(degree):
    prob = polynomial_oscillator(degree)
    assert prob.name == f"oscillator{degree}"
    assert prob.m == 1 and prob.dim == 2
    np.testing.assert_array_equal(prob.initial_state, [1.0, 0.0])
    y = np.array([0.7, -1.3])
    expected = 0.5 * 1.3**2 + 0.7**degree / degree
    assert prob.hamiltonian(y) == pytest.approx(expected, rel=1e-15)
    np.testing.assert_allclose(
        prob.grad_h(y), _fd_gradient(prob.hamiltonian, y), rtol=0, atol=1e-7
    )


def test_polynomial_oscillator_validation():
    for degree in (3, 0):
        with pytest.raises(ConfigError, match="^degree must be one of 2, 4, 6, 8") as info:
            polynomial_oscillator(degree)
        assert isinstance(info.value, ValueError)
    # a degree is a count, as everywhere else: no float, string or bool
    for degree in (4.0, "4", True):
        with pytest.raises(ConfigError) as info:
            polynomial_oscillator(degree)
        assert str(info.value) == f"degree must be an integer, got {degree!r}"
    assert polynomial_oscillator(np.int64(4)).name == "oscillator4"


_COST_COUNTS = ("r1", "k1", "r2", "k2", "nu")
# every public count argument: (function, its other arguments, the count's name, its least value)
_COUNT_ARGUMENTS = [
    (gauss_rule, {}, "n", 1),
    (legendre_table, {"x": [0.5]}, "n_max", 0),
    (integral_table, {"c": [0.5]}, "n_max", 0),
    (xi_coefficient, {}, "i", 1),
    (build_hbvm_tableau, {"s": 2}, "k", 2),
    (build_hbvm_tableau, {"k": 3}, "s", 1),
    (xhat_matrix, {}, "s", 1),
    *[(cost_ratio, {other: 1 if other == "nu" else 12 for other in _COST_COUNTS if other != name},
       name, 0 if name == "nu" else 1) for name in _COST_COUNTS],
    (polynomial_oscillator, {}, "degree", 2),
    (partial(integrate, kepler_problem(0.6), None, MethodConfig(3, 3), 0.1), {}, "n_steps", 1),
]


@pytest.mark.parametrize(
    "function, others, name, least", _COUNT_ARGUMENTS,
    ids=[f"{getattr(f, '__name__', 'integrate')}-{name}" for f, _, name, _ in _COUNT_ARGUMENTS],
)
def test_every_count_argument_is_an_integer_checked_by_one_rule(function, others, name, least):
    # a float, even a whole one, and a bool are no counts
    for value in (2.0, True):
        with pytest.raises(ConfigError, match=f"^{name} must be an integer, got {value!r}$"):
            function(**others, **{name: value})
    # below its least value: "need n >= 1, got n=0", or for k the pair rule
    # k >= s and for degree the list of degrees, each naming the argument
    with pytest.raises(ConfigError, match=f"^(need )?{name} ") as info:
        function(**others, **{name: least - 1})
    if name not in ("k", "degree"):
        assert str(info.value) == f"need {name} >= {least}, got {name}={least - 1}"


@pytest.mark.parametrize(
    "function, others, name, least", _COUNT_ARGUMENTS,
    ids=[f"{getattr(f, '__name__', 'integrate')}-{name}" for f, _, name, _ in _COUNT_ARGUMENTS],
)
def test_a_count_no_array_dimension_holds_fails_by_name(function, others, name, least):
    # NumPy refuses such a dimension with a bare ValueError, and a float
    # conversion of 10**400 overflows; the count rule names the argument
    for value in (2**63, np.uint64(2**64 - 1), 10**400):
        with pytest.raises(ConfigError, match=f"^{name} is too large for an array dimension$"):
            function(**others, **{name: value})


def test_apply_structure_checks_its_half_dimension():
    # m is a count, and the gradients' last axis has length 2m
    for m, message in (
        (2.0, "m must be an integer, got 2.0"),
        (0, "need m >= 1, got m=0"),
        (3, "gradients of shape (4,) do not have length 2m = 6"),
    ):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            apply_structure(np.zeros(4), m)
    # and so does a run of a problem record: a NumPy m is used as its int
    prob = kepler_problem(0.6)
    with pytest.raises(ConfigError, match="^m must be an integer, got 2.0$"):
        integrate(replace(prob, m=2.0), None, MethodConfig(3, 12), 0.1, 2)
    run = [None, MethodConfig(3, 12), 0.1, 2]
    narrow = integrate(replace(prob, m=np.int8(2)), *run)
    assert narrow.states.tobytes() == integrate(prob, *run).states.tobytes()


def test_every_problem_name_is_one_table_entry():
    # the oscillators are entries too, and build whatever the eccentricity
    assert list(problems._PROBLEMS) == ["kepler", *(f"oscillator{d}" for d in (2, 4, 6, 8))]
    for name in problems._PROBLEMS:
        assert problems._named_problem(name, 0.6).name == name
    far = problems._named_problem("oscillator4", 5.0)
    np.testing.assert_array_equal(far.initial_state, [1.0, 0.0])
    for name in ("oscillator3", "oscillator02", "oscillator", 4, None):
        with pytest.raises(ConfigError, match=f"^unknown problem {re.escape(repr(name))}$"):
            problems._named_problem(name, 0.6)
    # the eccentricity is a real number even where the problem ignores it
    with pytest.raises(ConfigError, match="^eccentricity must be a real number, got '0.6'$"):
        problems._named_problem("oscillator2", "0.6")


def _shipped_problems():
    return [kepler_problem(0.6)] + [polynomial_oscillator(d) for d in (2, 4, 6, 8)]


def _shipped_invariants():
    return [kepler_invariants("angular_momentum_only"), kepler_invariants("angular_momentum_and_lrl")]


def test_gradients_do_not_depend_on_input_layout():
    # the stepper passes column-major stage arrays, stacked ones sliced into
    # their k-node and r-node rows; each gradient must give the bits of a
    # C-ordered input and come back C-ordered, which fixes how the
    # stepper's PTB @ grad sums (module docstring)
    rng = np.random.default_rng(31)
    for prob in _shipped_problems():
        callables = [prob.grad_h]
        if prob.m == 2:
            callables += [inv.gradients for inv in _shipped_invariants()]
        stacked = _random_states(rng, 28)[:, : prob.dim]
        F = np.asfortranarray(stacked)
        # every entry 16 bytes from the next: strided in both axes
        interleaved = np.stack([stacked, -stacked], axis=-1)[..., 0]
        for fn in callables:
            expected = fn(stacked[-16:])
            assert expected.flags.c_contiguous
            for y in (F[-16:], np.asfortranarray(stacked[-16:]), interleaved[-16:]):
                got = fn(y)
                assert got.flags.c_contiguous
                assert got.tobytes() == expected.tobytes()
            # rows of a strided stack: every other row, and the first 8 of the F array
            assert fn(F[-16::2]).tobytes() == fn(stacked[-16::2]).tobytes()
            assert fn(F[-8:]).tobytes() == fn(stacked[-8:]).tobytes()
            assert fn(F[:12]).tobytes() == fn(stacked[:12]).tobytes()


def test_callables_return_float64_for_integer_states():
    # an integer state is evaluated in float64: the oscillators' q**degree
    # must not wrap around in int64
    kepler_state = np.array([[3, -4, 2, 5], [1, 2, -7, 1]])
    oscillator_state = np.array([[1000, 0], [-3, 7]])
    for prob in _shipped_problems():
        y = kepler_state if prob.m == 2 else oscillator_state
        callables = [prob.hamiltonian, prob.grad_h, prob.vector_field]
        if prob.m == 2:
            for inv in _shipped_invariants():
                callables += [inv.values, inv.gradients]
        for fn in callables:
            for state in (y, y[0]):
                got = fn(state)
                expected = fn(state.astype(float))
                assert got.dtype == np.float64
                assert got.tobytes() == expected.tobytes()
    assert polynomial_oscillator(8).grad_h(np.array([1000, 0]))[0] == 1e21
    assert polynomial_oscillator(8).hamiltonian(np.array([1000, 0])) == 1.25e23
