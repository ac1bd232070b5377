import ast
import math
import time

import numpy as np
import pytest

from ptstack import (
    Layer,
    PeriodicSpec,
    PotentialStack,
    TransferMatrix,
    barrier_matrix,
    build_alternating,
    incidence_scattering,
    integrate_transfer_matrix,
    periodic_matrix,
    scattering_from_matrix,
    slab_propagation_matrix,
    unit_cell_matrix,
)
from ptstack import dop853, oracle
from ptstack.commands.oracle_check import ORACLE_GRID_K, ORACLE_GRID_N, ORACLE_GRID_V
from conftest import entry_diff, scaled_diff

def cell_stack(v, b):
    return PotentialStack([Layer(1j * v, b, 0.0), Layer(-1j * v, b, b)])


def test_empty_stack_is_identity():
    m = integrate_transfer_matrix(PotentialStack([]), 2.0)
    assert entry_diff(m, TransferMatrix.identity(2.0)) <= 1e-10
    assert entry_diff(slab_propagation_matrix(PotentialStack([]), 2.0), m) <= 1e-10


def test_single_real_barrier_matches_closed_form():
    stack = PotentialStack([Layer(10.0, 0.5, 0.2)])
    ref = barrier_matrix(1.0, 10.0, 0.5, 0.2)
    assert entry_diff(integrate_transfer_matrix(stack, 1.0), ref) <= 1e-8
    assert entry_diff(slab_propagation_matrix(stack, 1.0), ref) <= 1e-12


def test_unit_cell_matches_closed_form():
    # Primary validation of the cell element formulas.
    for (k, v, b) in ((1.0, 40.0, 0.05), (2.0, 40.0, 0.1), (5.0, 1.0, 0.5)):
        ref = unit_cell_matrix(k, v, b)
        ode = integrate_transfer_matrix(cell_stack(v, b), k)
        assert entry_diff(ode, ref) <= 1e-8


def test_tiers_agree_scaled():
    for (k, v, b) in ((0.5, 100.0, 0.5), (1.0, 40.0, 0.05), (10.0, 1.0, 0.01)):
        stack = cell_stack(v, b)
        ode = integrate_transfer_matrix(stack, k)
        slab = slab_propagation_matrix(stack, k)
        assert scaled_diff(ode, slab) <= 1e-9


def test_gapped_heterogeneous_stack_both_tiers():
    stack = PotentialStack(
        [Layer(3.0 - 7.0j, 0.3, -0.5), Layer(12.0, 0.25, 0.1), Layer(2.0j, 0.4, 0.8)]
    )
    for k in (0.9, 4.2):
        ode = integrate_transfer_matrix(stack, k)
        slab = slab_propagation_matrix(stack, k)
        assert scaled_diff(ode, slab) <= 1e-9
        assert abs(slab.det - 1.0) <= 1e-11


def test_incidence_empty_stack():
    t, r = incidence_scattering(PotentialStack([]), 1.0)
    assert t == 1.0
    assert r == 0.0


def test_incidence_side_validation():
    with pytest.raises(ValueError):
        incidence_scattering(cell_stack(1.0, 0.1), 1.0, side="up")


def test_incidence_left_right_transmission_equal():
    for (k, v, b) in ((0.5, 40.0, 0.05), (2.0, 100.0, 0.2), (7.0, 1.0, 0.5)):
        stack = cell_stack(v, b)
        t_l, _ = incidence_scattering(stack, k, "left")
        t_r, _ = incidence_scattering(stack, k, "right")
        assert abs(t_l - t_r) <= 1e-8


def test_incidence_matches_matrix_route():
    k, v, b = 1.0, 40.0, 0.05
    stack = cell_stack(v, b)
    coeffs = scattering_from_matrix(unit_cell_matrix(k, v, b))
    t_l, r_l = incidence_scattering(stack, k, "left")
    t_r, r_r = incidence_scattering(stack, k, "right")
    assert abs(t_l - coeffs.t) <= 1e-10
    assert abs(t_r - coeffs.t) <= 1e-10
    assert abs(r_l - coeffs.r_left) <= 1e-10
    assert abs(r_r - coeffs.r_right) <= 1e-10


def test_ode_vs_closed_form_midsize_stack():
    # Spot checks of the invariant grid at its largest N values.
    for (k, v, n) in ((2.0, 40.0, 16), (5.0, 1.0, 64)):
        stack = build_alternating(0.0, v, 1.0, n, 1.0)
        closed = periodic_matrix(PeriodicSpec(v=v, n_cells=n, total_length=1.0), k)
        ode = integrate_transfer_matrix(stack, k)
        assert scaled_diff(ode, closed) <= 1e-7


def test_end_to_end_pt_stack_n500():
    # ODE through 1000 slabs against the closed-form route.  Kept at N=500:
    # the ODE tier is O(N) and is never run above N=1e3 in this suite.
    k, v, n = 5.0, 40.0, 500
    stack = build_alternating(0.0, v, 1.0, n, 1.0)
    coeffs = scattering_from_matrix(periodic_matrix(PeriodicSpec(v=v, n_cells=n, total_length=1.0), k))
    t_l, r_l = incidence_scattering(stack, k, "left")
    assert abs(t_l - coeffs.t) <= 1e-7
    assert abs(r_l - coeffs.r_left) <= 1e-7


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_integration_failure_raises():
    # A potential this stiff pushes the required step below the spacing of
    # floating-point numbers, which the controller reports as failure.
    from ptstack import IntegrationFailureError

    stack = PotentialStack([Layer(1e200, 1e-3, 0.0)])
    with pytest.raises(IntegrationFailureError, match="step size"):
        integrate_transfer_matrix(stack, 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_evanescent_segment_fails_fast():
    # psi grows like e^(100 x) across the 100 wide barrier and leaves the
    # double range near x = 7: the overflowing steps are rejected until the
    # step floor is reached, without a floating-point warning.
    from ptstack import IntegrationFailureError

    stack = PotentialStack([Layer(1e4, 100.0, 0.0)])
    start = time.perf_counter()
    with pytest.raises(IntegrationFailureError, match="step size"):
        integrate_transfer_matrix(stack, 1.0)
    assert time.perf_counter() - start < 5.0


def _rhs(w2):
    # (psi, psi')' = (psi', w2 psi) for every pair; the state is a list (ours)
    # or an array (scipy's), the result a list, which scipy takes as well.
    def rhs(x, state):
        out = []
        for psi, dpsi in zip(state[0::2], state[1::2]):
            out += (dpsi, w2 * psi)
        return out

    return rhs


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_modulus_fails_without_an_exception():
    # Python's abs of this start state raises OverflowError (|y| is past the
    # double range although both parts are finite); the integrator reports it
    # as the step-size failure its docstring promises.
    sol = oracle.solve_ivp(1e4, (0.0, 1.0), [1.3e308 * (1 + 1j), 0j])
    assert not sol.success
    assert "step size" in sol.message


@pytest.mark.parametrize("y0", [[1, 1j, 1], []], ids=["odd", "empty"])
def test_state_that_is_not_pairs_is_a_value_error(y0):
    with pytest.raises(ValueError) as raised:
        dop853.integrate(-1.0, (0.0, 1.0), y0)
    assert str(raised.value) == f"the state must be (psi, psi') pairs, got {len(y0)} entries"


def _oracle_grid_chains():
    """Segments, as (w2, x_span), and start state of every chain the ODE tier
    integrates on the oracle-check grid: forward with both plane waves,
    backward with the outgoing one."""
    for v in ORACLE_GRID_V:
        for n in ORACLE_GRID_N:
            segments = oracle._segments(build_alternating(0.0, v, 1.0, n, 1.0))
            for k in ORACLE_GRID_K:
                forward = [(h - k * k, (x0, x1)) for x0, x1, h in segments]
                backward = [(h - k * k, (x1, x0)) for x0, x1, h in reversed(segments)]
                yield forward, np.array([1, 1j * k, 1, -1j * k])
                yield backward, np.exp(1j * k) * np.array([1, 1j * k])


def _random_segments(rng, count):
    """Seeded segments of random complex height, width and k, both ways."""
    kinds = set()
    for i in range(count):
        height = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
        width = 10 ** rng.uniform(-3, 0.5)
        k = 10 ** rng.uniform(-1, 1.2)
        kinds.add("evanescent" if height.real > k * k else "oscillatory")
        x0 = rng.uniform(-1, 1)
        span = (x0, x0 + width) if i % 2 == 0 else (x0 + width, x0)
        size = 4 if i % 2 == 0 else 2
        yield [(height - k * k, span)], rng.normal(size=size) + 1j * rng.normal(size=size)
    assert kinds == {"evanescent", "oscillatory"}


def test_dop853_takes_scipys_steps(rng):
    # The built-in integrator is scipy's DOP853 at the tier's tolerances:
    # the same right-hand-side calls and the same end state up to rounding.
    # Along a chain, each segment starts from scipy's end state of the last.
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    # A zero state has zero derivatives: the starting step is the fallback
    # max(1e-6, h0 / 1000) of Hairer, Norsett & Wanner, both ways.
    zero = ([(-9.0, (0.0, 1.0)), (16.0 + 3.0j, (1.0, 0.25))], [0j, 0j])
    count = 0
    for chain, y in [*_oracle_grid_chains(), *_random_segments(rng, 300), zero]:
        for w2, span in chain:
            ours = oracle.solve_ivp(w2, span, y)
            theirs = scipy_solve_ivp(_rhs(w2), span, y, method="DOP853", rtol=dop853.REL_TOL, atol=dop853.ABS_TOL)
            assert ours.success and theirs.success
            assert ours.nfev == theirs.nfev, span
            y = theirs.y[:, -1]
            scale = max(1.0, np.max(np.abs(ours.y)), np.max(np.abs(y)))
            assert np.max(np.abs(ours.y - y)) <= 1e-14 * scale, span
            count += 1
    assert count == 300 + 2 + 4 * sum(ORACLE_GRID_N) * len(ORACLE_GRID_V) * len(ORACLE_GRID_K)


# A DOP853 step as a loop over the tableau of ptstack.dop853: the reference
# that its generated step must match bit for bit.
def _loop_advance(y, h, terms, k):
    """y + h sum_j w_j k_j entry by entry, over the (j, w_j) terms in stage order."""
    total = []
    for i, y_i in enumerate(y):
        acc = 0j
        for j, w in terms:
            acc += w * k[j][i]
        total.append(y_i + acc * h)
    return total


def _loop_rk_step(fun, x, y, f, h):
    """(y_new, f_new, k), k the twelve stages."""
    k = [f]
    for s in range(1, dop853._STAGES):
        k.append(fun(x + dop853._C[s] * h, _loop_advance(y, h, dop853._A_TERMS[s], k)))
    y_new = _loop_advance(y, h, dop853._B_TERMS, k)
    return y_new, fun(x + h, y_new), k


def _loop_error_scale(*states) -> list:
    """ABS_TOL + REL_TOL * the largest |y| of the states, entry by entry."""
    return [dop853.ABS_TOL + max(map(abs, entries)) * dop853.REL_TOL for entries in zip(*states)]


def _loop_error_norm(k, h, scale):
    zero = [0j] * len(scale)  # the estimates are plain sums: y = 0, h = 1
    err5_2 = dop853._norm(_loop_advance(zero, 1.0, dop853._E5_TERMS, k), scale) ** 2
    err3_2 = dop853._norm(_loop_advance(zero, 1.0, dop853._E3_TERMS, k), scale) ** 2
    if err5_2 == 0 and err3_2 == 0:
        return 0.0
    return abs(h) * err5_2 / math.sqrt((err5_2 + 0.01 * err3_2) * len(scale))


def _loop_integrate(w2, x_span, y0):
    """dop853.integrate with the loop step; also returns the count of
    rejected steps."""
    fun = _rhs(w2)
    rejections = 0
    x, x_end = float(x_span[0]), float(x_span[1])
    y = list(map(complex, y0))
    direction = 1.0 if x_end > x else -1.0
    f = fun(x, y)
    nfev = 1
    if x != x_end:
        try:
            h_abs = dop853._initial_step(w2, y, abs(x_end - x), direction)
        except ArithmeticError:
            h_abs = math.nan
        nfev += 1
    while direction * (x - x_end) < 0:
        min_step = dop853._STEP_FLOOR_ULPS * abs(math.nextafter(x, direction * math.inf) - x)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:
                message = f"required step size fell below {dop853._STEP_FLOOR_ULPS} ulps of x = {x}"
                return dop853.OdeResult(y, nfev, False, message), rejections
            x_new = x + h_abs * direction
            if direction * (x_new - x_end) > 0:
                x_new = x_end
            h = x_new - x
            h_abs = abs(h)
            try:
                y_new, f_new, k = _loop_rk_step(fun, x, y, f, h)
                error_norm = _loop_error_norm(k, h, _loop_error_scale(y, y_new))
            except ArithmeticError:
                error_norm = math.inf
            nfev += dop853._STAGES
            if error_norm < 1:
                factor = dop853._MAX_FACTOR
                if error_norm > 0:
                    factor = min(dop853._MAX_FACTOR, dop853._SAFETY * error_norm**dop853._ERROR_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(dop853._MIN_FACTOR, dop853._SAFETY * error_norm**dop853._ERROR_EXPONENT)
            rejected = True
            rejections += 1
        x, y, f = x_new, y_new, f_new
    return dop853.OdeResult(y, nfev, True, ""), rejections


def _chains_of_pairs(rng, count):
    """Seeded chains of three segments of random complex height and width,
    for states of one, two and three (psi, psi') pairs, both ways."""
    for i in range(count):
        size = 2 * (1 + i % 3)
        k = 10 ** rng.uniform(-1, 1)
        edges = np.cumsum(10 ** rng.uniform(-2, 0, size=4)).tolist()
        heights = (rng.uniform(-50, 50, size=3) + 1j * rng.uniform(-50, 50, size=3)).tolist()
        chain = [(h - k * k, (x0, x1)) for x0, x1, h in zip(edges, edges[1:], heights)]
        if i % 6 >= 3:
            chain = [(w2, (x1, x0)) for w2, (x0, x1) in reversed(chain)]
        yield chain, rng.normal(size=size) + 1j * rng.normal(size=size)


def test_generated_step_is_the_loop_bit_for_bit(rng):
    # End state, nfev, success and message with no tolerance; repr tells the
    # sign of a zero apart.  Along a chain, each segment starts from the
    # loop's end state of the last.
    chains = [
        *_oracle_grid_chains(),
        *_random_segments(rng, 300),
        *_chains_of_pairs(rng, 30),
        # steps rejected before the floor stops a too-stiff segment
        ([(1e200 - 1.0, (0.0, 1e-3))], [1, 1j, 1, -1j]),
        # a state that overflows inside a step: abs raises, the step is rejected
        ([(1e4 - 1.0, (0.0, 100.0))], [1, 1j, 1, -1j]),
        # abs of the start state overflows: a NaN starting step
        ([(1e4, (0.0, 1.0))], [1.3e308 * (1 + 1j), 0j]),
    ]
    outcomes, rejections, sizes = set(), 0, set()
    for chain, y in chains:
        for w2, span in chain:
            ours = oracle.solve_ivp(w2, span, y)
            loop, rejected = _loop_integrate(w2, span, y)
            assert ours == loop, span
            assert repr(ours.y) == repr(loop.y), span
            outcomes.add(loop.success)
            rejections += rejected
            sizes.add(len(y))
            y = loop.y
    assert outcomes == {True, False}
    assert rejections > 0
    assert sizes == {2, 4, 6}


@pytest.mark.parametrize("w2", [-9.0, -1.0, 0.0, 1.0, 4.0])
@pytest.mark.parametrize(
    "y",
    [
        [complex(1, -0.0), complex(0.5, -0.0)],
        [complex(-1, -0.0), complex(0.25, -0.0)],
        [complex(2, -0.0), complex(-0.5, -0.0), complex(1, -0.0), complex(1, -0.0)],
    ],
)
def test_generated_step_differs_from_the_loop_only_in_zero_signs(w2, y):
    # A start state whose -0.0 imaginary parts stay zero: CPython's float *
    # complex in the loop's `acc * h` adds `- acc.imag * 0.0`, which the
    # generated step leaves out, so an end part may be -0.0 in one and +0.0
    # in the other.  Every other part, nfev, success and message agree.
    ours = oracle.solve_ivp(w2, (1.0, 0.0), y)
    loop, _ = _loop_integrate(w2, (1.0, 0.0), y)
    assert ours == loop
    for z, w in zip(ours.y, loop.y):
        for a, b in ((z.real, w.real), (z.imag, w.imag)):
            assert repr(a) == repr(b) or a == b == 0.0, (z, w)


def test_error_scale_is_complex_abs():
    # The error scale takes Python's complex abs, as the loop does; libm's
    # hypot behind it and math.hypot round the modulus of z differently, and
    # the error norm of this step tells the two apart.
    z = complex(-0.16631584095915833, -0.15736679092143152)
    if abs(z) == math.hypot(z.real, z.imag):
        pytest.skip("this libm's hypot rounds |z| as math.hypot does")
    y, h, w2 = [z, 0.01 + 0j], 0.1, -1.0
    fun = _rhs(w2)
    y_new, _, k = _loop_rk_step(fun, 0.0, y, fun(0.0, y), h)
    error_norm = _loop_error_norm(k, h, _loop_error_scale(y, y_new))
    assert dop853._step(y, h, w2, 0.0) == (y_new, error_norm)


def test_error_norm_is_one_hypot_over_every_pair(monkeypatch):
    # Each error norm is one hypot over the scaled parts of every entry, in
    # entry order, as in the loop.  On this 2-pair state the hypot of the
    # per-pair norms differs in its last bits, so a step that took the norm
    # pair by pair would fail.
    y, h, w2 = [0.26 + 0.45j, -0.41 + 0.49j, 0.79 + 0.95j, 0.93j], 0.05, -1.0
    fun = _rhs(w2)
    y_new, _, k = _loop_rk_step(fun, 0.0, y, fun(0.0, y), h)
    scale = _loop_error_scale(y, y_new)
    error_norm = _loop_error_norm(k, h, scale)
    norm = dop853._norm

    def per_pair(x, scale):
        return math.hypot(*(norm(x[i:i + 2], scale[i:i + 2]) for i in range(0, len(x), 2)))

    monkeypatch.setattr(dop853, "_norm", per_pair)
    assert _loop_error_norm(k, h, scale) != error_norm
    monkeypatch.undo()
    assert dop853._step(y, h, w2, 0.0) == (y_new, error_norm)


def test_one_generated_step_serves_every_number_of_pairs(monkeypatch):
    # One step, compiled once, advances states of 1, 2 and 3 pairs.  Its only
    # loop is the one over the pairs; the rest is float arithmetic with no
    # sum() and no call but the error scale's abs, the new state's complex
    # and the norm's hypot and sqrt.
    source = dop853._step_source()
    tree = ast.parse(source)
    (loop,) = [node for node in ast.walk(tree) if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    assert isinstance(loop, ast.For) and loop.iter.func.id == "range" and ast.literal_eval(loop.iter.args[2]) == 2
    header = set(ast.walk(loop.iter))
    calls = {node.func.id for node in ast.walk(tree) if isinstance(node, ast.Call) and node not in header}
    assert calls == {"abs", "complex", "hypot", "sqrt"}
    assert "sum(" not in source
    step, sizes = dop853._step, []

    def spy(y, *args):
        sizes.append(len(y))
        return step(y, *args)

    monkeypatch.setattr(dop853, "_step", spy)
    for pairs in (1, 2, 3):
        assert oracle.solve_ivp(-4.0, (0.0, 1.0), [1, 2j] * pairs).success
    assert set(sizes) == {2, 4, 6}
