"""Property tests of the closed forms over log-uniform inputs."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptstack import (
    NonFiniteMatrixError, PeriodicSpec, alternating_matrix, build_alternating, periodic_matrix,
    scattering_from_matrix, transmission_surface,
)
from ptstack.oracle import slab_propagation_matrix
from conftest import scaled_diff


def log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


# v1 of either sign or exactly 0 (the balanced-height family).
V1 = st.one_of(st.just(0.0), st.tuples(st.sampled_from((-1.0, 1.0)), log_uniform(-2, 2)).map(
    lambda pair: pair[0] * pair[1]
))
# N <= 4096, log-uniform.
N_CELLS = st.floats(0.0, math.log10(4096)).map(lambda e: int(round(10.0 ** e)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    v1=V1,
    v2=log_uniform(-2, 2),
    eps=st.floats(-1.5, 1.5),
    # k >= 0.1.  The reference multiplies each slab's exact (psi, psi')
    # propagator and turns to plane waves only at the outer edges, so its
    # rounding does not grow like 1/k^2, as the product of plane-wave slab
    # matrices (compose_stack) does: at v1 = -100, v2 = 1, N = 4096,
    # L = 3.16, k = 0.1 that product is 1.8e-10 from the closed form and
    # the propagator product 3.7e-12.  The closed form itself stays within
    # 1e-13 of an mpmath product
    # (tests/test_stack.py::test_alternating_matches_high_precision_power).
    k=log_uniform(-1, 1.3),
    total_length=log_uniform(-1, 0.5),
    n=N_CELLS,
)
def test_alternating_matches_slab_product(v1, v2, eps, k, total_length, n):
    m = alternating_matrix(v1, v2, eps, n, total_length, k)
    product = slab_propagation_matrix(build_alternating(v1, v2, eps, n, total_length), k)
    assert scaled_diff(m, product) <= 1e-10
    # t from the left is 1/m22, from the right det/m22: they agree as far as
    # the determinant is resolvable, ~eps * (|m11 m22| + |m12 m21|).
    t_left, t_right = 1.0 / m.m22, m.det / m.m22
    resolvable = abs(m.m11 * m.m22) + abs(m.m12 * m.m21)
    assert abs(t_left - t_right) <= 1e-12 * resolvable * abs(t_left)


def _matrix_or_overflow(closed_form, *args):
    try:
        return closed_form(*args)
    except NonFiniteMatrixError:
        return None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    v=log_uniform(-2, 3.5),
    k=log_uniform(-1, 2),
    total_length=log_uniform(-1, 1),
    n=st.floats(0.0, 6.0).map(lambda e: int(round(10.0 ** e))),
)
def test_balanced_closed_form_matches_cell_power(v, k, total_length, n):
    # The paper's real closed form against the general cell power at v1 = 0,
    # eps = 1: they agree, or both leave the double range.
    balanced = _matrix_or_overflow(periodic_matrix, PeriodicSpec(v, n, total_length), k)
    powered = _matrix_or_overflow(alternating_matrix, 0.0, v, 1.0, n, total_length, k)
    assert (balanced is None) == (powered is None)
    if balanced is not None:
        assert scaled_diff(balanced, powered) <= 1e-10


def _outcome(compute):
    """What ``compute()`` returns, or the type and message of its error."""
    try:
        return compute()
    except Exception as exc:
        return type(exc), str(exc)


def _scalar_point(v, total_length, n, k):
    """T, R_left, R_right and |det - 1| through periodic_matrix ->
    scattering_from_matrix, with a sweep's rule that they must be finite."""
    m = periodic_matrix(PeriodicSpec(v=v, n_cells=n, total_length=total_length), k)
    s = scattering_from_matrix(m)
    values = (s.big_t, s.big_r_left, s.big_r_right, m.absdet_err)
    if not all(map(math.isfinite, values)):
        raise NonFiniteMatrixError(f"T, R or absdet_err leaves the double range at N = {n}, k = {k}")
    return [repr(x) for x in values]


def _assert_sweep_matches_the_scalar_chain(v, total_length, n_values, k_values):
    # The sweep's rows, N-major then k, or the error of its first failing point.
    table = _outcome(lambda: [
        [repr(x) for x in (row.big_t, row.big_r_left, row.big_r_right, row.absdet_err)]
        for row in transmission_surface(v, total_length, n_values, k_values)
    ])
    expected = []
    for n, k in itertools.product(n_values, k_values):
        point = _outcome(lambda: _scalar_point(v, total_length, n, k))
        if isinstance(point, tuple):
            expected = point
            break
        expected.append(point)
    assert table == expected


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(
    v=log_uniform(-12, 4),
    total_length=log_uniform(-2, 2),
    n=st.floats(0.0, 12.0).map(lambda e: int(round(10.0 ** e))),
    k=log_uniform(-3, 3),
)
def test_sweep_rows_match_the_scalar_chain(v, total_length, n, k):
    # The sweep's straight-line loop against the public scalar chain, bit for
    # bit, on the oscillatory, hyperbolic and reflected branches and where
    # values overflow; the pinned points below add a zero angle and a pole.
    _assert_sweep_matches_the_scalar_chain(v, total_length, [n], [k])


@pytest.mark.parametrize("v, total_length, n, k", [
    (1e-320, 1.0, 10, 1.0),
    (1e308, 1.0, 10, 1.0),
    (40.0, 1.0, 10, 1e-300),
    (40.0, 1.0, 10, 1e300),
    (40.0, 1.0, 10**18, 1.0),
    (40.0, 1e-300, 10, 1.0),
    (40.0, 1e300, 10, 1.0),
    (5e-324, 1.0, 10, 5e-324),
    # Measure-zero cases that random draws miss: the gap underflows to
    # exactly 0 (U_{N-1} = N), and |m22| = 2.3e-16 at a spectral singularity.
    (1.0, 1e-170, 1, 1.0),
    (8.286948499521147, 1.0, 1, 2.1293651011239407),
])
def test_sweep_edge_points_match_the_scalar_chain(v, total_length, n, k):
    # Pinned, because the derandomized examples above change with the test's body.
    _assert_sweep_matches_the_scalar_chain(v, total_length, [n], [k])


def test_sweep_raises_at_its_first_failing_point_in_n_major_order():
    # (16, 60) and (16, 20) compute; (16, 1e300) is the first to fail, its
    # cell elements out of range, while every later N fails at k = 20 on T
    # and R, which a k-major order would meet first.
    grid = (3000.0, 10.0, [16, 1, 2], [60.0, 20.0, 1e300])
    _assert_sweep_matches_the_scalar_chain(*grid)
    with pytest.raises(NonFiniteMatrixError, match=r"^cell elements leave the double range at k = 1e\+300, "):
        transmission_surface(*grid)
