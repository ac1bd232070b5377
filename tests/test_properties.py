"""Property tests of the closed forms over log-uniform inputs."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from ptstack import NonFiniteMatrixError, PeriodicSpec, alternating_matrix, build_alternating, periodic_matrix
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
