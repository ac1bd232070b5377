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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_integration_failure_raises():
    # A potential this stiff pushes the required step below the spacing of
    # floating-point numbers, which the controller reports as failure.
    from ptstack import IntegrationFailureError

    stack = PotentialStack([Layer(1e200, 1e-3, 0.0)])
    with pytest.raises(IntegrationFailureError, match="step size"):
        integrate_transfer_matrix(stack, 1.0)
