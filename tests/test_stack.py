import cmath

import mpmath as mp
import numpy as np
import pytest

from ptstack import (
    Layer,
    NonFiniteMatrixError,
    PeriodicSpec,
    PotentialStack,
    TransferMatrix,
    alternating_matrix,
    barrier_matrix,
    build_alternating,
    compose_stack,
    mat_multiply,
    mat_power_direct,
    periodic_matrix,
    slab_propagation_matrix,
    unit_cell_matrix,
)
from ptstack.stack import _cell_power
from conftest import entry_diff, rel_diff, scaled_diff


def test_spec_validation():
    with pytest.raises(ValueError):
        PeriodicSpec(v=0.0, n_cells=1, total_length=1.0)
    with pytest.raises(ValueError):
        PeriodicSpec(v=1.0, n_cells=0, total_length=1.0)
    with pytest.raises(ValueError):
        PeriodicSpec(v=1.0, n_cells=1, total_length=-1.0)
    spec = PeriodicSpec(v=40.0, n_cells=8, total_length=1.0)
    assert spec.slab_width == 1.0 / 16.0


def test_single_cell_reduces_to_unit_cell():
    # N=1: T_1(xi) = xi, U_0 = 1, so the closed form is the cell matrix.
    for (k, v, b) in ((1.0, 40.0, 0.05), (5.0, 1.0, 0.2)):
        spec = PeriodicSpec(v=v, n_cells=1, total_length=2 * b)
        assert entry_diff(periodic_matrix(spec, k), unit_cell_matrix(k, v, b)) <= 1e-14


def test_free_space_identity_every_n():
    for n in (1, 10, 1000, 10**6):
        for k in (0.5, 5.0, 20.0):
            m = periodic_matrix(PeriodicSpec(v=1e-12, n_cells=n, total_length=1.0), k)
            assert entry_diff(m, TransferMatrix.identity(k)) <= 1e-10


def test_closed_form_matches_composition():
    worst = 0.0
    for k in (0.5, 2.0, 10.0):
        for v in (1.0, 40.0):
            for n in (2, 7, 64):
                cheb = periodic_matrix(PeriodicSpec(v=v, n_cells=n, total_length=1.0), k)
                prod = slab_propagation_matrix(build_alternating(0.0, v, 1.0, n, 1.0), k)
                worst = max(worst, rel_diff(cheb, prod))
    assert worst <= 1e-9


def test_conjugation_structure_of_stack_matrix():
    # Real k: the diagonal pair is complex conjugate (T_N, chi, U real).
    m = periodic_matrix(PeriodicSpec(v=40.0, n_cells=37, total_length=1.0), 3.3)
    assert abs(m.m22 - m.m11.conjugate()) <= 1e-11


def test_det_drift_chebyshev_path():
    for n in (10, 100, 10**4):
        for k in (0.5, 5.0):
            m = periodic_matrix(PeriodicSpec(v=40.0, n_cells=n, total_length=1.0), k)
            assert abs(m.det - 1.0) <= 1e-10


def test_compose_empty_and_single():
    assert entry_diff(
        compose_stack(PotentialStack([]), 2.0), TransferMatrix.identity(2.0)
    ) == 0.0
    layer = Layer(height=3.0 - 2.0j, width=0.4, offset=1.1)
    assert entry_diff(
        compose_stack(PotentialStack([layer]), 2.0),
        barrier_matrix(2.0, 3.0 - 2.0j, 0.4, 1.1),
    ) == 0.0


def test_compose_gapped_stack_matches_translated_product():
    # A gap between layers needs no explicit factor in global coordinates.
    from ptstack import mat_multiply

    k = 1.7
    a = Layer(height=2.0 + 1.0j, width=0.3, offset=0.0)
    b = Layer(height=-4.0j, width=0.2, offset=0.9)
    stack = PotentialStack([a, b])
    direct = compose_stack(stack, k)
    manual = mat_multiply(
        barrier_matrix(k, b.height, b.width, b.offset),
        barrier_matrix(k, a.height, a.width, a.offset),
    )
    assert entry_diff(direct, manual) == 0.0


def test_build_alternating_layout():
    stack = build_alternating(5.0, 3.0, 0.5, 10, 1.0)
    assert len(stack) == 20
    widths = {lay.width for lay in stack.layers}
    assert widths == {1.0 / 20.0}
    assert stack.layers[0].height == 5.0 + 3.0j
    assert stack.layers[1].height == 5.0 - 1.5j
    assert stack.layers[2].height == 5.0 + 3.0j
    assert stack.right_edge - stack.left_edge == pytest.approx(1.0, rel=1e-15)


def test_build_alternating_eps_zero():
    # eps = 0 leaves the second slab at height v1 (free space when v1 = 0).
    stack = build_alternating(0.0, 7.0, 0.0, 1, 0.4)
    assert stack.layers[0].height == 7.0j
    assert stack.layers[1].height == 0.0 + 0.0j


def test_build_alternating_names_an_overflowing_eps_times_v2():
    with pytest.raises(NonFiniteMatrixError, match=r"^eps \* v2 leaves the double range at v1 = 0, v2 = 1e\+308, eps = 2$"):
        build_alternating(0, 1e308, 2, 4, 1.0)


def test_an_underflowing_slab_width_names_l_and_n():
    # L and N are valid, but L/(2N) rounds to 0.
    message = r"^slab width b = L/\(2N\) underflows to 0 at L = 1e-320, N = 4096$"
    spec = PeriodicSpec(v=40.0, n_cells=4096, total_length=1e-320)
    with pytest.raises(NonFiniteMatrixError, match=message):
        periodic_matrix(spec, 1.0)
    with pytest.raises(NonFiniteMatrixError, match=message):
        build_alternating(0.0, 40.0, 1.0, 4096, 1e-320)
    assert PeriodicSpec(v=40.0, n_cells=1, total_length=1e-320).slab_width == 5e-321


def test_build_alternating_balanced_matches_periodic():
    k, v, n = 2.0, 40.0, 5
    prod = slab_propagation_matrix(build_alternating(0.0, v, 1.0, n, 1.0), k)
    cheb = periodic_matrix(PeriodicSpec(v=v, n_cells=n, total_length=1.0), k)
    assert rel_diff(prod, cheb) <= 1e-10


def test_large_n_stays_o1():
    import time

    t0 = time.time()
    for _ in range(100):
        periodic_matrix(PeriodicSpec(v=40.0, n_cells=10**6, total_length=1.0), 5.0)
    assert time.time() - t0 < 1.0


# (v1, v2, eps, k): real barrier, unbalanced, general, deep well with gain,
# identical slabs (eps = -1), real heights only (v2 = 0).
ALTERNATING_CASES = [
    (7.0, 40.0, 1.0, 3.0),
    (0.0, 40.0, 0.5, 3.0),
    (2.0, 10.0, 0.3, 1.5),
    (-30.0, 5.0, 1.3, 0.7),
    (0.0, 40.0, -1.0, 1.0),
    (5.0, 0.0, 1.0, 2.0),
]


@pytest.mark.parametrize("v1, v2, eps, k", ALTERNATING_CASES)
def test_alternating_matches_power_of_rebased_cell(v1, v2, eps, k):
    # The reference powers the two-slab cell with mat_power_direct, rebased to
    # its own left edge as in test_core::test_power_matches_periodic_closed_form.
    total = 1.0
    for n in (1, 2, 7, 64):
        b = total / (2 * n)
        cell = slab_propagation_matrix(build_alternating(v1, v2, eps, 1, 2 * b), k)
        rebase = TransferMatrix(cmath.exp(2j * k * b), 0.0, 0.0, cmath.exp(-2j * k * b), k)
        restore = TransferMatrix(cmath.exp(-1j * k * total), 0.0, 0.0, cmath.exp(1j * k * total), k)
        powered = mat_multiply(restore, mat_power_direct(mat_multiply(rebase, cell), n))
        assert scaled_diff(alternating_matrix(v1, v2, eps, n, total, k), powered) <= 1e-12


@pytest.mark.parametrize("n", [1, 10, 1000, 10**6])
def test_alternating_balanced_reduces_to_periodic(n):
    for k in (0.5, 3.0, 20.0):
        for v in (1.0, 40.0):
            balanced = alternating_matrix(0.0, v, 1.0, n, 1.0, k)
            assert scaled_diff(balanced, periodic_matrix(PeriodicSpec(v, n, 1.0), k)) <= 1e-13


def _mp_power(slabs, n, total, k):
    """The N-cell matrix of a cell of (height, width) slabs, left to right,
    with the cell power taken in 40-digit arithmetic."""
    with mp.workdps(40):
        k, cell = mp.mpf(k), mp.eye(2)
        for h, w in slabs:
            q = mp.sqrt(k * k - h)
            c, s = mp.cos(q * w), mp.sin(q * w) / q
            d, o = (2 * k * k - h) / (2 * k) * s, h / (2 * k) * s
            cell = mp.matrix([[c + 1j * d, -1j * o], [1j * o, c - 1j * d]]) * cell
        power = cell ** n
        phase = mp.exp(-1j * k * total)
        return TransferMatrix(
            complex(power[0, 0] * phase), complex(power[0, 1] * phase),
            complex(power[1, 0] / phase), complex(power[1, 1] / phase), float(k),
        )


def _mp_alternating(v1, v2, eps, n, total, k):
    with mp.workdps(40):
        b = mp.mpf(total) / (2 * n)
        return _mp_power([(mp.mpc(v1, v2), b), (mp.mpc(v1, -eps * v2), b)], n, total, k)


@pytest.mark.parametrize(
    "v1, v2, eps, n, total, k",
    [
        # the benchmark's unbalanced input, where 1 - tr/2 taken from the trace
        # is off by 6e-7 at N = 65536
        (7.0, 40.0, 1.0, 65536, 1.0, 3.25),
        (7.0, 40.0, 1.0, 10**6, 1.0, 3.0),
        (0.0, 40.0, 0.5, 10**6, 1.0, 3.0),
        # a deep well at small k: the slab product drifts by 1.5e-10 here
        (-100.0, 0.01, 1.5, 4096, 3.16, 0.1),
        # nearly equal gain slabs, entries ~2e15: the slab product drifts by 1.6e-10
        (0.1788, 115.709, -1.032, 1509, 4.0138, 0.03259),
        # evanescent slabs with nearly opposite principal q, where q1 + q2 nearly cancels
        (100.0, 1e-3, 0.5, 10**5, 1.0, 1.0),
    ],
)
def test_alternating_matches_high_precision_power(v1, v2, eps, n, total, k):
    reference = _mp_alternating(v1, v2, eps, n, total, k)
    assert scaled_diff(alternating_matrix(v1, v2, eps, n, total, k), reference) <= 1e-13


@pytest.mark.parametrize("n", [1, 7, 1000, 10**5])
@pytest.mark.parametrize("k", [0.5, 3.0])
def test_cell_power_of_three_slabs_matches_high_precision_power(n, k):
    # complex barrier, free gap, real barrier: the only case with more than two slabs
    total = 1.0
    slabs = [(10.0 + 40.0j, 0.3 * total / n), (0.0j, 0.45 * total / n), (25.0 + 0.0j, 0.25 * total / n)]
    reference = _mp_power([(mp.mpc(h), w) for h, w in slabs], n, total, k)
    assert scaled_diff(_cell_power(slabs, n, total, k), reference) <= 1e-13


def test_alternating_is_o1_in_n():
    import time

    t0 = time.time()
    for _ in range(100):
        alternating_matrix(7.0, 40.0, 1.0, 10**6, 1.0, 3.0)
    assert time.time() - t0 < 1.0


def test_alternating_validation_and_overflow():
    with pytest.raises(ValueError):
        alternating_matrix(7.0, 40.0, 1.0, 0, 1.0, 3.0)
    with pytest.raises(ValueError):
        alternating_matrix(7.0, 40.0, 1.0, 4, -1.0, 3.0)
    with pytest.raises(ValueError):
        alternating_matrix(7.0, np.nan, 1.0, 4, 1.0, 3.0)
    with pytest.raises(ValueError):
        alternating_matrix(7.0, 40.0, 1.0, 4, 1.0, 0.0)
    # one slab overflows cmath.cos; the N-cell power overflows cmath.cos
    for n, expected in ((1, "N = 1"), (128, "N = 128")):
        with pytest.raises(NonFiniteMatrixError, match=f"k = 1.0, v1 = 0.0, v2 = 100000.0, eps = 1.0, {expected}"):
            alternating_matrix(0.0, 1e5, 1.0, n, 50.0, 1.0)
