import cmath
import math

import pytest

from ptstack import (
    barrier_matrix,
    cell_from_barriers,
    mat_multiply,
    scattering_from_matrix,
    unit_cell_elements,
    unit_cell_matrix,
    wave_params,
)
from conftest import entry_diff

# 50-digit references for (k, V, b) = (1, 40, 0.05); see module formulas.
RHO_REF = 6.32554330057783362639
PHI_REF = 0.7729007665879882298648
ALPHA_REF = 0.2264191302857521170552
BETA_REF = 0.2208293969546545484571
U_PLUS_REF = 6.483632487938016703719
U_MINUS_REF = -6.16745411321765054906
XI_REF = 0.9966697608006040370368
GAP_REF = 0.00333023919939596296319
CHI_REF = 0.03323021954501999957008
ETA_REF = 0.09992780167116665863968
TAU_REF = 0.06663651500622999102222
CELL_M11_REF = 0.9950080497563581790128 - 0.06643674062890309389245j
CELL_M12_REF = 0.003323582892329616393305 + 0.03312496889907677921992j
CELL_M21_REF = -0.01662868482534876671939 + 0.165732188880697799519j
CELL_M22_REF = 0.9950080497563581790128 + 0.06643674062890309389245j


def test_wave_params_frozen_point():
    rho, phi, alpha, beta, u_plus, u_minus = wave_params(1.0, 40.0, 0.05)
    assert rho == pytest.approx(RHO_REF, rel=1e-15)
    assert phi == pytest.approx(PHI_REF, rel=1e-15)
    assert alpha == pytest.approx(ALPHA_REF, rel=1e-15)
    assert beta == pytest.approx(BETA_REF, rel=1e-15)
    assert u_plus == pytest.approx(U_PLUS_REF, rel=1e-15)
    assert u_minus == pytest.approx(U_MINUS_REF, rel=1e-15)


def test_wave_params_free_space_limit():
    rho, phi, _, _, _, u_minus = wave_params(1.0, 1e-30, 0.1)
    assert rho == pytest.approx(1.0, abs=1e-15)
    assert phi == pytest.approx(0.0, abs=1e-15)
    assert u_minus == pytest.approx(0.0, abs=1e-15)
    rho2, phi2, *_ = wave_params(2.0, 1e-30, 0.1)
    assert rho2 == pytest.approx(2.0, abs=1e-15)
    assert phi2 == pytest.approx(0.0, abs=1e-15)


def test_wave_params_validation():
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            wave_params(1.0, bad, 0.1)
    with pytest.raises(ValueError):
        wave_params(0.0, 40.0, 0.1)
    with pytest.raises(ValueError):
        wave_params(1.0, 40.0, 0.0)


def test_elements_frozen_point():
    p = unit_cell_elements(1.0, 40.0, 0.05)
    assert p.xi == pytest.approx(XI_REF, rel=1e-14)
    assert p.one_minus_xi == pytest.approx(GAP_REF, rel=1e-13)
    assert p.chi == pytest.approx(CHI_REF, rel=1e-13)
    assert p.eta == pytest.approx(ETA_REF, rel=1e-13)
    assert p.tau == pytest.approx(TAU_REF, rel=1e-13)
    # xi and its complement are the same number at full precision
    assert p.xi == 1.0 - p.one_minus_xi


def test_elements_free_space_limit():
    k, b = 1.3, 0.2
    p = unit_cell_elements(k, 1e-12, b)
    assert p.xi == pytest.approx(math.cos(2 * k * b), abs=1e-12)
    assert p.chi == pytest.approx(math.sin(2 * k * b), abs=1e-12)
    assert abs(p.eta) <= 1e-12
    assert abs(p.tau) <= 1e-12


def test_elements_unimodular_identity(rng):
    # xi^2 + chi^2 + eta^2 - tau^2 = 1 exactly in exact arithmetic.
    for _ in range(200):
        k = float(rng.uniform(0.5, 20.0))
        v = float(rng.uniform(1e-3, 100.0))
        b = float(rng.uniform(1e-3, 1.0))
        p = unit_cell_elements(k, v, b)
        lhs = p.xi**2 + p.chi**2 + p.eta**2 - p.tau**2
        scale = max(1.0, p.xi**2, p.chi**2, p.eta**2, p.tau**2)
        assert abs(lhs - 1.0) / scale <= 1e-13


def test_small_width_expansion():
    # 1 - xi -> 2 (k b)^2 as b -> 0
    k, v = 1.0, 40.0
    for b, tol in ((1e-4, 2e-4), (1e-6, 1e-8)):
        p = unit_cell_elements(k, v, b)
        ratio = p.one_minus_xi / (2.0 * (k * b) ** 2)
        assert abs(ratio - 1.0) <= tol


def test_smooth_approach_to_free_space():
    # No branch jumps along a V ramp down to the free-space values.
    k, b = 2.0, 0.3
    prev = None
    for v in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
        p = unit_cell_elements(k, v, b)
        dev = max(
            abs(p.xi - math.cos(2 * k * b)),
            abs(p.chi - math.sin(2 * k * b)),
            abs(p.eta),
            abs(p.tau),
        )
        if prev is not None:
            assert dev < prev
        prev = dev
    assert prev <= 1e-7


def test_cell_matrix_frozen_point():
    m = unit_cell_matrix(1.0, 40.0, 0.05)
    assert m.m11 == pytest.approx(CELL_M11_REF, abs=1e-14)
    assert m.m12 == pytest.approx(CELL_M12_REF, abs=1e-14)
    assert m.m21 == pytest.approx(CELL_M21_REF, abs=1e-14)
    assert m.m22 == pytest.approx(CELL_M22_REF, abs=1e-14)


def test_cell_matrix_free_space_is_identity():
    m = unit_cell_matrix(0.7, 1e-14, 0.4)
    assert entry_diff(m, type(m).identity(m.k)) <= 1e-12


def test_cell_matrix_det_one():
    m = unit_cell_matrix(3.0, 40.0, 0.1)
    assert abs(m.det - 1.0) <= 1e-12


def test_cell_matrix_conjugation_structure():
    # Real k: m22 = conj(m11) and the centered off-diagonals are imaginary.
    for (k, v, b) in ((0.5, 1.0, 0.05), (2.0, 40.0, 0.2), (10.0, 100.0, 0.01)):
        m = cell_from_barriers(k, v, b)
        assert abs(m.m22 - m.m11.conjugate()) <= 1e-12 * max(1.0, abs(m.m11))
        centered_12 = m.m12 * cmath.exp(2j * k * b)
        centered_21 = m.m21 * cmath.exp(-2j * k * b)
        scale = max(1.0, abs(m.m12), abs(m.m21))
        assert abs(centered_12.real) <= 1e-12 * scale
        assert abs(centered_21.real) <= 1e-12 * scale


def test_cell_matches_two_slab_composition_grid():
    worst = 0.0
    for k in (0.5, 1.0, 2.0, 5.0, 10.0):
        for v in (1.0, 40.0, 100.0):
            for b in (0.01, 0.05, 0.5):
                worst = max(
                    worst, entry_diff(unit_cell_matrix(k, v, b), cell_from_barriers(k, v, b))
                )
    assert worst <= 1e-10


def test_slab_order_is_gain_first():
    # Reversing the slabs flips the sign of eta (swaps the off-diagonals),
    # so only the gain-first order reproduces the closed form.
    k, v, b = 1.0, 40.0, 0.05
    reversed_cell = mat_multiply(
        barrier_matrix(k, 1j * v, b, b), barrier_matrix(k, -1j * v, b, 0.0)
    )
    m = unit_cell_matrix(k, v, b)
    assert entry_diff(reversed_cell, m) > 1e-3
    assert abs(reversed_cell.m11 - m.m11) <= 1e-14
    assert abs(reversed_cell.m12 - (-m.m21 * cmath.exp(-4j * k * b))) <= 1e-14


def test_barrier_zero_height_is_identity():
    m = barrier_matrix(1.7, 0.0, 0.9, 0.3)
    assert entry_diff(m, type(m).identity(m.k)) <= 1e-14


def test_barrier_transmission_real_tunneling():
    # Closed-form tunneling coefficient at V=10, w=0.5, k=1 (50-digit value).
    m = barrier_matrix(1.0, 10.0, 0.5, 0.0)
    assert scattering_from_matrix(m).big_t == pytest.approx(
        0.07356200084459352935361, rel=1e-13
    )


def test_barrier_top_degenerate_energy():
    # height = k^2 exactly: the sin(q w)/q -> w limit (references at 50 digits).
    m = barrier_matrix(2.0, 4.0, 0.3, 0.0)
    assert m.m11 == pytest.approx(0.9947283569281889044012 - 0.3170417889221318680287j, abs=1e-15)
    assert m.m12 == pytest.approx(-0.1693927420185106071603 - 0.2476006844729034891723j, abs=1e-15)
    assert m.m22 == pytest.approx(0.9947283569281889044012 + 0.3170417889221318680287j, abs=1e-15)
    assert abs(m.det - 1.0) <= 1e-14


def test_barrier_sinc_switch_is_smooth():
    # Values on both sides of the series/quotient switch agree.
    k, w = 2.0, 0.3
    q_small = 0.9e-4 / w
    q_big = 1.1e-4 / w
    for q in (q_small, q_big):
        height = k * k - q * q
        m = barrier_matrix(k, height, w, 0.0)
        m_ref = barrier_matrix(k, height + 1e-9, w, 0.0)
        assert entry_diff(m, m_ref) <= 1e-9


def test_barrier_offset_matches_translate():
    from ptstack import translate

    m0 = barrier_matrix(1.2, 5.0 - 2.0j, 0.4, 0.0)
    m_shift = barrier_matrix(1.2, 5.0 - 2.0j, 0.4, 1.7)
    assert entry_diff(m_shift, translate(m0, 1.7)) <= 1e-14


def test_barrier_width_validation():
    with pytest.raises(ValueError):
        barrier_matrix(1.0, 1.0, 0.0, 0.0)
