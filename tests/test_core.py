import math

import numpy as np
import pytest

from ptstack import (
    Layer,
    PeriodicSpec,
    PotentialStack,
    TransferMatrix,
    WaveNumberMismatchError,
    alternating_matrix,
    barrier_matrix,
    build_alternating,
    check_wave_number,
    convergence_study,
    generalized_limit_study,
    mat_multiply,
    mat_power_direct,
    transmission_surface,
    unit_cell_matrix,
)
from ptstack.core import check_count, check_finite, check_positive
from conftest import as_array, entry_diff, random_unimodular


def test_wave_number_validation():
    assert check_wave_number(2.5) == 2.5
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            check_wave_number(bad)


def test_input_checks():
    assert check_positive(3, "V") == 3.0
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="V must be finite and > 0"):
            check_positive(bad, "V")
    assert check_count(2.0, "n", 1) == 2 and type(check_count(np.int64(2), "n", 1)) is int
    assert check_count(0, "degree", 0) == 0
    for bad in (2.5, 0, -1, math.nan, math.inf, "2", None):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            check_count(bad, "n", 1)
    assert check_finite(1 - 2j, "height") == 1 - 2j and check_finite(-3.0, "offset") == -3.0
    for bad in (complex(0, math.inf), math.nan, -math.inf):
        with pytest.raises(ValueError, match="height must be finite"):
            check_finite(bad, "height")


@pytest.mark.parametrize(
    "call",
    [
        lambda n: alternating_matrix(7.0, 40.0, 1.0, n, 1.0, 3.0),
        lambda n: build_alternating(7.0, 40.0, 1.0, n, 1.0),
        lambda n: mat_power_direct(unit_cell_matrix(1.0, 40.0, 0.05), n),
        lambda n: convergence_study(2.0, 40.0, 1.0, [1, n]),
        lambda n: generalized_limit_study(7.0, 40.0, 1.0, 1.0, [1, n], 3.0),
        lambda n: transmission_surface(40.0, 1.0, [n], [1.0, 2.0]),
    ],
    ids=[
        "alternating_matrix", "build_alternating", "mat_power_direct",
        "convergence_study", "generalized_limit_study", "transmission_surface",
    ],
)
def test_cell_count_must_be_an_integer(call):
    # A non-integer cell count is invalid input, never truncated.
    with pytest.raises(ValueError, match="must be an integer"):
        call(2.5)
    assert repr(call(2.0)) == repr(call(np.int64(2))) == repr(call(2))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: build_alternating(0, 10**400, 1, 1, 1.0), "v2 must be finite"),
        (lambda: build_alternating(0, 1.0, 1, 1, 10**400), "total_length must be finite and > 0"),
        (lambda: PeriodicSpec(v=10**400, n_cells=1, total_length=1.0), "V must be finite and > 0"),
        (lambda: Layer(10**400, 1.0, 0.0), "layer height must be finite"),
        (lambda: Layer(1.0, 1.0, -10**400), "layer offset must be finite"),
        (lambda: alternating_matrix(0, 10**400, 1, 4, 1.0, 1.0), "v2 must be finite"),
        (lambda: barrier_matrix(1.0, 10**5000, 1.0), "barrier height must be finite"),
        (lambda: check_wave_number(10**400), "wave number must be finite and > 0"),
    ],
    ids=["build-v2", "build-length", "spec-v", "layer-height", "layer-offset", "alternating-v2",
         "barrier-height", "wave-number"],
)
def test_int_beyond_the_double_range_names_its_parameter(call, message):
    # float() and complex() of such an int raise OverflowError, and its repr
    # may be too long to make (10**5000), so the message names no value.
    with pytest.raises(ValueError, match=f"^{message}, got a number beyond the double range$"):
        call()


def test_layer_validation():
    Layer(height=1j, width=0.5, offset=-1.0)
    with pytest.raises(ValueError):
        Layer(height=1j, width=0.0)
    with pytest.raises(ValueError):
        Layer(height=complex(math.inf, 0), width=1.0)


def test_stack_sorts_and_rejects_overlap():
    stack = PotentialStack([Layer(1.0, 1.0, 5.0), Layer(2.0, 1.0, 0.0)])
    assert [lay.offset for lay in stack.layers] == [0.0, 5.0]
    assert stack.right_edge - stack.left_edge == 6.0
    with pytest.raises(ValueError):
        PotentialStack([Layer(1.0, 1.0, 0.0), Layer(1.0, 1.0, 0.5)])


def test_identity_multiplication():
    m = unit_cell_matrix(1.0, 40.0, 0.05)
    eye = TransferMatrix.identity(1.0)
    assert entry_diff(mat_multiply(eye, m), m) == 0.0
    assert entry_diff(mat_multiply(m, eye), m) == 0.0


def test_multiply_associative(rng):
    for _ in range(50):
        m1, m2, m3 = (random_unimodular(rng) for _ in range(3))
        left = mat_multiply(mat_multiply(m3, m2), m1)
        right = mat_multiply(m3, mat_multiply(m2, m1))
        assert entry_diff(left, right) <= 1e-12


def test_multiply_rejects_mismatched_k():
    with pytest.raises(WaveNumberMismatchError):
        mat_multiply(TransferMatrix.identity(1.0), TransferMatrix.identity(2.0))


def test_power_basics(rng):
    m = random_unimodular(rng)
    assert entry_diff(mat_power_direct(m, 1), m) == 0.0
    assert entry_diff(mat_power_direct(m, 0), TransferMatrix.identity(m.k)) == 0.0
    eye = TransferMatrix.identity(3.0)
    assert entry_diff(mat_power_direct(eye, 10**6), eye) == 0.0
    with pytest.raises(ValueError):
        mat_power_direct(m, -1)


def test_power_matches_periodic_closed_form():
    # Powering composes co-located copies; physically stacked cells are each
    # shifted by 2b, which is equivalent to powering the edge-referenced
    # matrix D(-2kb)*M and restoring the total phase afterwards.
    from ptstack import PeriodicSpec, periodic_matrix

    k, v, b, n = 1.0, 40.0, 0.05, 7
    total = 2 * n * b
    cell = unit_cell_matrix(k, v, b)
    rebase = TransferMatrix(np.exp(2j * k * b), 0.0, 0.0, np.exp(-2j * k * b), k)
    local = mat_multiply(rebase, cell)
    restore = TransferMatrix(np.exp(-1j * k * total), 0.0, 0.0, np.exp(1j * k * total), k)
    powered = mat_multiply(restore, mat_power_direct(local, n))
    reference = periodic_matrix(PeriodicSpec(v=v, n_cells=n, total_length=total), k)
    scale = np.max(np.abs(as_array(reference)))
    assert entry_diff(powered, reference) / scale <= 1e-9


# A slab is translated through barrier_matrix's offset.
def test_translate_identity_and_observables():
    m = barrier_matrix(2.0, 40j, 0.1)
    # A shift by half a wavelength, pi/k, turns the off-diagonal phases by 2 pi.
    assert entry_diff(barrier_matrix(2.0, 40j, 0.1, math.pi / 2.0), m) <= 1e-14
    shifted = barrier_matrix(2.0, 40j, 0.1, 3.7)
    assert abs(abs(shifted.m22) - abs(m.m22)) <= 1e-12
    assert abs(abs(shifted.m12) - abs(m.m12)) <= 1e-12
    assert shifted.m11 == m.m11


def test_translate_composes_additively():
    # Shifts by 0.8 and by 1.4 make one by 2.2: their off-diagonal phases,
    # relative to offset 0, multiply.
    at = {d: barrier_matrix(1.3, 7.0j, 0.2, d) for d in (0.0, 0.8, 1.4, 2.2)}
    assert abs(at[0.8].m12 * (at[1.4].m12 / at[0.0].m12) - at[2.2].m12) <= 1e-12
    assert abs(at[0.8].m21 * (at[1.4].m21 / at[0.0].m21) - at[2.2].m21) <= 1e-12


def test_unimodularity_over_physical_grid(rng):
    # Matrices from physical potentials are unimodular up to rounding.  The
    # det of a double-precision matrix is only resolvable to ~eps*|M|^2, so
    # the flat 1e-10 bound applies where entries are O(1) (every stack the
    # package targets) and a scale-aware bound covers the extreme corners of
    # the parameter box, where entries reach ~4e3.
    flat_checked = 0
    for _ in range(500):
        k = rng.uniform(0.5, 20.0)
        height = rng.uniform(0.0, 100.0) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
        width = rng.uniform(1e-3, 1.0)
        offset = rng.uniform(-2.0, 2.0)
        m = barrier_matrix(k, complex(height), width, offset)
        norm = max(abs(m.m11), abs(m.m12), abs(m.m21), abs(m.m22))
        assert abs(m.det - 1.0) <= 1e-10 * max(1.0, norm * norm)
        if norm <= 10.0:
            assert abs(m.det - 1.0) <= 1e-10
            flat_checked += 1
    assert flat_checked > 100

