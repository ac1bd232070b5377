import math

import numpy as np
import pytest

from ptstack import (
    Layer,
    PotentialStack,
    TransferMatrix,
    WaveNumberMismatchError,
    alternating_matrix,
    build_alternating,
    check_wave_number,
    convergence_study,
    generalized_limit_study,
    mat_multiply,
    mat_power_direct,
    predict_asymptotics,
    translate,
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
        lambda n: predict_asymptotics(1.0, 40.0, 1.0, n),
        lambda n: mat_power_direct(unit_cell_matrix(1.0, 40.0, 0.05), n),
        lambda n: convergence_study(2.0, 40.0, 1.0, [1, n]),
        lambda n: generalized_limit_study(7.0, 40.0, 1.0, 1.0, [1, n], 3.0),
        lambda n: transmission_surface(40.0, 1.0, [n], [1.0, 2.0]),
    ],
    ids=[
        "alternating_matrix", "build_alternating", "predict_asymptotics", "mat_power_direct",
        "convergence_study", "generalized_limit_study", "transmission_surface",
    ],
)
def test_cell_count_must_be_an_integer(call):
    # A non-integer cell count is invalid input, never truncated.
    with pytest.raises(ValueError, match="must be an integer"):
        call(2.5)
    assert repr(call(2.0)) == repr(call(np.int64(2))) == repr(call(2))


def test_layer_validation():
    Layer(height=1j, width=0.5, offset=-1.0)
    with pytest.raises(ValueError):
        Layer(height=1j, width=0.0)
    with pytest.raises(ValueError):
        Layer(height=complex(math.inf, 0), width=1.0)


def test_stack_sorts_and_rejects_overlap():
    stack = PotentialStack([Layer(1.0, 1.0, 5.0), Layer(2.0, 1.0, 0.0)])
    assert [lay.offset for lay in stack.layers] == [0.0, 5.0]
    assert stack.total_support == 6.0
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


def test_translate_identity_and_observables():
    m = unit_cell_matrix(2.0, 40.0, 0.1)
    assert entry_diff(translate(m, 0.0), m) == 0.0
    shifted = translate(m, 3.7)
    assert abs(abs(shifted.m22) - abs(m.m22)) <= 1e-12
    assert abs(abs(shifted.m12) - abs(m.m12)) <= 1e-12
    assert shifted.m11 == m.m11


def test_translate_composes_additively():
    m = unit_cell_matrix(1.3, 7.0, 0.2)
    twice = translate(translate(m, 0.8), 1.4)
    once = translate(m, 2.2)
    assert entry_diff(twice, once) <= 1e-12


def test_unimodularity_over_physical_grid(rng):
    # Matrices from physical potentials are unimodular up to rounding.  The
    # det of a double-precision matrix is only resolvable to ~eps*|M|^2, so
    # the flat 1e-10 bound applies where entries are O(1) (every stack the
    # package targets) and a scale-aware bound covers the extreme corners of
    # the parameter box, where entries reach ~4e3.
    from ptstack import barrier_matrix

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

