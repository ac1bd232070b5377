import pytest

from ptstack import (
    NonFiniteMatrixError,
    PeriodicSpec,
    SpectralPoleError,
    TransferMatrix,
    barrier_matrix,
    periodic_matrix,
    scattering_from_matrix,
    transmission_surface,
)


def test_identity_is_empty_space():
    coeffs = scattering_from_matrix(TransferMatrix.identity(2.0))
    assert coeffs.t == 1.0
    assert coeffs.r_left == 0.0
    assert coeffs.r_right == 0.0
    assert coeffs.big_t == 1.0


def test_pole_raises_distinct_error():
    near_pole = TransferMatrix(1.0, 1.0, 1.0, 1e-15, 1.0)
    with pytest.raises(SpectralPoleError):
        scattering_from_matrix(near_pole)


def test_real_barrier_transmission_closed_form():
    m = barrier_matrix(1.0, 10.0, 0.5, 0.0)
    coeffs = scattering_from_matrix(m)
    assert coeffs.big_t == pytest.approx(0.07356200084459352935361, rel=1e-12)
    # Hermitian barrier: flux conservation on both sides.
    assert coeffs.big_t + coeffs.big_r_left == pytest.approx(1.0, abs=1e-12)
    assert coeffs.big_t + coeffs.big_r_right == pytest.approx(1.0, abs=1e-12)


def test_transmission_sides_equal_by_construction():
    m = periodic_matrix(PeriodicSpec(v=40.0, n_cells=11, total_length=1.0), 2.0)
    coeffs = scattering_from_matrix(m)
    assert coeffs.t == 1.0 / m.m22


def test_gain_loss_stack_not_unitary_at_small_n():
    # Complex potential: no unitarity assumed; T + R can exceed 1.
    m = periodic_matrix(PeriodicSpec(v=40.0, n_cells=1, total_length=0.4), 1.0)
    coeffs = scattering_from_matrix(m)
    assert coeffs.big_t + coeffs.big_r_left != pytest.approx(1.0, abs=1e-3)


def test_surface_grid_order_and_consistency():
    # N-major, then k, in the order the grids are given.
    rows = transmission_surface(40.0, 1.0, [10, 100], [2.0, 1.0])
    assert [(r.n, r.k) for r in rows] == [(10, 2.0), (10, 1.0), (100, 2.0), (100, 1.0)]
    spot = scattering_from_matrix(
        periodic_matrix(PeriodicSpec(v=40.0, n_cells=1000, total_length=1.0), 5.0)
    )
    row = transmission_surface(40.0, 1.0, [1000], [5.0])[0]
    assert row.big_t == spot.big_t
    assert row.big_r_left == spot.big_r_left
    assert row.big_r_right == spot.big_r_right
    assert row.absdet_err <= 1e-12


def test_surface_free_space_limit():
    rows = transmission_surface(1e-12, 1.0, [10, 100], [0.7, 3.0, 11.0])
    for row in rows:
        assert abs(row.big_t - 1.0) <= 1e-10
        assert row.big_r_left <= 1e-20
        assert row.big_r_right <= 1e-20


def test_surface_rejects_bad_k():
    with pytest.raises(ValueError):
        transmission_surface(40.0, 1.0, [10], [0.0])


def test_transmission_in_reported_band_at_large_n():
    # Mid-range k at N = 2000 sits inside the published display band.
    m = periodic_matrix(PeriodicSpec(v=40.0, n_cells=2000, total_length=1.0), 5.0)
    assert 0.9995 <= scattering_from_matrix(m).big_t <= 1.0005


def test_reflections_vanish_at_large_n():
    for k in (1.0, 5.0):
        small = scattering_from_matrix(
            periodic_matrix(PeriodicSpec(v=40.0, n_cells=100, total_length=1.0), k)
        )
        large = scattering_from_matrix(
            periodic_matrix(PeriodicSpec(v=40.0, n_cells=10**5, total_length=1.0), k)
        )
        assert large.big_r_left < small.big_r_left
        assert large.big_r_right < small.big_r_right
        assert abs(large.big_t - 1.0) < abs(small.big_t - 1.0)
        assert abs(large.big_t - 1.0) <= 1e-8


def test_surface_table_is_a_sequence_of_rows():
    table = transmission_surface(40.0, 1.0, [3, 5], [1.0, 2.0, 4.0])
    assert len(table) == 6
    assert [len(row) for row in table.big_t] == [3, 3]
    assert table[-1] == table[5]
    assert (table[4].n, table[4].k) == (5, 2.0)
    assert table[4].big_t == table.big_t[1][1]
    assert list(table)[2] == table[2]
    with pytest.raises(IndexError):
        table[6]


def test_surface_raises_at_the_first_failing_point():
    # At V = 3000, L = 10 the N = 1 entries reach 1e160 for k <= 20 and
    # |det - 1| overflows; N = 16 is finite at k = 20 and 60.
    with pytest.raises(NonFiniteMatrixError, match=r"at N = 1, k = 20\.0$"):
        transmission_surface(3000.0, 10.0, [16, 1], [20.0, 60.0])
    with pytest.raises(NonFiniteMatrixError, match=r"at N = 16, k = 5\.9$"):
        transmission_surface(3000.0, 10.0, [16], [60.0, 5.9, 1.0])
    # Validation of each N happens where a point-by-point loop reaches it.
    with pytest.raises(NonFiniteMatrixError, match="N = 1,"):
        transmission_surface(3000.0, 10.0, [1, 0], [5.9])
    with pytest.raises(ValueError, match="n_cells"):
        transmission_surface(3000.0, 10.0, [16, 0], [60.0])


def test_surface_cell_count_beyond_double_range():
    with pytest.raises(NonFiniteMatrixError, match=r"^n_cells = 1\.000e\+400 is beyond the double range$"):
        transmission_surface(40.0, 1.0, [10**400], [1.0])
    with pytest.raises(NonFiniteMatrixError, match="n_cells"):
        PeriodicSpec(v=40.0, n_cells=10**400, total_length=1.0)
