import numpy as np
import pytest


def as_array(m):
    """The entries of a transfer matrix as a 2x2 complex array."""
    return np.array([[m.m11, m.m12], [m.m21, m.m22]], dtype=complex)


def entry_diff(a, b):
    """Largest componentwise |a - b| between two transfer matrices."""
    return float(np.max(np.abs(as_array(a) - as_array(b))))


def scaled_diff(a, b):
    """entry_diff normalized by the larger entry magnitude (floor 1)."""
    aa, bb = as_array(a), as_array(b)
    scale = max(1.0, float(np.max(np.abs(aa))), float(np.max(np.abs(bb))))
    return float(np.max(np.abs(aa - bb))) / scale


def rel_diff(a, b):
    """Largest componentwise |a - b| / max(|a|, |b|)."""
    aa, bb = as_array(a), as_array(b)
    denom = np.maximum(np.abs(aa), np.abs(bb))
    return float(np.max(np.abs(aa - bb) / denom))


def cell_from_barriers(k, v, b):
    """The unit cell assembled as two single-slab matrices (+iV then -iV),
    the reference route for the closed form in ``unit_cell_matrix``."""
    from ptstack import barrier_matrix
    from ptstack.core import mat_multiply

    first = barrier_matrix(k, 1j * v, b, 0.0)
    second = barrier_matrix(k, -1j * v, b, b)
    return mat_multiply(second, first)


def cheb_pair_at(n, x):
    """T_n(x) and U_{n-1}(x) through the gap 1 - x, rounded as a caller that
    holds only x rounds it."""
    from ptstack import cheb_pair_from_gap

    return cheb_pair_from_gap(n, 1.0 - x)


def surface_points(table):
    """(N, k, T, R_left, R_right, |det - 1|) at each point of a
    TransmissionTable, N-major, then k, read off its columns."""
    columns = (table.big_t, table.big_r_left, table.big_r_right, table.absdet_err)
    return [
        (n, k, *(column[i][j] for column in columns))
        for i, n in enumerate(table.n_values)
        for j, k in enumerate(table.k_values)
    ]


def random_unimodular(rng, k=1.0):
    """Random 2x2 complex matrix with det exactly 1 (up to rounding)."""
    from ptstack import TransferMatrix

    def z():
        return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))

    a, b, c = z(), z(), z()
    while abs(a) < 0.1:
        a = z()
    return TransferMatrix(a, b, c, (1.0 + b * c) / a, k)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
