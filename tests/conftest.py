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
