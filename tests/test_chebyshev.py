import math

import mpmath as mp
import pytest

from ptstack import cheb_pair_from_complex_gap, cheb_pair_from_gap
from conftest import cheb_pair_at

def recurrence_pair(n, x):
    """Three-term recurrence, the small-n oracle."""
    t_prev, t = 1.0, x
    u_prev, u = 0.0, 1.0
    if n == 0:
        return 1.0, 0.0
    for _ in range(n - 1):
        t_prev, t = t, 2.0 * x * t - t_prev
        u_prev, u = u, 2.0 * x * u - u_prev
    return t, u


def test_spot_values():
    assert abs(cheb_pair_at(3, 0.5).t_n - (-1.0)) <= 1e-15
    for n in (0, 1, 5, 17, 10**6):
        assert cheb_pair_at(n, 1.0).t_n == 1.0
    assert abs(cheb_pair_at(2, 2.0).t_n - 7.0) <= 1e-14
    assert abs(cheb_pair_at(3, 0.5).u_n_minus_1) <= 1e-15  # U_2(0.5)
    for n in (1, 2, 9, 12345):
        assert cheb_pair_at(n, 1.0).u_n_minus_1 == float(n)
    # oracle value from the recurrence (U_4(1.5) = 55)
    assert abs(cheb_pair_at(5, 1.5).u_n_minus_1 - 55.0) <= 55.0 * 1e-14


def test_negative_argument_parity(rng):
    for _ in range(100):
        n = int(rng.integers(0, 40))
        x = float(rng.uniform(0.0, 1.8))
        pair_pos = cheb_pair_at(n, x)
        pair_neg = cheb_pair_at(n, -x)
        sign_t = -1.0 if n % 2 else 1.0
        assert pair_neg.t_n == pytest.approx(sign_t * pair_pos.t_n, rel=1e-13, abs=1e-13)
        assert pair_neg.u_n_minus_1 == pytest.approx(
            -sign_t * pair_pos.u_n_minus_1, rel=1e-13, abs=1e-13
        )


def test_endpoint_confluence():
    assert cheb_pair_at(7, -1.0).t_n == -1.0
    assert cheb_pair_at(7, -1.0).u_n_minus_1 == 7.0
    assert cheb_pair_at(8, -1.0).u_n_minus_1 == -8.0


def test_agreement_with_recurrence(rng):
    # n <= 1e3; skip (n, x) whose true magnitude cannot be represented,
    # and also cap the comparison where the recurrence itself overflows.
    checked = 0
    while checked < 400:
        n = int(rng.integers(1, 1001))
        x = float(rng.uniform(-1.5, 1.5))
        if abs(x) > 1.0 and n * math.acosh(abs(x)) > 600.0:
            continue
        t_ref, u_ref = recurrence_pair(n, x)
        pair = cheb_pair_at(n, x)
        assert pair.t_n == pytest.approx(t_ref, rel=1e-9, abs=1e-9)
        assert pair.u_n_minus_1 == pytest.approx(u_ref, rel=1e-9, abs=1e-9)
        checked += 1


def pell_defect(n, x):
    """Relative Pell defect of the double-precision pair at (n, x).

    Evaluated in exact arithmetic over the returned doubles (the squares
    overflow the double range long before the values do) and normalized by
    the largest term, the only scale at which the identity is testable once
    the terms reach ~1e300.  Returns None when the true value itself exceeds
    the double range, after asserting the implementation reported inf.
    """
    pair = cheb_pair_at(n, x)
    t, u = pair.t_n, pair.u_n_minus_1
    if math.isinf(t) or math.isinf(u):
        # U overflows before T whenever sinh(arccosh|x|) < 1; verify each
        # reported overflow is genuine via log magnitudes.
        assert abs(x) > 1.0
        y = n * math.acosh(abs(x))
        log_max = math.log(1.7976931348623157e308)
        if math.isinf(t):
            assert y - math.log(2.0) >= log_max - 1.0
        if math.isinf(u):
            assert y - math.log(2.0) - 0.5 * math.log(x * x - 1.0) >= log_max - 1.0
        return None
    with mp.workdps(60):
        tt = mp.mpf(t) ** 2
        uu = (mp.mpf(x) ** 2 - 1) * mp.mpf(u) ** 2
        return float(abs(tt - uu - 1) / max(mp.mpf(1), abs(tt), abs(uu)))


def test_pell_identity_sampled(rng):
    checked = 0
    for _ in range(2000):
        n = int(rng.integers(0, 10**6 + 1))
        x = float(rng.uniform(-1.5, 1.5))
        defect = pell_defect(n, x)
        if defect is not None:
            assert defect <= 1e-9
            checked += 1
    assert checked > 1000


def test_pell_identity_wide_arguments(rng):
    # |x| up to 10 with n capped so the true values stay representable.
    for _ in range(500):
        x = float(rng.uniform(1.0 + 1e-6, 10.0)) * (1 if rng.uniform() < 0.5 else -1)
        n_cap = max(1, int(600.0 / math.acosh(abs(x))))
        n = int(rng.integers(0, n_cap + 1))
        defect = pell_defect(n, x)
        assert defect is not None and defect <= 1e-9


def test_gap_interface_preserves_precision():
    # References computed in 60-digit arithmetic at the exact double inputs.
    pair = cheb_pair_from_gap(10**6, 1e-12)
    assert pair.t_n == pytest.approx(0.1559436947652580781698, rel=5e-14)
    assert pair.u_n_minus_1 == pytest.approx(698455.998636795974606, rel=5e-14)
    # Through x at the same point: the gap is already rounded into x, but
    # the evaluation must stay faithful to that rounded input.
    pair_x = cheb_pair_at(10**6, 1.0 - 1e-12)
    assert pair_x.t_n == pytest.approx(0.1559591458797495764622, rel=5e-13)
    assert pair_x.u_n_minus_1 == pytest.approx(698461.9993035779677792, rel=5e-13)


def test_confluent_region_finite_and_consistent():
    # x = 1 - 1e-12 with n = 1e6: finite, and equal to sin(n t)/sin(t) built
    # from the package's own cancellation-safe angle.
    x = 1.0 - 1e-12
    n = 10**6
    u = cheb_pair_at(n, x).u_n_minus_1
    assert math.isfinite(u)
    gap = 1.0 - x
    theta = 2.0 * math.asin(math.sqrt(gap / 2.0))
    assert u == pytest.approx(math.sin(n * theta) / math.sin(theta), rel=1e-12)


def test_overflow_is_signed_inf():
    assert cheb_pair_at(10**6, 1.5).t_n == math.inf
    assert cheb_pair_at(10**6 + 1, -1.5).t_n == -math.inf
    assert cheb_pair_at(10**6 + 1, 1.5).u_n_minus_1 == math.inf  # U_{10^6}(1.5)


def test_degree_validation():
    with pytest.raises(ValueError):
        cheb_pair_from_gap(-1, 0.5)
    with pytest.raises(ValueError):
        cheb_pair_from_gap(2.5, 0.5)
    with pytest.raises(ValueError):
        cheb_pair_from_gap(3, math.nan)


def test_complex_gap_matches_recurrence(rng):
    # Complex arguments off and on the real segment; the three-term
    # recurrence is the small-n oracle, as for the real pair.
    for _ in range(400):
        n = int(rng.integers(0, 200))
        x = complex(rng.uniform(-1.5, 1.5), rng.choice([0.0, 1.0]) * rng.uniform(-0.5, 0.5))
        t, u = cheb_pair_from_complex_gap(n, 1.0 - x)
        t_ref, u_ref = recurrence_pair(n, x)
        assert abs(t - t_ref) <= 1e-9 * max(1.0, abs(t_ref))
        assert abs(u - u_ref) <= 1e-9 * max(1.0, abs(u_ref))


def test_complex_gap_agrees_with_real_pair():
    # A real gap, including ones far below 1e-16, goes the way of the real
    # helper: the complex path keeps the same relative precision near x = 1.
    # Both round n*theta (theta ~ sqrt(2 gap)), which costs ~n*theta ulps.
    for n in (1, 7, 1000, 10**6):
        for gap in (1e-13, 3e-9, 0.25, 1.0, 1.9, 2.0 - 1e-9, -1e-13, -2e-12):
            pair = cheb_pair_from_gap(n, gap)
            t, u = cheb_pair_from_complex_gap(n, complex(gap, 0.0))
            tol = 1e-13 * max(1.0, n * math.sqrt(abs(gap)))
            assert abs(t - pair.t_n) <= tol * max(1.0, abs(pair.t_n))
            assert abs(u - pair.u_n_minus_1) <= tol * max(1.0, abs(pair.u_n_minus_1))


def test_complex_gap_endpoints_and_overflow():
    assert cheb_pair_from_complex_gap(0, 0.3 + 0.1j) == (1.0, 0.0)
    for n in (1, 2, 7, 8, 10**6):
        assert cheb_pair_from_complex_gap(n, 0.0) == (1.0, float(n))
        t, u = cheb_pair_from_complex_gap(n, 2.0)
        assert u == (-1.0) ** (n - 1) * n
        assert abs(t - (-1.0) ** n) <= 1e-9
    with pytest.raises(OverflowError):
        cheb_pair_from_complex_gap(10**6, -1.0 + 0.5j)


def test_hyperbolic_gap_beyond_square_overflow():
    # gap * (gap - 2) overflows past |gap| ~ 1.3e154; sinh(theta), its root, does not.
    for gap in (-1e160, 2.0 + 1e160, -1e300):
        assert cheb_pair_from_gap(1, gap).u_n_minus_1 == pytest.approx(1.0, rel=1e-13)


@pytest.mark.parametrize(
    "n, gap",
    [
        (2, -1e160),
        (4, -1e80),
        (2, 2.0 + 1e160),  # x < -1: the parity sign of U_1 is -1
        # either side of N theta = 710.48, where sinh(N theta) overflows
        (2, -9.0e153),
        (2, -1.1e154),
        (1, -1.79e308),  # U_0 = 1 although sinh(theta) overflows
        (2, -8.9e307),  # U_1 = 1.78e308, just inside the double range
        (3, -6.7e153),
        (20, -1e15),  # N theta = 718
    ],
)
def test_hyperbolic_u_fits_past_sinh_overflow(n, gap):
    # U_{N-1} = sinh(N theta) / sinh(theta) stays finite past the overflow of
    # its numerator.  The relative error is that of e^(N theta): about
    # N theta ulps, N theta <= 1420 where U_{N-1} fits.
    mp.mp.dps = 40
    expected = mp.chebyu(n - 1, 1 - mp.mpf(gap))
    u = cheb_pair_from_gap(n, gap).u_n_minus_1
    assert math.isfinite(u)
    assert abs(mp.mpf(u) - expected) <= 1e-12 * abs(expected)


def test_hyperbolic_u_past_the_double_range_is_inf():
    assert cheb_pair_from_gap(2, -9e307).u_n_minus_1 == math.inf  # U_1 = 1.8e308
    assert cheb_pair_from_gap(2, 2.0 + 9e307).u_n_minus_1 == -math.inf  # U_1 = -1.8e308
    assert cheb_pair_from_gap(2, -1e160).u_n_minus_1 == pytest.approx(2e160, rel=1e-13)  # U_1(1e160)
