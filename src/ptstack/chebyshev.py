"""Stable Chebyshev polynomials of the first and second kind, all regimes.

The pair (T_n(x), U_{n-1}(x)) gives the closed form of the n-th power of a
unimodular 2x2 matrix.  Fine-layer stack limits push x exponentially close to
1 from below, exactly where arccos loses most of its relative precision, so
everything here is evaluated through the distance ``gap = 1 - x`` using the
cancellation-free identities

    arccos(1 - gap)  = 2*arcsin(sqrt(gap/2))        0 <= gap <= 2
    sin(arccos(x))   = sqrt(gap*(2 - gap))
    arccosh(1 + u)   = 2*arcsinh(sqrt(u/2))         u = -gap >= 0
    sinh(arccosh(x)) = sqrt(u*(u + 2))

Callers that know ``gap`` to full relative precision (the unit-cell elements
do) should use :func:`cheb_pair_from_gap`; going through ``x = 1 - gap`` in
double precision first would throw that precision away.  Arguments x < 0 are
reflected to |x| with the parity signs (-1)^n and (-1)^(n-1); the subtractions
involved (2 - gap, gap - 2) are exact in floating point.

Values whose true magnitude exceeds the double range overflow to +/-inf
with the correct sign: T_n once n*arccosh|x| is above ~710, U_{n-1}
= sinh(n theta)/sinh(theta) only once the quotient itself does.

:func:`cheb_pair_from_gap` validates its arguments and calls
:func:`_pair`.  A sweep writes its oscillatory branch out inline
(:func:`ptstack.scattering._surface_row`) and calls it for every other gap.

:func:`cheb_pair_from_complex_gap` evaluates the pair at a complex argument
through the same half-angle form; it serves the power of a cell that is not
gain/loss balanced, whose half-trace is complex.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from .core import check_count


class ChebyshevPair(namedtuple("ChebyshevPair", "n x t_n u_n_minus_1")):
    """T_n(x) and U_{n-1}(x) evaluated together from one angle."""

    __slots__ = ()


def _cosh_safe(y: float) -> float:
    try:
        return math.cosh(y)
    except OverflowError:
        return math.inf


def _sinh_safe(y: float) -> float:
    try:
        return math.sinh(y)
    except OverflowError:
        return math.copysign(math.inf, y)


def _exp_safe(y: float) -> float:
    try:
        return math.exp(y)
    except OverflowError:
        return math.inf


def _pair(n: int, gap: float) -> tuple[float, float]:
    """(T_n(1 - gap), U_{n-1}(1 - gap)) for a validated degree ``n``.

    Raises ValueError for a NaN gap, and the error of ``math.cos`` where
    n*theta leaves the double range in the oscillatory branch.
    """
    if gap != gap:
        raise ValueError("gap must not be NaN")
    if n == 0:
        return 1.0, 0.0
    n_float = float(n)  # what n * theta rounds n to
    # x < 0: reflect to x' = -x = gap - 1, i.e. gap' = 2 - gap (exact).
    sign_t = sign_u = 1.0
    if gap > 1.0:
        gap = 2.0 - gap
        if n % 2:
            sign_t = -1.0
        else:
            sign_u = -1.0
    if gap < 0.0:
        u_arg = -gap
        n_theta = n_float * (2.0 * math.asinh(math.sqrt(0.5 * u_arg)))
        sinh_theta = math.sqrt(u_arg * (u_arg + 2.0))
        if sinh_theta == math.inf:
            # Past |gap| ~ 1.3e154 the product overflows although its root does not.
            sinh_theta = math.sqrt(u_arg) * math.sqrt(u_arg + 2.0)
        t = _cosh_safe(n_theta)
        sinh_n_theta = _sinh_safe(n_theta)
        if sinh_n_theta == math.inf:
            # Past N theta ~ 710 sinh(N theta) overflows before the quotient does:
            # there sinh(N theta) = e^(N theta) / 2 to the last bit, taken in halves.
            half = _exp_safe(0.5 * n_theta)
            u = 0.5 * half / sinh_theta * half
        else:
            u = sinh_n_theta / sinh_theta
    else:
        n_theta = n_float * (2.0 * math.asin(math.sqrt(0.5 * gap)))
        sin_theta = math.sqrt(gap * (2.0 - gap))
        t = math.cos(n_theta)
        u = n_float if sin_theta == 0.0 else math.sin(n_theta) / sin_theta
    return sign_t * t, sign_u * u


def cheb_pair_from_gap(n: int, gap: float) -> ChebyshevPair:
    """T_n(1 - gap) and U_{n-1}(1 - gap), taking ``gap`` at face value.

    This is the precision-preserving entry point: for x within a few ulps of
    1, pass the exactly known ``1 - x`` here instead of rounding x first.
    Any real ``gap`` is accepted (gap < 0 means x > 1, gap > 2 means x < -1).
    """
    n = check_count(n, "polynomial degree", 0)
    gap = float(gap)
    t, u = _pair(n, gap)
    return ChebyshevPair(n=n, x=1.0 - gap, t_n=t, u_n_minus_1=u)


def cheb_pair_from_complex_gap(n: int, gap: complex) -> tuple[complex, complex]:
    """(T_n(1 - gap), U_{n-1}(1 - gap)) for complex ``gap``, taken at face value.

    The complex counterpart of :func:`cheb_pair_from_gap`, through the same
    half-angle form: with s = sqrt(gap/2), theta = 2*asin(s) and
    sin(theta) = 2*s*sqrt((2 - gap)/2); at sin(theta) = 0 U_{n-1} takes its
    limit n.  As in the real case, Re(gap) > 1 (Re x < 0) is reflected to
    2 - gap with the parity signs, which also keeps s off the branch cut of
    asin, where the two square roots could disagree in sign.  ``cmath``
    raises OverflowError when n*theta leaves the double range.
    """
    n = check_count(n, "polynomial degree", 0)
    gap = complex(gap)
    if n == 0:
        return 1.0 + 0.0j, 0.0j
    sign_t = sign_u = 1.0
    if gap.real > 1.0:
        gap = 2.0 - gap
        if n % 2:
            sign_t = -1.0
        else:
            sign_u = -1.0
    s = cmath.sqrt(0.5 * gap)
    sin_theta = 2.0 * s * cmath.sqrt(0.5 * (2.0 - gap))
    n_theta = 2.0 * n * cmath.asin(s)
    u = complex(n) if sin_theta == 0.0 else cmath.sin(n_theta) / sin_theta
    return sign_t * cmath.cos(n_theta), sign_u * u
