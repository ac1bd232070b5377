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

:func:`eval_pairs` evaluates the pair over an array of gaps, each branch on
its own entries; :func:`cheb_pair_from_gap` and :func:`cheb_pair` are
length-1 calls of it.

:func:`cheb_pair_from_complex_gap` evaluates the pair at a complex argument
through the same half-angle form; it serves the power of a cell that is not
gain/loss balanced, whose half-trace is complex.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import check_count, libm


@dataclass(frozen=True)
class ChebyshevPair:
    """T_n(x) and U_{n-1}(x) evaluated together from one angle."""

    n: int
    x: float
    t_n: float
    u_n_minus_1: float


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


@np.errstate(all="ignore")
def eval_pairs(n: int, gap: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
    """(T_n(1 - gap), U_{n-1}(1 - gap)) over an array of gaps: (t, u, errors).

    ``errors`` maps each failing entry to its exception, as
    :func:`ptstack.core.libm` does; a NaN gap is a ValueError.  Each branch
    evaluates only its own entries.
    """
    errors = {i: ValueError("gap must not be NaN") for i in np.flatnonzero(np.isnan(gap)).tolist()}
    if n == 0:
        return np.ones_like(gap), np.zeros_like(gap), errors
    n_float = float(n)  # what n * theta rounds n to

    def call(fn, rows, x):
        values, failed = libm(fn, x)
        for j, exc in failed.items():
            errors.setdefault(int(rows[j]), exc)
        return values

    # x < 0: reflect to x' = -x = gap - 1, i.e. gap' = 2 - gap (exact).
    reflected = gap > 1.0
    gap = np.where(reflected, 2.0 - gap, gap)
    sign_t = np.where(reflected & bool(n % 2), -1.0, 1.0)
    sign_u = np.where(reflected & (not n % 2), -1.0, 1.0)
    t, u = np.empty_like(gap), np.empty_like(gap)
    hyperbolic = gap < 0.0

    rows = np.flatnonzero(hyperbolic)
    if rows.size:
        u_arg = -gap[rows]
        n_theta = n_float * (2.0 * call(math.asinh, rows, np.sqrt(0.5 * u_arg)))
        sinh_theta = np.sqrt(u_arg * (u_arg + 2.0))
        # Past |gap| ~ 1.3e154 the product overflows although its root does not.
        wide = np.isinf(sinh_theta)
        sinh_theta[wide] = np.sqrt(u_arg[wide]) * np.sqrt(u_arg[wide] + 2.0)
        t[rows] = call(_cosh_safe, rows, n_theta)
        sinh_n_theta = call(_sinh_safe, rows, n_theta)
        u[rows] = sinh_n_theta / sinh_theta
        # Past N theta ~ 710 sinh(N theta) overflows before the quotient does:
        # there sinh(N theta) = e^(N theta) / 2 to the last bit, taken in halves.
        far = np.flatnonzero(np.isinf(sinh_n_theta))
        if far.size:
            half = call(_exp_safe, rows[far], 0.5 * n_theta[far])
            u[rows[far]] = 0.5 * half / sinh_theta[far] * half

    rows = np.flatnonzero(~hyperbolic)
    if rows.size:
        g = gap[rows]
        n_theta = n_float * (2.0 * call(math.asin, rows, np.sqrt(0.5 * g)))
        sin_theta = np.sqrt(g * (2.0 - g))
        t[rows] = call(math.cos, rows, n_theta)
        u[rows] = np.where(sin_theta == 0.0, n_float, call(math.sin, rows, n_theta) / sin_theta)
    return sign_t * t, sign_u * u, errors


def _pair(n: int, gap: float) -> tuple[float, float]:
    """A length-1 call of :func:`eval_pairs`, raising its error."""
    t, u, errors = eval_pairs(n, np.array([gap]))
    if errors:
        raise errors[0]
    return float(t[0]), float(u[0])


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


def cheb_pair(n: int, x: float) -> ChebyshevPair:
    """T_n(x) and U_{n-1}(x) for real x of any magnitude."""
    x = float(x)
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    n = check_count(n, "polynomial degree", 0)
    t, u = _pair(n, 1.0 - x)
    return ChebyshevPair(n=n, x=x, t_n=t, u_n_minus_1=u)


def cheb_t(n: int, x: float) -> float:
    """Chebyshev polynomial of the first kind, T_n(x)."""
    return cheb_pair(n, x).t_n


def cheb_u(n: int, x: float) -> float:
    """Chebyshev polynomial of the second kind, U_n(x)."""
    return cheb_pair(check_count(n, "polynomial degree", 0) + 1, x).u_n_minus_1
