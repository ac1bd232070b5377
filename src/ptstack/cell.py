"""Closed-form matrices for one rectangular complex barrier and for the
balanced gain/loss unit cell.

The unit cell is a slab of height +iV on [0, b] immediately followed by a slab
of height -iV on [b, 2b] (V > 0).  Which slab comes first is fixed by the
element formulas below: composing the two single-barrier matrices in this
order reproduces the elements exactly, while the reverse order flips the sign
of ``eta``.  The cell matrix has the structure

    [[(xi + i*chi) e^{-2ikb},  i(eta - tau) e^{-2ikb}],
     [ i(eta + tau) e^{2ikb},  (xi - i*chi) e^{2ikb} ]]

with real xi, chi, eta, tau built from

    rho, phi : modulus and phase of sqrt(k^2 + iV) = rho*exp(i*phi),
               rho = (k^4 + V^2)^(1/4), phi = arctan(V/k^2)/2 in (0, pi/4)
    alpha    = b*rho*cos(phi),   beta = b*rho*sin(phi)
    u_pm     = k/rho +- rho/k

Unimodularity holds exactly as xi^2 + chi^2 + eta^2 - tau^2 = 1.

``one_minus_xi`` is carried alongside ``xi`` at full relative precision: the
large-N stack evaluation needs arccos(xi) where xi is within ulps of 1, and
recomputing 1 - xi from the rounded xi would destroy that limit.  The form
used here,

    1 - xi = 2*(cos(phi)*sin(alpha) - sin(phi)*sinh(beta))
             * (cos(phi)*sin(alpha) + sin(phi)*sinh(beta)),

is an exact rewrite of the xi definition (half-angle identities), worst-case
amplification rho^2/k^2 in the first factor.

The elements are evaluated one point at a time: :func:`wave_terms` holds
what depends on k and V only, so a sweep computes it once per k, and
:func:`cell_terms` the rest at one slab width.  :func:`unit_cell_elements`
is a call of both.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from .core import NonFiniteMatrixError, TransferMatrix, check_finite, check_positive, check_wave_number

# Below this |q*width| the slab propagation uses the series form of
# sin(q w)/q; keeps barrier-top energies (q ~ 0) finite.
_SINC_SWITCH = 1e-4


class CellParams(namedtuple("CellParams", "k v b rho phi alpha beta u_plus u_minus xi chi eta tau one_minus_xi")):
    """Derived real quantities of one gain/loss cell at a given (k, V, b)."""

    __slots__ = ()


def _check_cell(k: float, v: float, b: float) -> tuple[float, float, float]:
    return (
        check_wave_number(k),
        check_positive(v, "gain/loss magnitude V"),
        check_positive(b, "slab width b"),
    )


def cell_error(k: float, v: float, b: float) -> NonFiniteMatrixError:
    return NonFiniteMatrixError(f"cell elements leave the double range at k = {k}, V = {v}, b = {b}")


def wave_terms(k: float, v: float) -> tuple | None:
    """(rho, phi, cos_phi, sin_phi, sin_2phi, u_plus, u_minus) at (k, V), or
    None where one of them leaves the double range: ``k**4`` overflows, or
    ``k*k`` or ``rho`` underflows to 0 under a division."""
    try:
        rho = (k ** 4 + v * v) ** 0.25
    except OverflowError:
        return None
    kk = k * k
    if kk == 0.0 or rho == 0.0:
        return None
    phi = 0.5 * math.atan(v / kk)
    return rho, phi, math.cos(phi), math.sin(phi), math.sin(2.0 * phi), k / rho + rho / k, k / rho - rho / k


def cell_terms(k: float, v: float, b: float, w: tuple | None) -> tuple:
    """(alpha, beta, xi, chi, eta, tau, 1 - xi) at slab width b, from the
    :func:`wave_terms` ``w`` of (k, V).

    Raises :func:`cell_error` where ``w`` is None, ``sin`` meets an infinite
    ``alpha`` or ``sinh`` overflows.
    """
    if w is None:
        raise cell_error(k, v, b)
    rho, _, cos_phi, sin_phi, sin_2phi, u_plus, u_minus = w
    b_rho = b * rho
    alpha, beta = b_rho * cos_phi, b_rho * sin_phi
    try:
        sin_a, sin_2a = math.sin(alpha), math.sin(2.0 * alpha)
        sinh_b, sinh_2b = math.sinh(beta), math.sinh(2.0 * beta)
    except (OverflowError, ValueError):
        raise cell_error(k, v, b) from None
    cos_sin_a = cos_phi * sin_a
    sin_sinh_b = sin_phi * sinh_b
    one_minus_xi = 2.0 * (cos_sin_a - sin_sinh_b) * (cos_sin_a + sin_sinh_b)
    chi = 0.5 * (u_plus * cos_phi * sin_2a + u_minus * sin_phi * sinh_2b)
    # (cosh(2b) - cos(2a))/2 == sin(a)^2 + sinh(b)^2, which avoids the 1 - 1
    # cancellation at small widths.
    eta = (sin_a * sin_a + sinh_b * sinh_b) * sin_2phi
    tau = 0.5 * (u_plus * sin_phi * sinh_2b + u_minus * cos_phi * sin_2a)
    return alpha, beta, 1.0 - one_minus_xi, chi, eta, tau, one_minus_xi


def unit_cell_elements(k: float, v: float, b: float) -> CellParams:
    """All derived cell quantities, including the matrix elements.

    Raises :class:`NonFiniteMatrixError` when a quantity leaves the double
    range (``sinh`` of a large ``beta``, ``sin`` of an infinite ``alpha``, or
    ``k*k`` underflowing to 0).
    """
    k, v, b = _check_cell(k, v, b)
    w = wave_terms(k, v)
    alpha, beta, xi, chi, eta, tau, one_minus_xi = cell_terms(k, v, b, w)
    rho, phi, _, _, _, u_plus, u_minus = w
    return CellParams(k, v, b, rho, phi, alpha, beta, u_plus, u_minus, xi, chi, eta, tau, one_minus_xi)


def _cell_pattern(t, u, chi, eta, tau, phase) -> tuple[complex, complex, complex, complex]:
    """The entries of the plain complex expression

        [[(t + 1j*chi*u) * phase, 1j*(eta - tau)*u * phase],
         [1j*(eta + tau)*u / phase, (t - 1j*chi*u) / phase]]

    The shared shape of the one-cell matrix (t = xi, u = 1, phase = e^{-2ikb})
    and the N-cell matrix (t = T_N(xi), u = U_{N-1}(xi), phase = e^{-ikL}),
    with real elements for the balanced cell and complex ones, read off the
    (psi, psi') cell matrix, for any cell of slabs
    (:func:`ptstack.stack._cell_power`).
    """
    i_chi_u = 1j * chi * u
    return (
        (t + i_chi_u) * phase,
        1j * (eta - tau) * u * phase,
        1j * (eta + tau) * u / phase,
        (t - i_chi_u) / phase,
    )


def unit_cell_matrix(k: float, v: float, b: float) -> TransferMatrix:
    """Transfer matrix of one gain/loss cell occupying [0, 2b]."""
    p = unit_cell_elements(k, v, b)
    return TransferMatrix(*_cell_pattern(p.xi, 1.0, p.chi, p.eta, p.tau, cmath.exp(-2j * p.k * p.b)), p.k)


def _propagation_terms(q2: complex, width: float) -> tuple[complex, complex]:
    """cos(q*width) and sin(q*width)/q for q = sqrt(q2).

    Both are even in q, so the square-root branch is irrelevant.  Near q = 0
    (barrier-top energy) the quotient switches to its series to avoid 0/0.
    """
    q = cmath.sqrt(q2)
    z = q * width
    c = cmath.cos(z)
    if abs(z) < _SINC_SWITCH:
        z2 = z * z
        s_over_q = width * (1.0 - z2 / 6.0 * (1.0 - z2 / 20.0))
    else:
        s_over_q = cmath.sin(z) / q
    return c, s_over_q


def barrier_matrix(k: float, height: complex, width: float, offset: float = 0.0) -> TransferMatrix:
    """Transfer matrix of a single slab of complex ``height`` at ``offset``.

    Global coordinates: the slab occupies [offset, offset + width] and the
    amplitudes stay referenced to x = 0.  For real height and k^2 > height
    this reduces to the textbook rectangular-barrier matrix.
    """
    k = check_wave_number(k)
    height = check_finite(height, "barrier height", complex)
    width = check_positive(width, "barrier width")
    offset = check_finite(offset, "barrier offset", float)
    q2 = k * k - height
    try:
        c, s_over_q = _propagation_terms(q2, width)
        edge_phase = cmath.exp(-1j * k * width)
        position_phase = cmath.exp(-1j * k * (width + 2.0 * offset))
    except (OverflowError, ValueError):
        raise NonFiniteMatrixError(
            f"slab matrix leaves the double range at k = {k}, height = {height}, "
            f"width = {width}, offset = {offset}"
        ) from None
    diag = 0.5j * ((k * k + q2) / k) * s_over_q
    off = 0.5j * (height / k) * s_over_q
    return TransferMatrix(
        (c + diag) * edge_phase,
        -off * position_phase,
        off / position_phase,
        (c - diag) / edge_phase,
        k,
    )
