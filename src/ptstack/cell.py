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

The elements are evaluated over a k array: :func:`wave_terms` holds what
depends on k and V only, :func:`cell_arrays` the rest at one slab width, and
:func:`unit_cell_elements` is a length-1 call of both.  numpy does only the
IEEE-exact real arithmetic there; sin, sinh, atan and the powers run through
Python's ``math`` on the elements (:func:`ptstack.core.libm`), because numpy's
own transcendental functions round differently from the C library's and
change with the SIMD code numpy picks for the CPU, which would make printed
digits depend on the host.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    NonFiniteMatrixError, TransferMatrix, cadd, check_finite, check_positive, check_wave_number, cmul, cquot,
    csub, error_mask, libm, mat_multiply, scalar_pair,
)

# Below this |q*width| the slab propagation uses the series form of
# sin(q w)/q; keeps barrier-top energies (q ~ 0) finite.
_SINC_SWITCH = 1e-4


@dataclass(frozen=True)
class CellParams:
    """Derived real quantities of one gain/loss cell at a given (k, V, b)."""

    k: float
    v: float
    b: float
    rho: float
    phi: float
    alpha: float
    beta: float
    u_plus: float
    u_minus: float
    xi: float
    chi: float
    eta: float
    tau: float
    one_minus_xi: float


class WaveTerms(NamedTuple):
    """The cell terms that depend on k and V only, one entry per k.

    ``failed`` marks the k where one of them left the double range: ``k**4``
    overflowed, or ``k*k`` or ``rho`` underflowed to 0 under a division.
    """

    k: np.ndarray
    rho: np.ndarray
    phi: np.ndarray
    cos_phi: np.ndarray
    sin_phi: np.ndarray
    sin_2phi: np.ndarray
    u_plus: np.ndarray
    u_minus: np.ndarray
    failed: np.ndarray


class CellArrays(NamedTuple):
    """The terms of the cell at one slab width b, one entry per k.

    ``failed`` adds to :attr:`WaveTerms.failed` the k where ``sin`` met an
    infinite ``alpha`` or ``sinh`` overflowed.
    """

    alpha: np.ndarray
    beta: np.ndarray
    xi: np.ndarray
    chi: np.ndarray
    eta: np.ndarray
    tau: np.ndarray
    one_minus_xi: np.ndarray
    failed: np.ndarray


_CELL_TERMS = ("rho", "phi", "alpha", "beta", "u_plus", "u_minus", "xi", "chi", "eta", "tau", "one_minus_xi")


def _check_cell(k: float, v: float, b: float) -> tuple[float, float, float]:
    return (
        check_wave_number(k),
        check_positive(v, "gain/loss magnitude V"),
        check_positive(b, "slab width b"),
    )


def cell_error(k: float, v: float, b: float) -> NonFiniteMatrixError:
    return NonFiniteMatrixError(f"cell elements leave the double range at k = {k}, V = {v}, b = {b}")


@np.errstate(all="ignore")
def wave_terms(k: np.ndarray, v: float) -> WaveTerms:
    """rho, phi, u_plus, u_minus and the trigonometric terms of phi over a k array."""
    k4, k4_errors = libm(lambda x: x ** 4, k)
    rho, rho_errors = libm(lambda x: x ** 0.25, k4 + v * v)
    kk = k * k
    phi = 0.5 * libm(math.atan, v / kk)[0]
    u_plus = k / rho + rho / k
    u_minus = k / rho - rho / k
    failed = error_mask({**k4_errors, **rho_errors}, len(k)) | (kk == 0.0) | (rho == 0.0)
    cos_phi, sin_phi, sin_2phi = (libm(math.cos, phi)[0], libm(math.sin, phi)[0], libm(math.sin, 2.0 * phi)[0])
    return WaveTerms(k, rho, phi, cos_phi, sin_phi, sin_2phi, u_plus, u_minus, failed)


@np.errstate(all="ignore")
def _slab_phases(w: WaveTerms, b: float) -> tuple[np.ndarray, np.ndarray]:
    """alpha = b rho cos(phi) and beta = b rho sin(phi)."""
    b_rho = b * w.rho
    return b_rho * w.cos_phi, b_rho * w.sin_phi


@np.errstate(all="ignore")
def cell_arrays(w: WaveTerms, b: float) -> CellArrays:
    """xi, chi, eta, tau and 1 - xi at slab width b over the k of ``w``."""
    alpha, beta = _slab_phases(w, b)
    sin_a, e1 = libm(math.sin, alpha)
    sin_2a, e2 = libm(math.sin, 2.0 * alpha)
    sinh_b, e3 = libm(math.sinh, beta)
    sinh_2b, e4 = libm(math.sinh, 2.0 * beta)
    failed = w.failed | error_mask({**e1, **e2, **e3, **e4}, len(alpha))
    cos_sin_a = w.cos_phi * sin_a
    sin_sinh_b = w.sin_phi * sinh_b
    one_minus_xi = 2.0 * (cos_sin_a - sin_sinh_b) * (cos_sin_a + sin_sinh_b)
    chi = 0.5 * (w.u_plus * w.cos_phi * sin_2a + w.u_minus * w.sin_phi * sinh_2b)
    # (cosh(2b) - cos(2a))/2 == sin(a)^2 + sinh(b)^2, which avoids the 1 - 1
    # cancellation at small widths.
    eta = (sin_a * sin_a + sinh_b * sinh_b) * w.sin_2phi
    tau = 0.5 * (w.u_plus * w.sin_phi * sinh_2b + w.u_minus * w.cos_phi * sin_2a)
    return CellArrays(alpha, beta, 1.0 - one_minus_xi, chi, eta, tau, one_minus_xi, failed)


def wave_params(k: float, v: float, b: float) -> tuple[float, float, float, float, float, float]:
    """(rho, phi, alpha, beta, u_plus, u_minus) for a cell at (k, V, b)."""
    k, v, b = _check_cell(k, v, b)
    w = wave_terms(np.array([k]), v)
    if w.failed[0]:
        raise cell_error(k, v, b)
    alpha, beta = _slab_phases(w, b)
    return tuple(float(x[0]) for x in (w.rho, w.phi, alpha, beta, w.u_plus, w.u_minus))


def unit_cell_elements(k: float, v: float, b: float) -> CellParams:
    """All derived cell quantities, including the matrix elements.

    Raises :class:`NonFiniteMatrixError` when a quantity leaves the double
    range (``sinh`` of a large ``beta``, ``sin`` of an infinite ``alpha``, or
    ``k*k`` underflowing to 0).
    """
    k, v, b = _check_cell(k, v, b)
    w = wave_terms(np.array([k]), v)
    c = cell_arrays(w, b)
    if c.failed[0]:
        raise cell_error(k, v, b)
    terms = {**w._asdict(), **c._asdict()}
    return CellParams(k=k, v=v, b=b, **{f: float(terms[f][0]) for f in _CELL_TERMS})


_I = (0.0, 1.0)


@np.errstate(all="ignore")
def cell_pattern_pairs(t, u, chi, eta, tau, phase) -> tuple:
    """The four entries of the cell pattern below as (re, im) pairs.

    Each argument is a (re, im) pair; a real argument is (x, 0.0).  The
    products and quotients follow Python's evaluation of

        [[(t + 1j*chi*u) * phase, 1j*(eta - tau)*u * phase],
         [1j*(eta + tau)*u / phase, (t - 1j*chi*u) / phase]]

    step by step, so the entries are the bits the complex expression gives.
    """
    i_chi_u = cmul(cmul(_I, chi), u)
    return (
        cmul(cadd(t, i_chi_u), phase),
        cmul(cmul(cmul(_I, csub(eta, tau)), u), phase),
        cquot(cmul(cmul(_I, cadd(eta, tau)), u), phase),
        cquot(csub(t, i_chi_u), phase),
    )


def _cell_pattern(
    t: complex, u: complex, chi: complex, eta: complex, tau: complex, phase: complex, k: float
) -> TransferMatrix:
    """[[(t + i chi u) phase, i(eta - tau) u phase], [i(eta + tau) u / phase, (t - i chi u) / phase]].

    The shared shape of the one-cell matrix (t = xi, u = 1, phase = e^{-2ikb})
    and the N-cell matrix (t = T_N(xi), u = U_{N-1}(xi), phase = e^{-ikL}),
    with real elements for the balanced cell and complex ones, read off the
    (psi, psi') cell matrix, for any cell of slabs
    (:func:`ptstack.stack._cell_power`).  A length-1 call of
    :func:`cell_pattern_pairs`.
    """
    entries = cell_pattern_pairs(*map(scalar_pair, (t, u, chi, eta, tau, phase)))
    return TransferMatrix(*(complex(re[0], im[0]) for re, im in entries), k)


def unit_cell_matrix(k: float, v: float, b: float) -> TransferMatrix:
    """Transfer matrix of one gain/loss cell occupying [0, 2b]."""
    p = unit_cell_elements(k, v, b)
    return _cell_pattern(p.xi, 1.0, p.chi, p.eta, p.tau, cmath.exp(-2j * p.k * p.b), p.k)


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
    height = check_finite(complex(height), "barrier height")
    width = check_positive(width, "barrier width")
    offset = check_finite(float(offset), "barrier offset")
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


def cell_from_barriers(k: float, v: float, b: float) -> TransferMatrix:
    """The unit cell assembled as two single-slab matrices (+iV then -iV).

    Reference route for the closed form in :func:`unit_cell_matrix`.
    """
    first = barrier_matrix(k, 1j * v, b, 0.0)
    second = barrier_matrix(k, -1j * v, b, b)
    return mat_multiply(second, first)
