"""Brute-force reference solutions: direct integration of the wave equation.

Nothing here touches the closed forms.  Two independent tiers:

* :func:`integrate_transfer_matrix` / :func:`incidence_scattering` - adaptive
  Runge-Kutta integration of psi'' = (V(x) - k^2) psi through the stack,
  segment by segment (the potential is constant inside each segment, so the
  step controller never straddles a discontinuity).  Interface continuity of
  psi and psi' is automatic; there is no manual wave matching anywhere.
* :func:`slab_propagation_matrix` - exact analytic propagation of (psi, psi')
  across each slab, multiplied up and converted to plane-wave amplitudes only
  at the outer edges.  Exact for rectangles, O(layers), used to cross-check
  the ODE tier and to reach larger stacks cheaply.

Both tiers share the global-coordinate amplitude convention of
:mod:`ptstack.core`.
"""

from __future__ import annotations

import cmath

import numpy as np

from .core import PotentialStack, TransferMatrix, check_wave_number

_SINC_SWITCH = 1e-4  # kept local: this tier must not lean on the closed-form module

# The one tolerance of the ODE tier's DOP853 step controller, tight enough
# that the tier's own error stays far below ORACLE_THRESHOLD of oracle-check.
REL_TOL = 1e-12
ABS_TOL = 1e-14


class IntegrationFailureError(RuntimeError, ArithmeticError):
    """The step controller could not reach the tolerance."""


def solve_ivp(*args, **kwargs):
    """scipy's ``solve_ivp``, imported on first call: only this tier needs scipy."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def _segments(stack: PotentialStack) -> list[tuple[float, float, complex]]:
    """(x_from, x_to, height) covering the support, gaps as height 0."""
    segments: list[tuple[float, float, complex]] = []
    cursor = stack.left_edge
    for layer in stack.layers:
        if layer.offset > cursor:
            segments.append((cursor, layer.offset, 0.0 + 0.0j))
        segments.append((layer.offset, layer.right_edge, complex(layer.height)))
        cursor = layer.right_edge
    return segments


def _integrate_through(
    stack: PotentialStack,
    k: float,
    y0: np.ndarray,
    backward: bool = False,
) -> np.ndarray:
    """Chain the state vector through every segment (pairs of psi, psi')."""
    segments = _segments(stack)
    if backward:
        segments = [(x1, x0, h) for (x0, x1, h) in reversed(segments)]
    y = np.asarray(y0, dtype=complex)
    for x_from, x_to, height in segments:
        w2 = height - k * k

        def rhs(x, state, w2=w2):
            out = np.empty_like(state)
            out[0::2] = state[1::2]
            out[1::2] = w2 * state[0::2]
            return out

        sol = solve_ivp(
            rhs,
            (x_from, x_to),
            y,
            method="DOP853",
            rtol=REL_TOL,
            atol=ABS_TOL,
            dense_output=False,
        )
        if not sol.success:
            raise IntegrationFailureError(
                f"integration failed on [{x_from}, {x_to}] "
                f"(V = {height}, k = {k}): {sol.message}"
            )
        y = sol.y[:, -1]
    return y


def _amplitudes_at(psi: complex, dpsi: complex, k: float, x: float) -> tuple[complex, complex]:
    """Split (psi, psi') at position x into (a, b) of a e^{ikx} + b e^{-ikx}."""
    phase = cmath.exp(-1j * k * x)
    a = 0.5 * (psi + dpsi / (1j * k)) * phase
    b = 0.5 * (psi - dpsi / (1j * k)) / phase
    return a, b


def integrate_transfer_matrix(stack: PotentialStack, k: float) -> TransferMatrix:
    """Transfer matrix of an arbitrary stack by direct integration.

    Two independent plane-wave initial conditions are carried from the left
    edge to the right edge; their images give the columns of the matrix.
    """
    k = check_wave_number(k)
    if not stack.layers:
        return TransferMatrix.identity(k)
    x_l, x_r = stack.left_edge, stack.right_edge
    right_mover = cmath.exp(1j * k * x_l)
    left_mover = cmath.exp(-1j * k * x_l)
    y0 = np.array(
        [right_mover, 1j * k * right_mover, left_mover, -1j * k * left_mover], dtype=complex
    )
    y = _integrate_through(stack, k, y0)
    a1, b1 = _amplitudes_at(complex(y[0]), complex(y[1]), k, x_r)
    a2, b2 = _amplitudes_at(complex(y[2]), complex(y[3]), k, x_r)
    return TransferMatrix(a1, a2, b1, b2, k)


def incidence_scattering(
    stack: PotentialStack, k: float, side: str = "left"
) -> tuple[complex, complex]:
    """(t, r) for a wave incident from ``side``, by solving the physical
    boundary-value problem directly (no transfer-matrix assembly).

    The far side is seeded with a pure outgoing wave of unit amplitude and
    integrated back to the incidence side, where the incoming and reflected
    components are read off.
    """
    k = check_wave_number(k)
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if not stack.layers:
        return 1.0 + 0.0j, 0.0j
    x_l, x_r = stack.left_edge, stack.right_edge
    if side == "left":
        out = cmath.exp(1j * k * x_r)
        y0 = np.array([out, 1j * k * out], dtype=complex)
        y = _integrate_through(stack, k, y0, backward=True)
        incoming, reflected = _amplitudes_at(complex(y[0]), complex(y[1]), k, x_l)
    else:
        out = cmath.exp(-1j * k * x_l)
        y0 = np.array([out, -1j * k * out], dtype=complex)
        y = _integrate_through(stack, k, y0)
        reflected, incoming = _amplitudes_at(complex(y[0]), complex(y[1]), k, x_r)
    return 1.0 / incoming, reflected / incoming


def _slab_terms(q2: complex, width: float) -> tuple[complex, complex]:
    """cos(q w) and sin(q w)/q, even in q; series below the q ~ 0 switch."""
    q = cmath.sqrt(q2)
    z = q * width
    c = cmath.cos(z)
    if abs(z) < _SINC_SWITCH:
        z2 = z * z
        s_over_q = width * (1.0 - z2 / 6.0 * (1.0 - z2 / 20.0))
    else:
        s_over_q = cmath.sin(z) / q
    return c, s_over_q


def slab_propagation_matrix(stack: PotentialStack, k: float) -> TransferMatrix:
    """Exact per-slab analytic propagation tier.

    Multiplies the (psi, psi') propagators of every segment,

        [[cos(q w), sin(q w)/q], [-q sin(q w), cos(q w)]],  q^2 = k^2 - V,

    then converts to plane-wave amplitudes at the two outer edges.
    """
    k = check_wave_number(k)
    if not stack.layers:
        return TransferMatrix.identity(k)
    p11, p12, p21, p22 = 1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j
    for x_from, x_to, height in _segments(stack):
        q2 = k * k - height
        c, s_over_q = _slab_terms(q2, x_to - x_from)
        p11, p12, p21, p22 = (
            c * p11 + s_over_q * p21,
            c * p12 + s_over_q * p22,
            -q2 * s_over_q * p11 + c * p21,
            -q2 * s_over_q * p12 + c * p22,
        )
    x_l, x_r = stack.left_edge, stack.right_edge
    right_mover = cmath.exp(1j * k * x_l)
    left_mover = cmath.exp(-1j * k * x_l)
    a1, b1 = _amplitudes_at(
        p11 * right_mover + p12 * (1j * k * right_mover),
        p21 * right_mover + p22 * (1j * k * right_mover),
        k,
        x_r,
    )
    a2, b2 = _amplitudes_at(
        p11 * left_mover + p12 * (-1j * k * left_mover),
        p21 * left_mover + p22 * (-1j * k * left_mover),
        k,
        x_r,
    )
    return TransferMatrix(a1, a2, b1, b2, k)
