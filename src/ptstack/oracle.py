"""Brute-force reference solutions: direct integration of the wave equation.

Nothing here touches the closed forms.  Two independent tiers:

* :func:`integrate_transfer_matrix` / :func:`incidence_scattering` - adaptive
  Runge-Kutta integration of psi'' = (V(x) - k^2) psi through the stack,
  segment by segment (the potential is constant inside each segment, so the
  step controller never straddles a discontinuity).  Interface continuity of
  psi and psi' is automatic; there is no manual wave matching anywhere.  The
  integrator is the built-in DOP853 of :mod:`ptstack.dop853`, which takes
  w2 = V - k^2 of each segment and has the right-hand side (psi', w2 psi)
  written into its step, on plain Python floats and complex numbers, so no
  BLAS or SIMD kernel enters the tier.
* :func:`slab_propagation_matrix` - exact analytic propagation of (psi, psi')
  across each slab, multiplied up and applied to the plane waves only at the
  outer edges.  Exact for rectangles, O(layers), used to cross-check the ODE
  tier and to reach larger stacks cheaply.

The tiers share one plane-wave boundary, in the global-coordinate amplitude
convention of :mod:`ptstack.core`, and differ only in how they carry
(psi, psi') across the stack.
"""

from __future__ import annotations

import cmath

from .core import PotentialStack, TransferMatrix, check_wave_number

_SINC_SWITCH = 1e-4  # kept local: this tier must not lean on the closed-form module


class IntegrationFailureError(RuntimeError, ArithmeticError):
    """The step controller could not reach the tolerance."""


def solve_ivp(w2, x_span, y0):
    """Integrate psi'' = w2 psi over ``x_span`` from y0, a list of (psi,
    psi') pairs: DOP853 at dop853.REL_TOL / ABS_TOL, taking the steps of
    scipy's ``solve_ivp(method="DOP853")`` on (psi, psi')' = (psi', w2 psi).

    Returns a :class:`ptstack.dop853.OdeResult` (end state ``y``, ``nfev``,
    ``success``, ``message``); see :func:`ptstack.dop853.integrate`.
    """
    # Imported on the first integration: a process that never runs the ODE
    # tier does not compile the integrator.
    from .dop853 import integrate

    return integrate(w2, x_span, y0)


def _segments(stack: PotentialStack) -> list[tuple[float, float, complex]]:
    """(x_from, x_to, height) covering the support, gaps as height 0."""
    segments = []
    cursor = stack.left_edge
    for height, width, offset in stack.layers:
        if offset > cursor:
            segments.append((cursor, offset, 0.0 + 0.0j))
        cursor = offset + width
        segments.append((offset, cursor, complex(height)))
    return segments


def _integrate_through(
    stack: PotentialStack,
    k: float,
    y: list,
    backward: bool = False,
) -> list:
    """Chain the state vector through every segment (pairs of psi, psi')."""
    segments = _segments(stack)
    if backward:
        segments = [(x1, x0, h) for (x0, x1, h) in reversed(segments)]
    for x_from, x_to, height in segments:
        sol = solve_ivp(height - k * k, (x_from, x_to), y)
        if not sol.success:
            raise IntegrationFailureError(
                f"integration failed on [{x_from}, {x_to}] "
                f"(V = {height}, k = {k}): {sol.message}"
            )
        y = sol.y
    return y


def _plane_wave(ik: complex, x: float) -> tuple[complex, complex]:
    """(psi, psi') of e^{ikx} at x, for ik = 1j * k or -1j * k."""
    psi = cmath.exp(ik * x)
    return psi, ik * psi


def _amplitudes_at(psi: complex, dpsi: complex, k: float, x: float) -> tuple[complex, complex]:
    """Split (psi, psi') at position x into (a, b) of a e^{ikx} + b e^{-ikx}."""
    phase = cmath.exp(-1j * k * x)
    a = 0.5 * (psi + dpsi / (1j * k)) * phase
    b = 0.5 * (psi - dpsi / (1j * k)) / phase
    return a, b


def _transfer_matrix(stack: PotentialStack, k: float, carry) -> TransferMatrix:
    """The matrix whose columns are the images at the right edge of e^{ikx}
    and e^{-ikx}, which ``carry(stack, k, y)`` takes from the left edge."""
    k = check_wave_number(k)
    if not stack.layers:
        return TransferMatrix.identity(k)
    x_l, x_r = stack.left_edge, stack.right_edge
    psi1, dpsi1 = _plane_wave(1j * k, x_l)
    psi2, dpsi2 = _plane_wave(-1j * k, x_l)
    y = carry(stack, k, [psi1, dpsi1, psi2, dpsi2])
    a1, b1 = _amplitudes_at(y[0], y[1], k, x_r)
    a2, b2 = _amplitudes_at(y[2], y[3], k, x_r)
    return TransferMatrix(a1, a2, b1, b2, k)


def integrate_transfer_matrix(stack: PotentialStack, k: float) -> TransferMatrix:
    """Transfer matrix of an arbitrary stack by direct integration.

    Two independent plane-wave initial conditions are carried from the left
    edge to the right edge; their images give the columns of the matrix.
    """
    return _transfer_matrix(stack, k, _integrate_through)


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
        y = _integrate_through(stack, k, _plane_wave(1j * k, x_r), backward=True)
        incoming, reflected = _amplitudes_at(y[0], y[1], k, x_l)
    else:
        y = _integrate_through(stack, k, _plane_wave(-1j * k, x_l))
        reflected, incoming = _amplitudes_at(y[0], y[1], k, x_r)
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


def _propagate_through(stack: PotentialStack, k: float, y: list) -> list:
    """Apply the product of the segments' (psi, psi') propagators to both pairs."""
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
    psi1, dpsi1, psi2, dpsi2 = y
    return [
        p11 * psi1 + p12 * dpsi1,
        p21 * psi1 + p22 * dpsi1,
        p11 * psi2 + p12 * dpsi2,
        p21 * psi2 + p22 * dpsi2,
    ]


def slab_propagation_matrix(stack: PotentialStack, k: float) -> TransferMatrix:
    """Exact per-slab analytic propagation tier.

    Multiplies the (psi, psi') propagators of every segment,

        [[cos(q w), sin(q w)/q], [-q sin(q w), cos(q w)]],  q^2 = k^2 - V,

    then converts to plane-wave amplitudes at the two outer edges.
    """
    return _transfer_matrix(stack, k, _propagate_through)
