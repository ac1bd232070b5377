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
  across each slab, multiplied up and converted to plane-wave amplitudes only
  at the outer edges.  Exact for rectangles, O(layers), used to cross-check
  the ODE tier and to reach larger stacks cheaply.

Both tiers share the global-coordinate amplitude convention of
:mod:`ptstack.core`.
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


# The last stack _segments was given and its segments: oracle-check passes
# each stack to up to four oracle calls for each of its k, and the segments
# are built once.  A stack is immutable, and holding it keeps its id from
# being reused.
_last_segments: tuple = (None, ())


def _segments(stack: PotentialStack) -> tuple[tuple[float, float, complex], ...]:
    """(x_from, x_to, height) covering the support, gaps as height 0."""
    global _last_segments
    last, segments = _last_segments
    if last is stack:
        return segments
    segments = []
    cursor = stack.left_edge
    for layer in stack.layers:
        if layer.offset > cursor:
            segments.append((cursor, layer.offset, 0.0 + 0.0j))
        segments.append((layer.offset, layer.right_edge, complex(layer.height)))
        cursor = layer.right_edge
    _last_segments = stack, tuple(segments)
    return _last_segments[1]


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
    y = _integrate_through(
        stack, k, [right_mover, 1j * k * right_mover, left_mover, -1j * k * left_mover]
    )
    a1, b1 = _amplitudes_at(y[0], y[1], k, x_r)
    a2, b2 = _amplitudes_at(y[2], y[3], k, x_r)
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
        y = _integrate_through(stack, k, [out, 1j * k * out], backward=True)
        incoming, reflected = _amplitudes_at(y[0], y[1], k, x_l)
    else:
        out = cmath.exp(-1j * k * x_l)
        y = _integrate_through(stack, k, [out, -1j * k * out])
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
