"""The DOP853 integrator of the ODE oracle tier, on plain Python complex numbers.

DOP853 is the explicit Runge-Kutta pair of order 8(5,3) of Dormand and
Prince, as given by Hairer, Norsett & Wanner, "Solving Ordinary Differential
Equations I", sec. II.5.  :func:`integrate` takes the steps of scipy's
``solve_ivp(method="DOP853")``: the same starting step, error norm and step
controller, so the right-hand-side calls are scipy's and the end states
agree to within 1e-14 (scaled).  The state is a list of Python complex
numbers.  Every weighted sum of stages is taken entry by entry, its nonzero
terms added in stage order with plain ``+``, and every norm is
``math.hypot`` of the real and imaginary parts: no BLAS call, no SIMD
kernel and no ``sum()`` (whose float summation changed in Python 3.12), so
the result does not depend on the CPU, numpy or OpenBLAS.  No dense output,
no step limit, no method choice.

Nothing here imports ptstack or numpy; :mod:`ptstack.oracle` loads this
module on its first integration.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# The tableau: the doubles of the coefficients of Hairer's dop853.f (the
# third-order error weights are b - bhh).  Twelve stages; row s of _A weighs
# stages 0..s-1.  f at the new point is not weighed: its error weights are 0.
_C = (
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6,
    0.8571428571428571, 1.0,
)
_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636),
)
_B = (
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
    0.04471061572777259,
)
_E3 = (
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082,
)
_E5 = (
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294,
)
_STAGES = len(_C)


def _terms(weights) -> tuple:
    """(j, w_j) for the nonzero weights, in stage order."""
    return tuple((j, w) for j, w in enumerate(weights) if w)


_A_TERMS = tuple(map(_terms, _A))
_B_TERMS, _E3_TERMS, _E5_TERMS = map(_terms, (_B, _E3, _E5))

# Step-size control: new step = old * SAFETY * error_norm^(-1/8), the factor
# clipped to [MIN_FACTOR, MAX_FACTOR] (never above 1 right after a rejection).
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1.0 / 8.0
_STEP_FLOOR_ULPS = 10  # a step below this many ulps of x fails


class OdeResult(NamedTuple):
    """End state of :func:`integrate` and its count of right-hand-side calls."""

    y: list
    nfev: int
    success: bool
    message: str


def _advance(y, h, terms, k) -> list:
    """y + h sum_j w_j k_j entry by entry, over the (j, w_j) terms in stage order."""
    total = []
    for i, y_i in enumerate(y):
        acc = 0j
        for j, w in terms:
            acc += w * k[j][i]
        total.append(y_i + acc * h)
    return total


def _norm(x, scale) -> float:
    """2-norm of x / scale, a complex vector over a real one."""
    return math.hypot(*[part / s for z, s in zip(x, scale) for part in (z.real, z.imag)])


def _error_scale(rtol, atol, *states) -> list:
    """atol + rtol * the largest |y| of the states, entry by entry."""
    return [atol + max(map(abs, entries)) * rtol for entries in zip(*states)]


def _initial_step(fun, x, y, f, x_end, direction, rtol, atol):
    """Starting step of Hairer, Norsett & Wanner, sec. II.4, for error order 7.

    Costs one call of ``fun``.
    """
    interval = abs(x_end - x)
    scale = _error_scale(rtol, atol, y)
    root_n = len(y) ** 0.5
    d0 = _norm(y, scale) / root_n
    d1 = _norm(f, scale) / root_n
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(x + h0 * direction, [y_i + h0 * direction * f_i for y_i, f_i in zip(y, f)])
    d2 = _norm([a - b for a, b in zip(f1, f)], scale) / root_n / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval)


def _rk_step(fun, x, y, f, h):
    """One DOP853 step of size h from (x, y), f = fun(x, y).

    Returns (y_new, f_new, k), k the twelve stages.
    """
    k = [f]
    for s in range(1, _STAGES):
        k.append(fun(x + _C[s] * h, _advance(y, h, _A_TERMS[s], k)))
    y_new = _advance(y, h, _B_TERMS, k)
    return y_new, fun(x + h, y_new), k


def _error_norm(k, h, scale):
    """DOP853's error measure: the fifth-order estimate, damped where the
    third-order one is large, err5^2 / sqrt((err5^2 + 0.01 err3^2) n)."""
    zero = [0j] * len(scale)  # the estimates are plain sums: y = 0, h = 1
    err5_2 = _norm(_advance(zero, 1.0, _E5_TERMS, k), scale) ** 2
    err3_2 = _norm(_advance(zero, 1.0, _E3_TERMS, k), scale) ** 2
    if err5_2 == 0 and err3_2 == 0:
        return 0.0
    return abs(h) * err5_2 / math.sqrt((err5_2 + 0.01 * err3_2) * len(scale))


def integrate(fun, x_span, y0, rtol: float, atol: float) -> OdeResult:
    """Integrate y' = fun(x, y) over ``x_span`` from y0 with DOP853.

    ``fun`` takes x and the state as a list of complex numbers and returns
    the derivative as a sequence of them.  No step limit.  The step sequence
    is that of scipy's ``solve_ivp(method="DOP853", rtol=rtol, atol=atol)``:
    the same starting step, error norm and controller.  A step whose error
    norm is NaN or inf, or that raises an ``ArithmeticError`` (Python's
    ``abs`` of a complex past the double range, say), is rejected like any
    other, and a starting step that raises one is NaN; when the step has to
    fall below 10 ulps of x, the result has ``success`` False.  A state that
    overflows shows up as that failure.
    """
    x, x_end = float(x_span[0]), float(x_span[1])
    y = list(map(complex, y0))
    direction = 1.0 if x_end > x else -1.0
    f = fun(x, y)
    nfev = 1
    if x != x_end:
        try:
            h_abs = _initial_step(fun, x, y, f, x_end, direction, rtol, atol)
        except ArithmeticError:
            h_abs = math.nan
        nfev += 1
    while direction * (x - x_end) < 0:
        min_step = _STEP_FLOOR_ULPS * abs(math.nextafter(x, direction * math.inf) - x)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # also stops a NaN step
                return OdeResult(
                    y, nfev, False,
                    f"required step size fell below {_STEP_FLOOR_ULPS} ulps of x = {x}",
                )
            x_new = x + h_abs * direction
            if direction * (x_new - x_end) > 0:
                x_new = x_end
            h = x_new - x
            h_abs = abs(h)
            try:
                y_new, f_new, k = _rk_step(fun, x, y, f, h)
                error_norm = _error_norm(k, h, _error_scale(rtol, atol, y, y_new))
            except ArithmeticError:
                error_norm = math.inf
            nfev += _STAGES
            if error_norm < 1:
                factor = _MAX_FACTOR
                if error_norm > 0:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
            rejected = True
        x, y, f = x_new, y_new, f_new
    return OdeResult(y, nfev, True, "")
