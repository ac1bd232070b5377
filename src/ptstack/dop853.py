"""The DOP853 integrator of the ODE oracle tier, for the wave equation
psi'' = w2 psi on plain Python floats and complex numbers.

DOP853 is the explicit Runge-Kutta pair of order 8(5,3) of Dormand and
Prince, as given by Hairer, Norsett & Wanner, "Solving Ordinary Differential
Equations I", sec. II.5.  :func:`integrate` solves psi'' = w2 psi, w2 a
complex constant, for any number of (psi, psi') pairs as the first-order
system (psi, psi')' = (psi', w2 psi), and takes the steps of scipy's
``solve_ivp(method="DOP853")`` on that system: the same starting step, error
norm and step controller, so the right-hand-side count is scipy's and the
end states agree to within 1e-14 (scaled).  The state is a list of Python
complex numbers.  Every weighted sum of stages is taken entry by entry, its
nonzero terms added in stage order with plain ``+``, and every norm is
``math.hypot`` of the real and imaginary parts: no BLAS call, no SIMD kernel
and no ``sum()`` (whose float summation changed in Python 3.12), so the
result does not depend on the CPU, numpy or OpenBLAS.  No dense output, no
step limit, no method choice, one tolerance.

A step is one function for every number of pairs, generated from the
tableau by :func:`_step_source` and compiled when this module loads, as
``collections.namedtuple`` builds its classes.  It loops over the pairs of
the state, and the loop body is straight-line: it holds the real and
imaginary parts of one pair and its stages as float locals and has the
right-hand side written in, so a weighted term is two float
multiplications and two float additions, which the interpreter
specialises, and no stage calls a function.  Each error norm is one
``math.hypot`` over the scaled parts of every entry, in entry order.  The
weights are their ``repr``, which reads back as the same double, and the
terms, their order and the 0.0 each sum starts from are those of a loop
over the tableau on complex numbers with a generic right-hand side, so the
step's results are that loop's bit for bit, with one exception.  CPython
3.10 to 3.13 multiply a float and a complex as two complex numbers, which
adds 0.0 times the other part to each part of the product; the step leaves
that term out.  It can only change the sign of a zero or turn an infinite
part into NaN: a sum that starts from +0.0 stays +0.0 whatever the sign of
its zero terms, and a step with an infinite part has an error norm of inf
or NaN and is rejected either way.  So the two differ only in the sign of a
part of the state that starts as -0.0 and stays zero, which no start state
of the oracle has.  The starting step (:func:`_initial_step`) forms
(psi', w2 psi) itself, so no right-hand-side function is passed around.

Nothing here imports ptstack or numpy; :mod:`ptstack.oracle` loads this
module on its first integration.
"""

from __future__ import annotations

import math
from collections import namedtuple

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
# clipped to [MIN_FACTOR, MAX_FACTOR] (never above 1 right after a rejection),
# at the one tolerance that keeps the ODE tier's error far below oracle-check's threshold.
REL_TOL = 1e-12
ABS_TOL = 1e-14
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1.0 / 8.0
_STEP_FLOOR_ULPS = 10  # a step below this many ulps of x fails


class OdeResult(namedtuple("OdeResult", "y nfev success message")):
    """End state of :func:`integrate` and its count of right-hand-side calls."""

    __slots__ = ()


def _norm(x, scale) -> float:
    """2-norm of x / scale, a complex vector over a real one."""
    return math.hypot(*[part / s for z, s in zip(x, scale) for part in (z.real, z.imag)])


def _initial_step(w2, y, interval, direction):
    """Starting step of Hairer, Norsett & Wanner, sec. II.4, for error order 7,
    from the state y of (psi, psi') pairs of psi'' = w2 psi.

    Costs one right-hand-side evaluation besides f = (psi', w2 psi) at y.
    """
    f = [f_i for psi, dpsi in zip(y[0::2], y[1::2]) for f_i in (dpsi, w2 * psi)]
    scale = [ABS_TOL + abs(y_i) * REL_TOL for y_i in y]
    root_n = len(y) ** 0.5
    d0 = _norm(y, scale) / root_n
    d1 = _norm(f, scale) / root_n
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    y1 = [y_i + (h0 * direction) * f_i for y_i, f_i in zip(y, f)]
    f1 = [f_i for psi, dpsi in zip(y1[0::2], y1[1::2]) for f_i in (dpsi, w2 * psi)]
    d2 = _norm([a - b for a, b in zip(f1, f)], scale) / root_n / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval)


def _step_source() -> str:
    """Source of ``step(y, h, w2r, w2i)``, one DOP853 step of
    size h from the state y of (psi, psi') pairs of psi'' = w2 psi,
    w2 = w2r + i w2i.

    The step returns (y_new, error_norm).  A loop over the pairs of y
    advances each pair on the real and imaginary parts of its entries and
    stages, held as float locals, with the operations of the complex loop
    over the tableau written out: each stage's state is y + h times the sum
    of its weighted stages, and its stage is (psi', w2 psi) of that state,
    so the stage of psi is a name for the state's psi' and only w2 psi is
    computed, as the complex product (w2r re - w2i im, w2r im + w2i re).
    The error estimates are the same sums at y = 0 and h = 1, the error
    scale is ABS_TOL + REL_TOL max(|y|, |y_new|) with Python's complex ``abs``
    (libm's ``hypot``, which raises ``OverflowError`` past the double range;
    it and ``math.hypot`` round differently), and the error norm is
    DOP853's, the fifth-order estimate damped where the third-order one is
    large, err5^2 / sqrt((err5^2 + 0.01 err3^2) n), each norm one ``hypot``
    over the scaled parts of all pairs (per-pair norms round differently).
    """
    entries = range(2)  # psi and psi' of the pair

    def stage(j, i, part):
        """Part ('r' or 'i') of entry i of stage j: for psi (i = 0) the
        psi' entry of stage j's state, y itself for stage 0."""
        if i:
            return f"k{j}_{i}{part}"
        return "y1" + part if j == 0 else f"Y{j}_1{part}"

    def weighed(terms, i, part):
        """The weighted stages of the (j, w_j) terms, in stage order."""
        return " + ".join(f"{w!r} * {stage(j, i, part)}" for j, w in terms)

    def advance(terms, i, part):
        """Part of y_i + (0 + the weighted stages) * h."""
        return f"y{i}{part} + (0.0 + {weighed(terms, i, part)}) * h"

    def times_w2(j, re, im):
        """Stage j of psi': w2 times the psi whose parts are re, im."""
        return [f"{stage(j, 1, 'r')} = w2r * {re} - w2i * {im}", f"{stage(j, 1, 'i')} = w2r * {im} + w2i * {re}"]

    pair = ["y0 = y[i]; y1 = y[i + 1]"]
    pair += [f"y{i}r = y{i}.real; y{i}i = y{i}.imag" for i in entries]
    pair += times_w2(0, "y0r", "y0i")
    for s in range(1, _STAGES):
        pair += [
            f"ur = {advance(_A_TERMS[s], 0, 'r')}",
            f"ui = {advance(_A_TERMS[s], 0, 'i')}",
            f"Y{s}_1r = {advance(_A_TERMS[s], 1, 'r')}",
            f"Y{s}_1i = {advance(_A_TERMS[s], 1, 'i')}",
            *times_w2(s, "ur", "ui"),
        ]
    pair += [f"n{i} = complex({advance(_B_TERMS, i, 'r')}, {advance(_B_TERMS, i, 'i')})" for i in entries]
    pair.append("y_new += (n0, n1)")
    for i in entries:  # the error scale: ABS_TOL + REL_TOL * max(|y|, |y_new|)
        pair.append(f"a = abs(y{i}); b = abs(n{i}); s{i} = {ABS_TOL!r} + (b if b > a else a) * {REL_TOL!r}")
    for parts, name, terms in (("err5", "e", _E5_TERMS), ("err3", "d", _E3_TERMS)):
        for i in entries:  # the norm drops the sign of a zero sum, so no 0.0 starts it
            pair += [f"{name}{i}r = {weighed(terms, i, 'r')}", f"{name}{i}i = {weighed(terms, i, 'i')}"]
        pair.append(f"{parts} += ({', '.join(f'{name}{i}r / s{i}, {name}{i}i / s{i}' for i in entries)})")
    body = [
        "y_new = []; err5 = []; err3 = []",
        "for i in range(0, size := len(y), 2):",
        *(f"    {line}" for line in pair),
        "err5_2 = hypot(*err5) ** 2",
        "err3_2 = hypot(*err3) ** 2",
        "if err5_2 == 0 and err3_2 == 0:",
        "    return y_new, 0.0",
        "return y_new, abs(h) * err5_2 / sqrt((err5_2 + 0.01 * err3_2) * size)",
    ]
    return "def step(y, h, w2r, w2i):\n" + "".join(f"    {line}\n" for line in body)


# The step of :func:`_step_source`, compiled once, when this module loads.
_namespace = {"hypot": math.hypot, "sqrt": math.sqrt}
exec(compile(_step_source(), "<dop853 step>", "exec"), _namespace)
_step = _namespace["step"]


def integrate(w2, x_span, y0) -> OdeResult:
    """Integrate psi'' = w2 psi over ``x_span`` with DOP853, from the state
    y0 of (psi, psi') pairs, as the system (psi, psi')' = (psi', w2 psi).

    w2 is a complex constant, y0 a sequence of complex numbers of even
    length.  No step limit.  The step sequence is that of scipy's
    ``solve_ivp(method="DOP853", rtol=REL_TOL, atol=ABS_TOL)`` on that system:
    the same starting step, error norm and controller, and ``nfev`` counts
    the right-hand-side evaluations scipy makes.  A step whose error norm
    is NaN or inf, or that raises an ``ArithmeticError`` (Python's ``abs``
    of a complex past the double range, say), is rejected like any other,
    and a starting step that raises one is NaN; when the step has to fall
    below 10 ulps of x, the result has ``success`` False.  A state that
    overflows shows up as that failure.
    """
    x, x_end = float(x_span[0]), float(x_span[1])
    y = list(map(complex, y0))
    if not y or len(y) % 2:
        raise ValueError(f"the state must be (psi, psi') pairs, got {len(y)} entries")
    w2 = complex(w2)
    direction = 1.0 if x_end > x else -1.0
    nfev = 1  # the derivative at the start, which the first step takes again
    if x != x_end:
        try:
            h_abs = _initial_step(w2, y, abs(x_end - x), direction)
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
                y_new, error_norm = _step(y, h, w2.real, w2.imag)
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
        x, y = x_new, y_new
    return OdeResult(y, nfev, True, "")
