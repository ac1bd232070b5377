"""Fine-layer limit: leading-order predictors, convergence measurements, and
the generalized (unbalanced) alternating stack.

For the balanced gain/loss stack at fixed total length L, the N-cell matrix
tends to the identity as N grows.  The leading orders, with b = L/(2N):

    xi        -> 1 - (kL)^2 / (2 N^2)
    chi       -> kL / N
    arccos xi -> kL / N
    T_N(xi)   -> cos kL
    U_{N-1}   -> sin kL / sin(kL/N)   (~ N sin(kL)/(kL))
    chi*U     -> sin kL
    T_N(xi) + i chi U_{N-1}(xi) -> e^{ikL}       (diagonals -> 1)
    off-diagonal magnitude      -> V b/(2k) * sin kL  -> 0 like 1/N

Convergence is measured on the matrix itself (max-norm against the identity),
not only on the transmission: T -> 1 alone can mask residual off-diagonal
structure.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import namedtuple
from collections.abc import Sequence

from .cell import barrier_matrix
from .core import NonFiniteMatrixError, TransferMatrix, check_count, check_positive, check_wave_number
from .stack import PeriodicSpec, alternating_matrix, periodic_matrix


class AsymptoticPrediction(namedtuple("AsymptoticPrediction", (
    "k v total_length n xi_pred chi_pred arccos_xi_pred t_n_pred u_pred u_pred_small_angle chi_u_pred diag_pred "
    "offdiag_scale_pred"
))):
    """Leading-order values of the cell and stack quantities at one (k, N)."""

    __slots__ = ()


class ConvergenceRecord(namedtuple(
    "ConvergenceRecord", "n k deviation_inf offdiag_measured offdiag_predicted diag_measured_err absdet_err"
)):
    """Deviation of the N-cell matrix from its limit at one schedule point."""

    __slots__ = ()


def predict_asymptotics(k: float, v: float, total_length: float, n: int) -> AsymptoticPrediction:
    """Populate every leading-order predictor for the balanced stack.

    ``u_pred`` keeps the exact sin(kL/N) denominator; ``u_pred_small_angle``
    replaces it by kL/N.  Tests and ratio checks use the exact form.
    """
    k = check_wave_number(k)
    n = check_count(n, "n", 1)
    total_length = check_positive(total_length, "total_length")
    v = check_positive(v, "V")
    kl = k * total_length
    b = total_length / (2.0 * n)
    return AsymptoticPrediction(
        k=k,
        v=v,
        total_length=total_length,
        n=n,
        xi_pred=1.0 - kl * kl / (2.0 * n * n),
        chi_pred=kl / n,
        arccos_xi_pred=kl / n,
        t_n_pred=math.cos(kl),
        u_pred=math.sin(kl) / math.sin(kl / n),
        u_pred_small_angle=n * math.sin(kl) / kl,
        chi_u_pred=math.sin(kl),
        diag_pred=cmath.exp(1j * kl),
        offdiag_scale_pred=v * b / (2.0 * k) * math.sin(kl),
    )


def _deviation_record(n: int, k: float, m: TransferMatrix, ref: TransferMatrix, offdiag_predicted: float) -> ConvergenceRecord:
    d11 = abs(m.m11 - ref.m11)
    d12 = abs(m.m12 - ref.m12)
    d21 = abs(m.m21 - ref.m21)
    d22 = abs(m.m22 - ref.m22)
    return ConvergenceRecord(
        n=n,
        k=k,
        deviation_inf=max(d11, d12, d21, d22),
        offdiag_measured=max(d12, d21),
        offdiag_predicted=offdiag_predicted,
        diag_measured_err=max(d11, d22),
        absdet_err=m.absdet_err,
    )


def _check_schedule(n_schedule: Sequence[int]) -> list[int]:
    ns = [check_count(n, "n_schedule entry", 1) for n in n_schedule]
    if not ns:
        raise ValueError("n_schedule must not be empty")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"n_schedule must be strictly increasing, got {ns}")
    return ns


def convergence_study(
    k: float, v: float, total_length: float, n_schedule: Sequence[int]
) -> list[ConvergenceRecord]:
    """Deviation of the closed-form N-cell matrix from the identity, per N.

    Off-diagonal magnitudes are recorded next to their leading-order
    prediction |V b/(2k) sin kL| so the ratio can be read off directly.
    """
    k = check_wave_number(k)
    records = []
    identity = TransferMatrix.identity(k)
    for n in _check_schedule(n_schedule):
        spec = PeriodicSpec(v=v, n_cells=n, total_length=total_length)
        m = periodic_matrix(spec, k)
        predicted = abs(predict_asymptotics(k, v, total_length, n).offdiag_scale_pred)
        records.append(_deviation_record(n, k, m, identity, predicted))
    return records


def fit_loglog_slope(ns: Sequence[int], deviations: Sequence[float]) -> float:
    """Least-squares slope of log(deviation) against log(N).

    Deviations are floored at 1e-300 so an exact zero (a matrix that rounds
    to the identity) cannot poison the fit with -inf.  The centred closed
    form with correctly rounded sums: no BLAS or LAPACK kernel, so the bytes
    do not depend on the host's.
    """
    if len(ns) != len(deviations) or len(ns) < 2:
        raise ValueError("need at least two (N, deviation) pairs")
    xs = [math.log(n) for n in ns]
    ys = [math.log(max(d, 1e-300)) for d in deviations]
    x_mean, y_mean = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    dxs = [x - x_mean for x in xs]
    return math.fsum(dx * (y - y_mean) for dx, y in zip(dxs, ys)) / math.fsum(dx * dx for dx in dxs)


class GeneralizedLimitResult(namedtuple(
    "GeneralizedLimitResult", "effective_height records converged candidate_full_imbalance candidate_mean_height"
)):
    """Fitted constant-barrier equivalent of an unbalanced alternating stack.

    ``effective_height`` minimizes the entrywise least-squares distance
    between the single-barrier matrix of the full length and the stack
    matrix at the largest N of the schedule.  Two closed-form candidates are
    carried for comparison: the full uncompensated imbalance
    v1 + i(1-eps) v2 and the arithmetic mean of the two slab heights
    v1 + i(1-eps) v2/2.  ``converged`` is False when the deviation from the
    fitted barrier fails to decrease over the schedule or never rises above
    rounding noise (about 1e3 ulps of the largest entry); callers should treat
    the fit as unreliable in that case rather than expect an exception.
    """

    __slots__ = ()

    @property
    def residual_full_imbalance(self) -> float:
        return abs(self.effective_height - self.candidate_full_imbalance)

    @property
    def residual_mean_height(self) -> float:
        return abs(self.effective_height - self.candidate_mean_height)

    @property
    def closest_candidate(self) -> str:
        if self.residual_mean_height <= self.residual_full_imbalance:
            return "mean_height"
        return "full_imbalance"


# Gauss-Newton step cap; from the mean height 3-4 steps reach rounding noise.
_FIT_MAX_STEPS = 12

# Deviations below this many ulps of the largest entry are rounding noise and
# compare equal in the convergence test, so a schedule that shows only noise
# (identical slabs, eps = -1: at most ~105 ulps over 300 random draws) is not
# flagged as converged by chance.
_NOISE_ULPS = 1024


def _fit_effective_height(
    target: TransferMatrix, k: float, total_length: float, initial: complex
) -> complex:
    """Gauss-Newton fit of one complex barrier height to ``target``.

    ``barrier_matrix`` is analytic in the height h, so the Jacobian of the
    four complex entry residuals r is one complex column J and each step is
    h -= (J^H r) / (J^H J).  J is a central difference in h.  The step
    tolerance can sit below the rounding noise of the step (about 1e-14
    relative); the step cap then ends the loop.  Raises OverflowError when a
    step leaves the double range.
    """

    def residuals(h: complex) -> tuple[complex, ...]:
        m = barrier_matrix(k, h, total_length, 0.0)
        return (m.m11 - target.m11, m.m12 - target.m12, m.m21 - target.m21, m.m22 - target.m22)

    h = complex(initial)
    for _ in range(_FIT_MAX_STEPS):
        delta = 1e-6 * max(1.0, abs(h))
        r = residuals(h)
        jac = [(a - b) / (2.0 * delta) for a, b in zip(residuals(h + delta), residuals(h - delta))]
        step = sum(j.conjugate() * x for j, x in zip(jac, r)) / sum(abs(j) ** 2 for j in jac)
        if not cmath.isfinite(step):
            raise OverflowError("Gauss-Newton step is not finite")
        h -= step
        if abs(step) <= 1e-15 * max(1.0, abs(h)):
            break
    return h


def generalized_limit_study(
    v1: float,
    v2: float,
    eps: float,
    total_length: float,
    n_schedule: Sequence[int],
    k: float,
) -> GeneralizedLimitResult:
    """Fit the fine-layer limit of slabs alternating v1 + i v2 / v1 - i eps v2.

    Each stack matrix comes from the closed form :func:`alternating_matrix`
    (O(1) in N), the effective height is fitted at the largest N, and the
    per-N deviation from that fitted barrier is recorded.  Raises
    :class:`NonFiniteMatrixError` when a stack matrix or the fit leaves the
    double range.
    """
    k = check_wave_number(k)
    ns = _check_schedule(n_schedule)
    matrices = [alternating_matrix(v1, v2, eps, n, total_length, k) for n in ns]
    mean_height = complex(v1, (1.0 - eps) * v2 / 2.0)
    full_imbalance = complex(v1, (1.0 - eps) * v2)
    try:
        effective = _fit_effective_height(matrices[-1], k, total_length, mean_height)
    except OverflowError:
        raise NonFiniteMatrixError(
            f"effective-height fit leaves the double range at k = {k}, v1 = {v1}, v2 = {v2}, eps = {eps}"
        ) from None
    reference = barrier_matrix(k, effective, total_length, 0.0)
    records = tuple(
        _deviation_record(n, k, m, reference, math.nan) for n, m in zip(ns, matrices)
    )
    scale = max(1.0, *(abs(z) for z in (reference.m11, reference.m12, reference.m21, reference.m22)))
    floor = _NOISE_ULPS * sys.float_info.epsilon * scale
    deviations = [max(r.deviation_inf, floor) for r in records]
    converged = all(b <= a * 1.05 for a, b in zip(deviations, deviations[1:])) and (
        deviations[-1] < deviations[0]
    )
    return GeneralizedLimitResult(
        effective_height=effective,
        records=records,
        converged=converged,
        candidate_full_imbalance=full_imbalance,
        candidate_mean_height=mean_height,
    )
