"""Fine-layer limit: convergence measurements of the balanced stack, and the
generalized (unbalanced) alternating stack against its mean-height barrier.

For the balanced gain/loss stack at fixed total length L, the N-cell matrix
tends to the identity as N grows.  The paper's leading orders, with
b = L/(2N):

    xi        -> 1 - (kL)^2 / (2 N^2)
    chi       -> kL / N
    arccos xi -> kL / N
    T_N(xi)   -> cos kL
    U_{N-1}   -> sin kL / sin(kL/N)   (~ N sin(kL)/(kL))
    chi*U     -> sin kL
    T_N(xi) + i chi U_{N-1}(xi) -> e^{ikL}       (diagonals -> 1)
    off-diagonal magnitude      -> V b/(2k) * sin kL  -> 0 like 1/N

Acceptance criterion 6 (``tests/test_acceptance.py``) checks this table
against the closed form.  Only the last line is computed here:
:func:`convergence_study` records it next to each measured off-diagonal.
Convergence is measured on the matrix itself (max-norm against the
identity), not only on the transmission: T -> 1 alone can mask residual
off-diagonal structure.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Sequence

from .cell import barrier_matrix
from .core import TransferMatrix, check_count, check_wave_number
from .stack import PeriodicSpec, alternating_matrix, periodic_matrix


class ConvergenceRecord(namedtuple(
    "ConvergenceRecord", "n k deviation_inf offdiag_measured offdiag_predicted diag_measured_err absdet_err"
)):
    """Deviation of the N-cell matrix from its limit at one schedule point."""

    __slots__ = ()


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
    prediction |V b/(2k) sin kL|, b = :attr:`PeriodicSpec.slab_width`, so the
    ratio can be read off directly; the prediction is 0.0 where the product
    underflows, kL rounding to 0 included.  Raises the first error of
    :class:`PeriodicSpec` or :func:`periodic_matrix` over the schedule, which
    names its quantity.
    """
    k = check_wave_number(k)
    records = []
    identity = TransferMatrix.identity(k)
    for n in _check_schedule(n_schedule):
        spec = PeriodicSpec(v=v, n_cells=n, total_length=total_length)
        m = periodic_matrix(spec, k)
        predicted = abs(spec.v * spec.slab_width / (2.0 * k) * math.sin(k * spec.total_length))
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


class GeneralizedLimitResult(namedtuple("GeneralizedLimitResult", "effective_height records converged")):
    """Deviation of an unbalanced alternating stack from its uniform-barrier limit.

    ``effective_height`` is the mean of the two slab heights,
    h = v1 + i(1-eps) v2/2, and every record measures the stack matrix
    against the single barrier of that height over the full length; the
    deviation falls like 1/N.  ``converged`` is False when that deviation
    fails to decrease over the schedule or never rises above rounding noise
    (about 1e3 ulps of the largest entry); callers should treat the schedule
    as carrying no convergence signal in that case rather than expect an
    exception.
    """

    __slots__ = ()


# Deviations below this many ulps of the largest entry are rounding noise and
# compare equal in the convergence test, so a schedule that shows only noise
# (identical slabs, eps = -1: at most ~105 ulps over 300 random draws) is not
# flagged as converged by chance.
_NOISE_ULPS = 1024


def generalized_limit_study(
    v1: float,
    v2: float,
    eps: float,
    total_length: float,
    n_schedule: Sequence[int],
    k: float,
) -> GeneralizedLimitResult:
    """Fine-layer limit of slabs alternating v1 + i v2 / v1 - i eps v2.

    Each stack matrix comes from the closed form :func:`alternating_matrix`
    (O(1) in N) and its deviation from the barrier of the mean height
    v1 + i(1-eps) v2/2 is recorded per N.  Raises
    :class:`NonFiniteMatrixError` when a stack matrix leaves the double
    range.
    """
    k = check_wave_number(k)
    ns = _check_schedule(n_schedule)
    matrices = [alternating_matrix(v1, v2, eps, n, total_length, k) for n in ns]
    mean_height = complex(v1, (1.0 - eps) * v2 / 2.0)
    reference = barrier_matrix(k, mean_height, total_length, 0.0)
    records = tuple(
        _deviation_record(n, k, m, reference, math.nan) for n, m in zip(ns, matrices)
    )
    scale = max(1.0, *(abs(z) for z in (reference.m11, reference.m12, reference.m21, reference.m22)))
    floor = _NOISE_ULPS * sys.float_info.epsilon * scale
    deviations = [max(r.deviation_inf, floor) for r in records]
    converged = all(b <= a * 1.05 for a, b in zip(deviations, deviations[1:])) and (
        deviations[-1] < deviations[0]
    )
    return GeneralizedLimitResult(effective_height=mean_height, records=records, converged=converged)
