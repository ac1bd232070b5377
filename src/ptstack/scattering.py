"""Transmission and reflection coefficients extracted from a transfer matrix."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import TransferMatrix, check_wave_number
from .stack import PeriodicSpec, periodic_matrix

# Below this |m22| the amplitudes 1/m22 are treated as a pole (a spectral
# singularity of the potential) instead of returned as huge numbers.
POLE_TOLERANCE = 1e-14


class SpectralPoleError(ArithmeticError):
    """|m22| fell below POLE_TOLERANCE: scattering amplitudes diverge."""


@dataclass(frozen=True)
class ScatteringCoefficients:
    """Amplitudes t, r and intensity coefficients for both incidence sides.

    The transmission amplitude is side-independent by construction; the
    reflections generally are not.  For complex potentials big_t + big_r may
    exceed or fall short of 1 (gain/loss), so no unitarity is implied.
    """

    t: complex
    r_left: complex
    r_right: complex

    @property
    def big_t(self) -> float:
        return abs(self.t) ** 2

    @property
    def big_r_left(self) -> float:
        return abs(self.r_left) ** 2

    @property
    def big_r_right(self) -> float:
        return abs(self.r_right) ** 2


def scattering_from_matrix(m: TransferMatrix) -> ScatteringCoefficients:
    """t = 1/m22, r_left = -m21/m22, r_right = m12/m22.

    With the amplitude map (a+, b+) = M (a-, b-), left incidence means
    (1, r_l) -> (t, 0), whose second row forces r_l = -m21/m22 and whose
    first row gives t = det(M)/m22 = 1/m22; right incidence (0, t_r) ->
    (r_r, 1) gives t_r = 1/m22 and r_r = m12/m22.  The direct
    boundary-value integration in :mod:`ptstack.oracle` reproduces exactly
    this assignment.
    """
    if abs(m.m22) < POLE_TOLERANCE:
        raise SpectralPoleError(
            f"|m22| = {abs(m.m22):.3e} below {POLE_TOLERANCE}; "
            f"scattering amplitudes diverge at k = {m.k}"
        )
    return ScatteringCoefficients(
        t=1.0 / m.m22,
        r_left=-m.m21 / m.m22,
        r_right=m.m12 / m.m22,
    )


@dataclass(frozen=True)
class TransmissionRow:
    """One (N, k) point of a transmission sweep over a periodic stack."""

    n: int
    k: float
    big_t: float
    big_r_left: float
    big_r_right: float
    absdet_err: float


def transmission_surface(
    v: float,
    total_length: float,
    n_values: Sequence[int],
    k_values: Iterable[float],
) -> list[TransmissionRow]:
    """Dense sweep of T, R over an (N, k) grid, N-major then k.

    Rows are emitted in deterministic order; |det - 1| rides along so
    unimodularity drift stays visible in exported tables.
    """
    k_list = [check_wave_number(k) for k in k_values]
    rows = []
    for n in n_values:
        spec = PeriodicSpec(v=v, n_cells=n, total_length=total_length)
        for k in k_list:
            m = periodic_matrix(spec, k)
            coeffs = scattering_from_matrix(m)
            rows.append(
                TransmissionRow(
                    n=spec.n_cells,
                    k=k,
                    big_t=coeffs.big_t,
                    big_r_left=coeffs.big_r_left,
                    big_r_right=coeffs.big_r_right,
                    absdet_err=m.absdet_err,
                )
            )
    return rows
