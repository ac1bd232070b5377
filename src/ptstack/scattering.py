"""Transmission and reflection coefficients extracted from a transfer matrix.

:func:`transmission_surface` evaluates the balanced stack over a whole k grid
per N through the array kernels of :mod:`ptstack.stack`, and
:func:`scattering_from_matrix` is a length-1 call of the same amplitude
arrays.  As everywhere in the package, numpy does only IEEE-exact real
arithmetic on them and every libm call (here ``abs`` of a complex and its
square) runs through Python, so a sweep prints the digits the scalar
formulas give, whatever SIMD code numpy dispatches to on the host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import (
    NonFiniteMatrixError, TransferMatrix, absdet_errs, as_complex, check_wave_number, cquot, error_mask, libm,
    raise_first, scalar_pair,
)
from .stack import PeriodicSpec, periodic_arrays, sweep_terms

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


def _amplitudes(m12: tuple, m21: tuple, m22: tuple, k: Sequence[float]) -> tuple[tuple, list]:
    """(t, r_left, r_right) as (re, im) pairs of arrays, with the stages at
    which entries fail, for :func:`ptstack.core.raise_first`."""
    abs_m22, errors = libm(abs, as_complex(*m22))
    with np.errstate(invalid="ignore"):
        pole = abs_m22 < POLE_TOLERANCE
    amplitudes = (cquot((1.0, 0.0), m22), cquot((-m21[0], -m21[1]), m22), cquot(m12, m22))
    stages = [
        (error_mask(errors, len(k)), errors.__getitem__),
        (pole, lambda i: SpectralPoleError(
            f"|m22| = {float(abs_m22[i]):.3e} below {POLE_TOLERANCE}; "
            f"scattering amplitudes diverge at k = {k[i]}"
        )),
    ]
    return amplitudes, stages


def scattering_from_matrix(m: TransferMatrix) -> ScatteringCoefficients:
    """t = 1/m22, r_left = -m21/m22, r_right = m12/m22.

    With the amplitude map (a+, b+) = M (a-, b-), left incidence means
    (1, r_l) -> (t, 0), whose second row forces r_l = -m21/m22 and whose
    first row gives t = det(M)/m22 = 1/m22; right incidence (0, t_r) ->
    (r_r, 1) gives t_r = 1/m22 and r_r = m12/m22.  The direct
    boundary-value integration in :mod:`ptstack.oracle` reproduces exactly
    this assignment.
    """
    amplitudes, stages = _amplitudes(*map(scalar_pair, (m.m12, m.m21, m.m22)), [m.k])
    raise_first(stages)
    return ScatteringCoefficients(*(complex(re[0], im[0]) for re, im in amplitudes))


@dataclass(frozen=True)
class TransmissionRow:
    """One (N, k) point of a transmission sweep over a periodic stack."""

    n: int
    k: float
    big_t: float
    big_r_left: float
    big_r_right: float
    absdet_err: float


@dataclass(frozen=True, eq=False)
class TransmissionTable:
    """A transmission sweep by columns: row i of each array is N = n_values[i],
    column j is k = k_values[j].

    As a sequence it is the rows in N-major, then k, order: ``len`` counts
    the points and ``table[i]`` is a :class:`TransmissionRow`.
    """

    n_values: tuple
    k_values: np.ndarray
    big_t: np.ndarray
    big_r_left: np.ndarray
    big_r_right: np.ndarray
    absdet_err: np.ndarray

    def __len__(self) -> int:
        return len(self.n_values) * len(self.k_values)

    def __getitem__(self, index: int) -> TransmissionRow:
        i, j = divmod(range(len(self))[index], len(self.k_values))
        return TransmissionRow(
            self.n_values[i],
            float(self.k_values[j]),
            *(float(column[i, j]) for column in (self.big_t, self.big_r_left, self.big_r_right, self.absdet_err)),
        )

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def _surface_rows(spec: PeriodicSpec, terms, k_list: list) -> list:
    """T, R_left, R_right and |det - 1| of one N over the sweep's k grid.

    Raises the error of the first failing k, which is the one the scalar
    chain periodic_matrix -> scattering_from_matrix -> big_t, big_r_left,
    big_r_right, absdet_err meets first, or NonFiniteMatrixError for a row
    that computes but is not finite.
    """
    (m11, m12, m21, m22), stages = periodic_arrays(spec, terms)
    amplitudes, scattering_stages = _amplitudes(m12, m21, m22, k_list)
    stages += scattering_stages
    columns = []

    def stage(values_errors):
        values, errors = values_errors
        stages.append((error_mask(errors, len(k_list)), errors.__getitem__))
        return values

    squares = np.full(len(k_list), 2)
    for amplitude in amplitudes:  # abs(t) ** 2, abs(r_left) ** 2, abs(r_right) ** 2
        columns.append(stage(libm(pow, stage(libm(abs, as_complex(*amplitude))), squares)))
    columns.append(stage(absdet_errs(m11, m12, m21, m22)))
    stages.append((~np.isfinite(columns).all(axis=0), lambda i: NonFiniteMatrixError(
        f"T, R or absdet_err leaves the double range at N = {spec.n_cells}, k = {k_list[i]}"
    )))
    raise_first(stages)
    return columns


def transmission_surface(
    v: float,
    total_length: float,
    n_values: Sequence[int],
    k_values: Iterable[float],
) -> TransmissionTable:
    """Dense sweep of T, R over an (N, k) grid, N-major then k.

    Rows are emitted in deterministic order; |det - 1| rides along so
    unimodularity drift stays visible in exported tables.  The k-only terms
    are computed once, then each N costs one array evaluation over the k
    grid.  A failing point raises the error a point-by-point evaluation in
    the same order would raise first; a point whose T, R or |det - 1| is not
    finite raises :class:`NonFiniteMatrixError` instead of becoming a row.
    """
    k_list = [check_wave_number(k) for k in k_values]
    k = np.array(k_list, dtype=float)
    n_cells, rows, terms = [], [], None
    for n in n_values:
        spec = PeriodicSpec(v=v, n_cells=n, total_length=total_length)
        n_cells.append(spec.n_cells)
        if k_list:
            if terms is None:
                terms = sweep_terms(spec.v, spec.total_length, k)
            rows.append(_surface_rows(spec, terms, k_list))
    shape = (len(n_cells), len(k_list))
    columns = [np.array([row[c] for row in rows]).reshape(shape) for c in range(4)]
    return TransmissionTable(tuple(n_cells), k, *columns)
