"""Transmission and reflection coefficients extracted from a transfer matrix.

:func:`transmission_surface` evaluates the balanced stack over its (N, k)
grid in one straight-line loop over k per N (:func:`_surface_row`), the
public chain :func:`ptstack.stack.periodic_matrix` ->
:func:`scattering_from_matrix` written out operation for operation, so each
value is the same to the bit.  That chain (:func:`_surface_point`) is also
its error path.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from math import asin, cos, inf, isfinite, sin, sinh, sqrt

from .chebyshev import _pair
from .core import NonFiniteMatrixError, TransferMatrix, _SlotRecord, check_wave_number
from .stack import PeriodicSpec, periodic_matrix, sweep_terms

# Below this |m22| the amplitudes 1/m22 are treated as a pole (a spectral
# singularity of the potential) instead of returned as huge numbers.
POLE_TOLERANCE = 1e-14


class SpectralPoleError(ArithmeticError):
    """|m22| fell below POLE_TOLERANCE: scattering amplitudes diverge."""


class ScatteringCoefficients(namedtuple("ScatteringCoefficients", "t r_left r_right")):
    """Amplitudes t, r and intensity coefficients for both incidence sides.

    The transmission amplitude is side-independent by construction; the
    reflections generally are not.  For complex potentials big_t + big_r may
    exceed or fall short of 1 (gain/loss), so no unitarity is implied.
    """

    __slots__ = ()

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

    Raises OverflowError where |m22| leaves the double range and
    :class:`SpectralPoleError` where it is below POLE_TOLERANCE.
    """
    m22 = m.m22
    abs_m22 = abs(m22)
    if abs_m22 < POLE_TOLERANCE:
        raise SpectralPoleError(
            f"|m22| = {abs_m22:.3e} below {POLE_TOLERANCE}; scattering amplitudes diverge at k = {m.k}"
        )
    return ScatteringCoefficients(1.0 / m22, -m.m21 / m22, m.m12 / m22)


class TransmissionTable(_SlotRecord):
    """A transmission sweep by columns: ``big_t[i][j]`` (and likewise each
    column) is the point N = n_values[i], k = k_values[j].

    ``len`` counts the points.  Two tables are equal only if they are the
    same object.
    """

    __slots__ = ("n_values", "k_values", "big_t", "big_r_left", "big_r_right", "absdet_err")

    def __init__(
        self, n_values: tuple, k_values: list, big_t: list, big_r_left: list, big_r_right: list, absdet_err: list
    ) -> None:
        for name, value in zip(self.__slots__, (n_values, k_values, big_t, big_r_left, big_r_right, absdet_err)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.n_values) * len(self.k_values)


def _surface_point(spec: PeriodicSpec, k: float) -> tuple[float, float, float, float]:
    """T, R_left, R_right and |det - 1| at one (N, k) point through
    periodic_matrix -> scattering_from_matrix.

    Raises the error that chain meets first, or NonFiniteMatrixError for a
    point that computes but is not finite.
    """
    m = periodic_matrix(spec, k)
    s = scattering_from_matrix(m)
    values = s.big_t, s.big_r_left, s.big_r_right, m.absdet_err
    if not all(map(isfinite, values)):
        raise NonFiniteMatrixError(f"T, R or absdet_err leaves the double range at N = {spec.n_cells}, k = {k}")
    return values


def _surface_row(spec: PeriodicSpec, b: float, terms: list, big_t: list, big_r_left: list, big_r_right: list,
                 absdet_err: list) -> None:
    """Append T, R_left, R_right and |det - 1| at each k of ``terms`` and the
    N of ``spec`` to the four lists.

    :func:`_surface_point` written out in one loop: the steps of
    ``cell_terms``, the oscillatory branch of ``_pair`` (0 <= gap <= 1; any
    other gap calls ``_pair``), ``_cell_pattern`` and
    :func:`scattering_from_matrix`, each operation in the same order, so
    every value is the same to the bit.  A point that raises, or whose values
    are not finite or meet the pole, is computed again by
    :func:`_surface_point`, which raises its error.
    """
    n = spec.n_cells
    n_float = float(n)
    for point in terms:
        try:
            _, (rho, _, cos_phi, sin_phi, sin_2phi, u_plus, u_minus), phase = point
            b_rho = b * rho
            alpha, beta = b_rho * cos_phi, b_rho * sin_phi
            sin_a, sin_2a = sin(alpha), sin(2.0 * alpha)
            sinh_b, sinh_2b = sinh(beta), sinh(2.0 * beta)
            cos_sin_a = cos_phi * sin_a
            sin_sinh_b = sin_phi * sinh_b
            gap = 2.0 * (cos_sin_a - sin_sinh_b) * (cos_sin_a + sin_sinh_b)
            chi = 0.5 * (u_plus * cos_phi * sin_2a + u_minus * sin_phi * sinh_2b)
            eta = (sin_a * sin_a + sinh_b * sinh_b) * sin_2phi
            tau = 0.5 * (u_plus * sin_phi * sinh_2b + u_minus * cos_phi * sin_2a)
            if 0.0 <= gap <= 1.0:
                n_theta = n_float * (2.0 * asin(sqrt(0.5 * gap)))
                sin_theta = sqrt(gap * (2.0 - gap))
                t = cos(n_theta)
                u = n_float if sin_theta == 0.0 else sin(n_theta) / sin_theta
            else:
                t, u = _pair(n, gap)
            i_chi_u = 1j * chi * u
            m11 = (t + i_chi_u) * phase
            m12 = 1j * (eta - tau) * u * phase
            m21 = 1j * (eta + tau) * u / phase
            m22 = (t - i_chi_u) / phase
            point_t, point_r_left, point_r_right = abs(1.0 / m22) ** 2, abs(-m21 / m22) ** 2, abs(m12 / m22) ** 2
            point_err = abs(m11 * m22 - m12 * m21 - 1.0)
            # periodic_matrix's check of the entries is not needed: a
            # non-finite entry makes |det - 1| non-finite too.
            failed = abs(m22) < POLE_TOLERANCE or not point_t + point_r_left + point_r_right + point_err < inf
        except (ArithmeticError, ValueError, TypeError):
            failed = True
        if failed:
            point_t, point_r_left, point_r_right, point_err = _surface_point(spec, point[0])
        big_t.append(point_t)
        big_r_left.append(point_r_left)
        big_r_right.append(point_r_right)
        absdet_err.append(point_err)


def transmission_surface(
    v: float,
    total_length: float,
    n_values: Sequence[int],
    k_values: Iterable[float],
) -> TransmissionTable:
    """Dense sweep of T, R over an (N, k) grid, N-major then k.

    Rows are emitted in deterministic order; |det - 1| rides along so
    unimodularity drift stays visible in exported tables.  The k-only terms
    are computed once, then :func:`_surface_row` runs every k of each N.  A
    failing point raises its error, and the first one in N-major, then k,
    order is raised; a point whose T, R or |det - 1| is not finite raises
    :class:`NonFiniteMatrixError` instead of becoming a row.
    """
    k_list = [check_wave_number(k) for k in k_values]
    n_cells, columns, terms = [], ([], [], [], []), None
    for n in n_values:
        spec = PeriodicSpec(v=v, n_cells=n, total_length=total_length)
        n_cells.append(spec.n_cells)
        row = [], [], [], []
        if k_list:
            if terms is None:
                terms = [sweep_terms(spec.v, spec.total_length, k) for k in k_list]
            _surface_row(spec, spec.slab_width, terms, *row)
        for column, values in zip(columns, row):
            column.append(values)
    return TransmissionTable(tuple(n_cells), k_list, *columns)
