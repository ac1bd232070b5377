"""N identical gain/loss cells over a fixed total length, plus general stacks.

Three routes produce the N-cell matrix:

* :func:`periodic_matrix` - closed form: the N-cell matrix of cells on
  [0, L] is, with xi, chi, eta, tau the single-cell elements at b = L/(2N),

      [[(T_N(xi) + i*chi*U_{N-1}(xi)) e^{-ikL},  i(eta - tau) U_{N-1}(xi) e^{-ikL}],
       [ i(eta + tau) U_{N-1}(xi) e^{ikL},      (T_N(xi) - i*chi*U_{N-1}(xi)) e^{ikL}]]

  O(1) in N, the only practical route for large N.  It evaluates a whole
  k grid at once (:func:`periodic_arrays`); one k is a length-1 call.
* :func:`alternating_matrix` - the same Chebyshev power for the unbalanced
  cell (v1 + i v2 then v1 - i eps v2), whose half-trace is complex.  O(1) in
  N; it serves the generalized fine-layer study.
* :func:`compose_stack` - explicit product of positioned single-slab
  matrices, O(number of layers).  Works for arbitrary heterogeneous stacks
  and anchors both closed forms at small N.

Slab widths are always derived from (L, N) as b = L/(2N); accumulating b 2N
times would contaminate the fixed-length limit with rounding.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cell import (
    WaveTerms, _cell_pattern, _propagation_terms, barrier_matrix, cell_arrays, cell_error, cell_pattern_pairs,
    wave_terms,
)
from .chebyshev import cheb_pair_from_complex_gap, eval_pairs
from .core import (
    Layer, NonFiniteMatrixError, PotentialStack, TransferMatrix, check_count, check_finite,
    check_positive, check_wave_number, error_mask, libm, mat_multiply, pairs_finite, raise_first,
)


def cells_as_float(n_cells: int) -> float:
    """``float(n_cells)``, or :class:`NonFiniteMatrixError` naming n_cells
    when it lies beyond the double range."""
    try:
        return float(n_cells)
    except OverflowError:
        from decimal import Decimal

        raise NonFiniteMatrixError(
            f"n_cells = {Decimal(n_cells):.3e} is beyond the double range"
        ) from None


@dataclass(frozen=True)
class PeriodicSpec:
    """N gain/loss cells of magnitude V filling total_length without gaps."""

    v: float
    n_cells: int
    total_length: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "v", check_positive(self.v, "V"))
        object.__setattr__(self, "n_cells", check_count(self.n_cells, "n_cells", 1))
        object.__setattr__(self, "total_length", check_positive(self.total_length, "total_length"))
        cells_as_float(self.n_cells)

    @property
    def slab_width(self) -> float:
        """Width b of each of the 2N slabs (derived, never set directly)."""
        return self.total_length / (2.0 * self.n_cells)


class SweepTerms(NamedTuple):
    """What every N of a sweep at fixed (V, L) shares, one entry per k."""

    wave: WaveTerms
    phase: tuple  # e^{-ikL} as (re, im); NaN where kL leaves the double range


@np.errstate(all="ignore")
def sweep_terms(v: float, total_length: float, k: np.ndarray) -> SweepTerms:
    """The k-only terms of a sweep: the cell's wave terms and the phase e^{-ikL}.

    cmath.exp(-1j*k*L) is exp(0) * (cos(-kL), sin(-kL)), and raises a
    ValueError where kL is infinite; that phase is NaN.
    """
    kl = -(k * total_length)
    phase_re, _ = libm(math.cos, kl)
    phase_im, _ = libm(math.sin, kl)
    phase_im[np.isinf(kl)] = 0.0  # a float NaN meets a complex as (nan, 0.0)
    return SweepTerms(wave_terms(k, v), (phase_re, phase_im))


def periodic_arrays(spec: PeriodicSpec, terms: SweepTerms) -> tuple[tuple, list]:
    """Entries of the N-cell matrix over the k of ``terms`` as (re, im) pairs,
    with the stages at which entries fail, for :func:`ptstack.core.raise_first`."""
    k, b = terms.wave.k, check_positive(spec.slab_width, "slab width b")
    cell = cell_arrays(terms.wave, b)
    t, u, cheb_errors = eval_pairs(spec.n_cells, cell.one_minus_xi)
    real = [(x, 0.0) for x in (t, u, cell.chi, cell.eta, cell.tau)]
    entries = cell_pattern_pairs(*real, terms.phase)
    stages = [
        (cell.failed, lambda i: cell_error(float(k[i]), spec.v, b)),
        (error_mask(cheb_errors, len(k)), cheb_errors.__getitem__),
        (~pairs_finite(*entries), lambda i: NonFiniteMatrixError(
            f"N-cell matrix overflows the double range at k = {float(k[i])}, {spec}"
        )),
    ]
    return entries, stages


def periodic_matrix(spec: PeriodicSpec, k: float) -> TransferMatrix:
    """Closed-form transfer matrix of the N-cell stack on [0, total_length].

    A length-1 call of :func:`periodic_arrays`.  Raises
    :class:`NonFiniteMatrixError` if an entry overflows to inf or NaN.
    """
    k = check_wave_number(k)
    entries, stages = periodic_arrays(spec, sweep_terms(spec.v, spec.total_length, np.array([k])))
    raise_first(stages)
    return TransferMatrix(*(complex(re[0], im[0]) for re, im in entries), k)


def compose_stack(stack: PotentialStack, k: float) -> TransferMatrix:
    """Product of positioned single-slab matrices, leftmost applied first.

    Gaps between layers need no explicit factor: in global coordinates free
    space is the identity.  At small k the plane-wave factors lose accuracy:
    for the alternating stack at v1 = -100, v2 = 0.01, eps = 1.5, k = 0.1,
    L = 3.16, N = 4096 the product is 1.5e-10 (scaled) from a 40-digit
    power, where :func:`ptstack.oracle.slab_propagation_matrix` is 3.4e-12
    from it and is the tighter O(layers) reference.
    """
    k = check_wave_number(k)
    net = TransferMatrix.identity(k)
    for layer in stack.layers:
        net = mat_multiply(barrier_matrix(k, layer.height, layer.width, layer.offset), net)
    return net


def _alternating_slabs(
    v1: float, v2: float, eps: float, n_cells: int, total_length: float
) -> tuple[complex, complex, int, float]:
    """Validated (gain height, loss height, N, slab width) of the alternating stack."""
    n_cells = check_count(n_cells, "n_cells", 1)
    total_length = check_positive(total_length, "total_length")
    gain = check_finite(complex(v1, v2), "slab height")
    loss = check_finite(complex(v1, -eps * v2), "slab height")
    return gain, loss, n_cells, total_length / (2.0 * n_cells)


def build_alternating(
    v1: float, v2: float, eps: float, n_cells: int, total_length: float
) -> PotentialStack:
    """2N contiguous slabs alternating heights v1 + i*v2 and v1 - i*eps*v2.

    The v1 + i*v2 slab fills the gain slot of each cell (first of the pair),
    so (v1=0, eps=1) reproduces the periodic gain/loss system exactly.
    """
    gain, loss, n_cells, width = _alternating_slabs(v1, v2, eps, n_cells, total_length)
    layers = [
        Layer(height=gain if j % 2 == 0 else loss, width=width, offset=j * width)
        for j in range(2 * n_cells)
    ]
    return PotentialStack(layers)


def alternating_matrix(
    v1: float, v2: float, eps: float, n_cells: int, total_length: float, k: float
) -> TransferMatrix:
    """Closed-form matrix of ``build_alternating(v1, v2, eps, n_cells, total_length)``.

    With b = L/(2N), heights h1 = v1 + i v2, h2 = v1 - i eps v2 and, per slab,
    q_j^2 = k^2 - h_j, c_j = cos(q_j b), s_j = sin(q_j b)/q_j, the cell
    referenced to its own left edge is A = S2 S1 with

        S_j = [[c_j + i d_j, -i o_j], [i o_j, c_j - i d_j]],
        d_j = (k^2 + q_j^2) s_j / (2k),   o_j = h_j s_j / (2k).

    Stacking N cells gives diag(e^{-ikL}, e^{ikL}) A^N, and Cayley-Hamilton
    gives A^N = T_N(x) I + U_{N-1}(x) (A - x I) with x = tr(A)/2.  A has the
    shape of the balanced cell with complex elements

        chi = c2 d1 + c1 d2,   eta = i (h2 - h1) s1 s2 / 2,   tau = c2 o1 + c1 o2,
        A = [[x + i chi, i(eta - tau)], [i(eta + tau), x - i chi]],

    so A - x I never subtracts two entries near 1.  The gap 1 - x comes from
    the Kronig-Penney identity

        1 - x = 2 sin^2((q1 + q2) b / 2) + (q1 - q2)^2 s1 s2 / 2,

    with q1 - q2 = (h2 - h1)/(q1 + q2).  Both sides are even in q2, so q2
    takes the sign that keeps |q1 + q2| >= |q1 - q2|.  Taking 1 - x from the
    trace instead leaves an absolute error of ~1e-16 in a gap of order
    (kL/N)^2, which at N = 65536 moves the matrix by ~4e-7.

    O(1) in N.  Raises :class:`NonFiniteMatrixError` when a value leaves the
    double range.
    """
    k = check_wave_number(k)
    h1, h2, n, b = _alternating_slabs(v1, v2, eps, n_cells, total_length)
    try:
        c1, s1 = _propagation_terms(k * k - h1, b)
        c2, s2 = _propagation_terms(k * k - h2, b)
        q1 = cmath.sqrt(k * k - h1)
        q2 = cmath.sqrt(k * k - h2)
        if (q1 * q2.conjugate()).real < 0.0:
            q2 = -q2
        q_sum = q1 + q2
        q_diff = (h2 - h1) / q_sum if q_sum else 0.0j
        gap = 2.0 * cmath.sin(0.5 * q_sum * b) ** 2 + 0.5 * q_diff * q_diff * s1 * s2
        d1 = 0.5 * (2.0 * k * k - h1) / k * s1
        d2 = 0.5 * (2.0 * k * k - h2) / k * s2
        chi = c2 * d1 + c1 * d2
        eta = 0.5j * (h2 - h1) * s1 * s2
        tau = 0.5 * (c2 * h1 * s1 + c1 * h2 * s2) / k
        t, u = cheb_pair_from_complex_gap(n, gap)
        m = _cell_pattern(t, u, chi, eta, tau, cmath.exp(-1j * k * float(total_length)), k)
    except (OverflowError, ValueError, ZeroDivisionError):
        pass
    else:
        if m.is_finite:
            return m
    raise NonFiniteMatrixError(
        f"alternating stack matrix leaves the double range at k = {k}, "
        f"v1 = {v1}, v2 = {v2}, eps = {eps}, N = {n}"
    )
