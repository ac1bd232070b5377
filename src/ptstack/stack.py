"""N identical gain/loss cells over a fixed total length, plus general stacks.

Two closed forms produce the N-cell matrix:

* :func:`periodic_matrix` - closed form: the N-cell matrix of cells on
  [0, L] is, with xi, chi, eta, tau the single-cell elements at b = L/(2N),

      [[(T_N(xi) + i*chi*U_{N-1}(xi)) e^{-ikL},  i(eta - tau) U_{N-1}(xi) e^{-ikL}],
       [ i(eta + tau) U_{N-1}(xi) e^{ikL},      (T_N(xi) - i*chi*U_{N-1}(xi)) e^{ikL}]]

  O(1) in N, the only practical route for large N.  A sweep takes
  :func:`sweep_terms` once per k and writes this function out in one loop
  over k per N (:func:`ptstack.scattering._surface_row`), bit for bit, with
  this function as its error path.
* :func:`alternating_matrix` - the unbalanced cell (v1 + i v2 then
  v1 - i eps v2), powered by :func:`_cell_power`, which takes any cell of
  slabs.  O(1) in N; it serves the generalized fine-layer study.

Both are held against one brute-force reference, O(number of layers) for any
stack: :func:`ptstack.oracle.slab_propagation_matrix`.  :func:`compose_stack`,
the plane-wave product of single-slab matrices, is not exported from
:mod:`ptstack`; it stays here only because perfbench's tracer wraps it.

Slab widths are always derived from (L, N) by :func:`slab_width`, b = L/(2N);
accumulating b 2N times would contaminate the fixed-length limit with rounding.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from collections.abc import Iterable

from .cell import _cell_pattern, _propagation_terms, barrier_matrix, cell_terms, wave_terms
from .chebyshev import _pair, cheb_pair_from_complex_gap
from .core import (
    Layer, NonFiniteMatrixError, PotentialStack, TransferMatrix, check_count, check_finite,
    check_positive, check_wave_number, mat_multiply,
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


def slab_width(total_length: float, n_cells: int) -> float:
    """b = L/(2N), the width of each slab of N two-slab cells on [0, L], or
    :class:`NonFiniteMatrixError` naming L and N where it underflows to 0."""
    b = total_length / (2.0 * cells_as_float(n_cells))
    if b == 0.0:
        raise NonFiniteMatrixError(f"slab width b = L/(2N) underflows to 0 at L = {total_length}, N = {n_cells}")
    return b


class PeriodicSpec(namedtuple("PeriodicSpec", "v n_cells total_length")):
    """N gain/loss cells of magnitude V filling total_length without gaps."""

    __slots__ = ()

    def __new__(cls, v: float, n_cells: int, total_length: float) -> "PeriodicSpec":
        v = check_positive(v, "V")
        n_cells = check_count(n_cells, "n_cells", 1)
        total_length = check_positive(total_length, "total_length")
        cells_as_float(n_cells)
        return tuple.__new__(cls, (v, n_cells, total_length))

    @classmethod
    def _make(cls, iterable) -> "PeriodicSpec":
        return cls(*iterable)

    @property
    def slab_width(self) -> float:
        """Width b of each of the 2N slabs (derived, never set directly)."""
        return slab_width(self.total_length, self.n_cells)


def sweep_terms(v: float, total_length: float, k: float) -> tuple:
    """What every N of a sweep at fixed (V, L) shares at one k: (k, the cell's
    :func:`ptstack.cell.wave_terms`, the phase e^{-ikL}).

    cmath.exp(-1j*k*L) is exp(0) * (cos(-kL), sin(-kL)), and raises a
    ValueError where kL is infinite; that phase is NaN, so every entry it
    multiplies is not finite.
    """
    kl = -(k * total_length)
    try:
        phase = complex(math.cos(kl), math.sin(kl))
    except ValueError:
        phase = complex(math.nan, 0.0)
    return k, wave_terms(k, v), phase


def periodic_matrix(spec: PeriodicSpec, k: float) -> TransferMatrix:
    """Closed-form transfer matrix of the N-cell stack on [0, total_length].

    Raises the error of the cell elements, then that of the Chebyshev pair,
    then :class:`NonFiniteMatrixError` where an entry is not finite.
    """
    k = check_wave_number(k)
    k, w, phase = sweep_terms(spec.v, spec.total_length, k)
    _, _, _, chi, eta, tau, one_minus_xi = cell_terms(k, spec.v, spec.slab_width, w)
    t, u = _pair(spec.n_cells, one_minus_xi)
    m = TransferMatrix(*_cell_pattern(t, u, chi, eta, tau, phase), k)
    if not m.is_finite:
        raise NonFiniteMatrixError(f"N-cell matrix overflows the double range at k = {k}, {spec}")
    return m


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
    """Validated (gain height, loss height, N, slab width) of the alternating
    stack; :class:`NonFiniteMatrixError` where eps * v2 overflows or b underflows."""
    n_cells = check_count(n_cells, "n_cells", 1)
    total_length = check_positive(total_length, "total_length")
    v1, v2, eps = check_finite(v1, "v1"), check_finite(v2, "v2"), check_finite(eps, "eps")
    loss = -eps * v2
    if math.isinf(loss):  # finite inputs can still overflow the product
        raise NonFiniteMatrixError(f"eps * v2 leaves the double range at v1 = {v1}, v2 = {v2}, eps = {eps}")
    return complex(v1, v2), complex(v1, loss), n_cells, slab_width(total_length, n_cells)


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


def _cell_power(slabs: Iterable[tuple[complex, float]], n_cells: int, total_length: float, k: float) -> TransferMatrix:
    """N-cell matrix on [0, total_length] of a cell of (height, width) slabs, left to right.

    In the (psi, psi') basis each slab is I + F, F = [[c - 1, S], [-q^2 S, c - 1]]
    with c - 1 = -2 sin^2(q w/2) and S = sin(q w)/q, and the cell A = I + E
    accumulates as E <- E + F + F.E.  Neither the gap 1 - x = -tr(E)/2 nor
    A - x I = E - (tr(E)/2) I subtracts two numbers near 1, and Cayley-Hamilton
    gives A^N = T_N(x) I + U_{N-1}(x) (A - x I).  In the plane-wave basis at the
    outer edges this is :func:`ptstack.cell._cell_pattern` with phase e^{-ikL},
    chi = (k E12 - E21/k)/2, tau = (k E12 + E21/k)/2 and eta = -i (E11 - E22)/2.

    O(1) in N.  OverflowError, ValueError and ZeroDivisionError propagate, and
    the result may still hold inf or NaN.
    """
    e11 = e12 = e21 = e22 = 0j
    for height, width in slabs:
        q2 = k * k - height
        _, s = _propagation_terms(q2, width)
        f, g = -2.0 * cmath.sin(0.5 * width * cmath.sqrt(q2)) ** 2, -q2 * s
        e11, e12, e21, e22 = (
            e11 + (f + (f * e11 + s * e21)),
            e12 + (s + (f * e12 + s * e22)),
            e21 + (g + (g * e11 + f * e21)),
            e22 + (f + (g * e12 + f * e22)),
        )
    t, u = cheb_pair_from_complex_gap(n_cells, -0.5 * (e11 + e22))
    chi, tau = 0.5 * (k * e12 - e21 / k), 0.5 * (k * e12 + e21 / k)
    return TransferMatrix(*_cell_pattern(t, u, chi, -0.5j * (e11 - e22), tau, cmath.exp(-1j * k * total_length)), k)


def alternating_matrix(
    v1: float, v2: float, eps: float, n_cells: int, total_length: float, k: float
) -> TransferMatrix:
    """Closed-form matrix of ``build_alternating(v1, v2, eps, n_cells, total_length)``.

    The Chebyshev power (:func:`_cell_power`) of the cell of slabs
    v1 + i v2 then v1 - i eps v2, each b = L/(2N) wide.  O(1) in N.  Raises
    :class:`NonFiniteMatrixError` when a value leaves the double range.
    """
    k = check_wave_number(k)
    h1, h2, n, b = _alternating_slabs(v1, v2, eps, n_cells, total_length)
    try:
        m = _cell_power(((h1, b), (h2, b)), n, float(total_length), k)
    except (OverflowError, ValueError, ZeroDivisionError):
        pass
    else:
        if m.is_finite:
            return m
    raise NonFiniteMatrixError(
        f"alternating stack matrix leaves the double range at k = {k}, "
        f"v1 = {v1}, v2 = {v2}, eps = {eps}, N = {n}"
    )
