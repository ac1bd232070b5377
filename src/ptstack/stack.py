"""N identical gain/loss cells over a fixed total length, plus general stacks.

Two first-class routes produce the periodic matrix:

* :func:`periodic_matrix` - closed form: the N-cell matrix of cells on
  [0, L] is, with xi, chi, eta, tau the single-cell elements at b = L/(2N),

      [[(T_N(xi) + i*chi*U_{N-1}(xi)) e^{-ikL},  i(eta - tau) U_{N-1}(xi) e^{-ikL}],
       [ i(eta + tau) U_{N-1}(xi) e^{ikL},      (T_N(xi) - i*chi*U_{N-1}(xi)) e^{ikL}]]

  O(1) in N, the only practical route for large N.
* :func:`compose_stack` - explicit product of positioned single-slab
  matrices, O(number of layers).  Works for arbitrary heterogeneous stacks
  and anchors the closed form at small N.

Slab widths are always derived from (L, N) as b = L/(2N); accumulating b 2N
times would contaminate the fixed-length limit with rounding.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .cell import _cell_pattern, barrier_matrix, unit_cell_elements
from .chebyshev import cheb_pair_from_gap
from .core import (
    Layer, NonFiniteMatrixError, PotentialStack, TransferMatrix, check_wave_number, mat_multiply
)


@dataclass(frozen=True)
class PeriodicSpec:
    """N gain/loss cells of magnitude V filling total_length without gaps."""

    v: float
    n_cells: int
    total_length: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.v) and self.v > 0.0):
            raise ValueError(f"V must be finite and > 0, got {self.v!r}")
        if self.n_cells != int(self.n_cells) or int(self.n_cells) < 1:
            raise ValueError(f"n_cells must be a positive integer, got {self.n_cells!r}")
        object.__setattr__(self, "n_cells", int(self.n_cells))
        if not (math.isfinite(self.total_length) and self.total_length > 0.0):
            raise ValueError(f"total_length must be finite and > 0, got {self.total_length!r}")

    @property
    def slab_width(self) -> float:
        """Width b of each of the 2N slabs (derived, never set directly)."""
        return self.total_length / (2.0 * self.n_cells)


def periodic_matrix(spec: PeriodicSpec, k: float) -> TransferMatrix:
    """Closed-form transfer matrix of the N-cell stack on [0, total_length].

    Raises :class:`NonFiniteMatrixError` if an entry overflows to inf or NaN.
    """
    k = check_wave_number(k)
    p = unit_cell_elements(k, spec.v, spec.slab_width)
    pair = cheb_pair_from_gap(spec.n_cells, p.one_minus_xi)
    phase = cmath.exp(-1j * k * spec.total_length)
    m = _cell_pattern(pair.t_n, pair.u_n_minus_1, p.chi, p.eta, p.tau, phase, k)
    if not m.is_finite:
        raise NonFiniteMatrixError(f"N-cell matrix overflows the double range at k = {k}, {spec}")
    return m


def compose_stack(stack: PotentialStack, k: float) -> TransferMatrix:
    """Product of positioned single-slab matrices, leftmost applied first.

    Gaps between layers need no explicit factor: in global coordinates free
    space is the identity.
    """
    k = check_wave_number(k)
    net = TransferMatrix.identity(k)
    for layer in stack.layers:
        net = mat_multiply(barrier_matrix(k, layer.height, layer.width, layer.offset), net)
    return net


def build_alternating(
    v1: float, v2: float, eps: float, n_cells: int, total_length: float
) -> PotentialStack:
    """2N contiguous slabs alternating heights v1 + i*v2 and v1 - i*eps*v2.

    The v1 + i*v2 slab fills the gain slot of each cell (first of the pair),
    so (v1=0, eps=1) reproduces the periodic gain/loss system exactly.
    """
    n_cells = int(n_cells)
    if n_cells < 1:
        raise ValueError(f"n_cells must be >= 1, got {n_cells}")
    total_length = float(total_length)
    if not (math.isfinite(total_length) and total_length > 0.0):
        raise ValueError(f"total_length must be finite and > 0, got {total_length!r}")
    width = total_length / (2.0 * n_cells)
    gain = complex(v1, v2)
    loss = complex(v1, -eps * v2)
    layers = [
        Layer(height=gain if j % 2 == 0 else loss, width=width, offset=j * width)
        for j in range(2 * n_cells)
    ]
    return PotentialStack(layers)
