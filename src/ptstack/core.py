"""Domain types and 2x2 transfer-matrix algebra for one-dimensional scattering.

Conventions used throughout the package (natural units hbar = 1, 2m = 1):

* A scattering state behaves asymptotically as ``a*exp(ikx) + b*exp(-ikx)``
  on either side of the potential, with wave number ``k > 0``.
* The transfer matrix maps the left-side amplitude pair ``(a-, b-)`` to the
  right-side pair ``(a+, b+)``.
* Amplitudes are referenced to ``x = 0`` ("global coordinates"): a scatterer
  carries its own position inside the off-diagonal phases of its matrix, so
  matrices of non-overlapping scatterers compose by plain multiplication,
  rightmost scatterer leftmost in the product.
* Transmission and reflection follow ``t = 1/m22``, ``r_left = -m21/m22``,
  ``r_right = m12/m22`` (see :mod:`ptstack.scattering`).

Every matrix produced from a physical potential is unimodular (det = 1) up to
rounding; unimodularity is asserted in tests rather than enforced here so that
numerical drift stays measurable.

The closed forms evaluate a whole k grid at once, and their scalar entry
points are length-1 calls of the same arrays, so every printed digit must be
the one Python's scalar arithmetic gives, on any host.  numpy's
transcendental ufuncs and its complex arithmetic are not the C library's and
change with the CPU's SIMD dispatch, so the array code keeps to one rule:

* numpy does only IEEE-exact elementwise work on real float64 arrays:
  ``+ - * /``, ``sqrt``, comparisons and masks;
* every other libm call (sin, sinh, asin, atan, ``**``, ``abs`` of a complex)
  runs through Python on the array's elements (:func:`libm`);
* complex values travel as (re, im) pairs of float arrays, combined in the
  order of CPython 3.10/3.11's own complex product and quotient
  (:func:`cmul`, :func:`cquot`).  A Python float meeting a complex is the
  pair (x, 0.0), as those versions convert it.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

# Relative slack when checking that stacked layers do not overlap; offsets
# built as i*width can differ from accumulated sums by a few ulps.
_OVERLAP_RTOL = 1e-9


class WaveNumberMismatchError(ValueError):
    """Combining transfer matrices evaluated at different wave numbers."""


class NonFiniteMatrixError(ArithmeticError):
    """A computed transfer matrix has an inf or NaN entry (double range exceeded)."""


def check_positive(value: float, name: str) -> float:
    """Return ``value`` as a float, or raise ValueError unless it is finite and > 0.

    The one rule for every magnitude: V, slab widths and total lengths.
    """
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    return value


def check_wave_number(k: float) -> float:
    """Validate a scattering wave number and return it as a float.

    Only real k > 0 is supported; k = 0 is rejected because the cell
    quantities k/rho + rho/k and their relatives diverge there.
    """
    return check_positive(k, "wave number")


def check_count(n: int, name: str, minimum: int) -> int:
    """Return ``n`` as an int >= ``minimum``: cell counts and polynomial degrees.

    Integral floats (2.0) and numpy integers pass; 2.5 is rejected rather
    than truncated.
    """
    try:
        count = int(n)
    except (TypeError, ValueError, OverflowError):
        count = None
    if count is None or count != n or count < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {n!r}")
    return count


def check_finite(value: complex, name: str) -> complex:
    """Return ``value`` (real or complex) unchanged, or raise ValueError unless
    it is finite: slab heights and offsets."""
    if not cmath.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def libm(fn, *columns: np.ndarray) -> tuple[np.ndarray, dict]:
    """``fn`` applied through Python to each row of float arrays: (values, errors).

    The values are bit-identical to scalar calls because they are scalar
    calls.  ``errors`` maps the index of each row where ``fn`` raised to the
    exception it raised; those rows hold NaN.
    """
    args = [c.tolist() for c in columns]
    size = len(args[0])
    try:
        return np.fromiter(map(fn, *args), float, size), {}
    except (ArithmeticError, ValueError):
        pass
    values, errors = np.empty(size), {}
    for i, row in enumerate(zip(*args)):
        try:
            values[i] = fn(*row)
        except (ArithmeticError, ValueError) as exc:
            values[i], errors[i] = math.nan, exc
    return values, errors


def error_mask(errors: dict, size: int) -> np.ndarray:
    """Boolean mask of the rows that :func:`libm` reported in ``errors``."""
    mask = np.zeros(size, dtype=bool)
    mask[list(errors)] = True
    return mask


def raise_first(stages) -> None:
    """Raise the error of the first failing row, if any row fails.

    ``stages`` lists (mask, make_error) in the order a scalar evaluation of
    one row meets them; a row's error is that of its first failing stage,
    built by ``make_error(row)``.
    """
    stages = list(stages)
    failed = functools.reduce(np.logical_or, (mask for mask, _ in stages))
    if failed.any():
        row = int(np.argmax(failed))
        raise next(make_error(row) for mask, make_error in stages if mask[row])


def scalar_pair(z: complex) -> tuple[np.ndarray, np.ndarray]:
    """A number as a length-1 (re, im) pair; a real x is (x, 0.0), as CPython converts it."""
    z = complex(z)
    return np.array([z.real]), np.array([z.imag])


def cadd(a, b):
    """a + b for (re, im) pairs, as CPython's _Py_c_sum."""
    return a[0] + b[0], a[1] + b[1]


def csub(a, b):
    """a - b for (re, im) pairs, as CPython's _Py_c_diff."""
    return a[0] - b[0], a[1] - b[1]


def cmul(a, b):
    """a * b for (re, im) pairs, as CPython's _Py_c_prod."""
    (ar, ai), (br, bi) = a, b
    return ar * br - ai * bi, ar * bi + ai * br


@np.errstate(all="ignore")
def cquot(a, b):
    """a / b for (re, im) pairs of arrays, as CPython 3.10/3.11's _Py_c_quot.

    Smith's method: divide through by the larger of |b.re| and |b.im|.
    Where b == 0, for which CPython raises ZeroDivisionError, the result is
    NaN; callers reject a zero divisor before dividing.
    """
    (ar, ai), (br, bi) = a, b
    by_real = np.abs(br) >= np.abs(bi)
    ratio = np.where(by_real, bi / br, br / bi)
    denom = np.where(by_real, br + bi * ratio, br * ratio + bi)
    re = np.where(by_real, ar + ai * ratio, ar * ratio + ai) / denom
    im = np.where(by_real, ai - ar * ratio, ai * ratio - ar) / denom
    return re, im


def pairs_finite(*pairs) -> np.ndarray:
    """Mask of the rows where every (re, im) pair is finite."""
    return functools.reduce(np.logical_and, (np.isfinite(part) for pair in pairs for part in pair))


def as_complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex numbers (re, im), stored without arithmetic, for :func:`libm`
    to hand Python complex values to ``abs``: CPython's hypot with its own
    inf/NaN rules and OverflowError, which no numpy function reproduces."""
    z = np.empty(len(re), dtype=complex)
    z.real, z.imag = re, im
    return z


@np.errstate(all="ignore")
def absdet_errs(m11, m12, m21, m22) -> tuple[np.ndarray, dict]:
    """:attr:`TransferMatrix.absdet_err` over (re, im)-pair entries, as :func:`libm` returns it."""
    det = csub(cmul(m11, m22), cmul(m12, m21))
    return libm(abs, as_complex(det[0] - 1.0, det[1] - 0.0))


@dataclass(frozen=True)
class Layer:
    """One rectangular slab: complex height over [offset, offset + width)."""

    height: complex
    width: float
    offset: float = 0.0

    def __post_init__(self) -> None:
        check_positive(self.width, "layer width")
        check_finite(float(self.offset), "layer offset")
        check_finite(complex(self.height), "layer height")

    @property
    def right_edge(self) -> float:
        return self.offset + self.width


@dataclass(frozen=True)
class PotentialStack:
    """Ordered, non-overlapping layers; gaps between layers are free space."""

    layers: tuple[Layer, ...]

    def __init__(self, layers) -> None:
        ordered = tuple(sorted(layers, key=lambda layer: layer.offset))
        span = ordered[-1].right_edge - ordered[0].offset if ordered else 0.0
        slack = _OVERLAP_RTOL * max(span, 1.0)
        for left, right in zip(ordered, ordered[1:]):
            if right.offset < left.right_edge - slack:
                raise ValueError(
                    f"layers overlap: [{left.offset}, {left.right_edge}] and "
                    f"[{right.offset}, {right.right_edge}]"
                )
        object.__setattr__(self, "layers", ordered)

    def __len__(self) -> int:
        return len(self.layers)

    @property
    def left_edge(self) -> float:
        return self.layers[0].offset if self.layers else 0.0

    @property
    def right_edge(self) -> float:
        return self.layers[-1].right_edge if self.layers else 0.0

    @property
    def total_support(self) -> float:
        """Distance between the outermost edges (zero for an empty stack)."""
        return self.right_edge - self.left_edge


@dataclass(frozen=True)
class TransferMatrix:
    """2x2 complex transfer matrix tagged with the wave number it was built at."""

    m11: complex
    m12: complex
    m21: complex
    m22: complex
    k: float

    @classmethod
    def identity(cls, k: float) -> "TransferMatrix":
        return cls(1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j, float(k))

    @property
    def det(self) -> complex:
        return self.m11 * self.m22 - self.m12 * self.m21

    @property
    def absdet_err(self) -> float:
        """Unimodularity error |det - 1|, exported as ``absdet_err``."""
        return abs(self.det - 1.0)

    @property
    def is_finite(self) -> bool:
        return all(cmath.isfinite(z) for z in (self.m11, self.m12, self.m21, self.m22))


def mat_multiply(m2: TransferMatrix, m1: TransferMatrix) -> TransferMatrix:
    """Return m2 . m1, the matrix of scatterer 1 followed by scatterer 2.

    Raises :class:`WaveNumberMismatchError` if the two matrices were not
    evaluated at the same wave number.
    """
    if m1.k != m2.k:
        raise WaveNumberMismatchError(
            f"cannot compose matrices at different wave numbers ({m1.k!r} vs {m2.k!r})"
        )
    return TransferMatrix(
        m2.m11 * m1.m11 + m2.m12 * m1.m21,
        m2.m11 * m1.m12 + m2.m12 * m1.m22,
        m2.m21 * m1.m11 + m2.m22 * m1.m21,
        m2.m21 * m1.m12 + m2.m22 * m1.m22,
        m1.k,
    )


def mat_power_direct(m: TransferMatrix, n: int) -> TransferMatrix:
    """n-fold repeated product of ``m`` with itself.

    Deliberately a plain left-multiplication loop: this is the reference the
    Chebyshev closed form is validated against, so it must not share that
    shortcut.  ``n = 0`` returns the identity (degenerate but well defined).
    """
    n = check_count(n, "matrix power n", 0)
    a11, a12, a21, a22 = 1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j
    for _ in range(n):
        a11, a12, a21, a22 = (
            m.m11 * a11 + m.m12 * a21,
            m.m11 * a12 + m.m12 * a22,
            m.m21 * a11 + m.m22 * a21,
            m.m21 * a12 + m.m22 * a22,
        )
    return TransferMatrix(a11, a12, a21, a22, m.k)


def translate(m: TransferMatrix, d: float) -> TransferMatrix:
    """Transfer matrix of the same scatterer shifted right by ``d``.

    Conjugation by the diagonal phase matrix diag(exp(-ikd), exp(ikd)):
    diagonals are untouched, so |t| and both |r| are unchanged.
    """
    phase = cmath.exp(-2j * m.k * d)
    return TransferMatrix(m.m11, m.m12 * phase, m.m21 / phase, m.m22, m.k)
