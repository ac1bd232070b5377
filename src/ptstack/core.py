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

The closed forms evaluate one point at a time on Python floats and complex
numbers, so every printed digit is the one CPython's own arithmetic and the
C library's ``math`` functions give; the package imports no numpy.  The
recorded outputs in ``tests/data`` hold byte for byte on CPython 3.10 to
3.13, whose rule is that a float meeting a complex is converted to
(x, 0.0) first; Python 3.14 changed that mixed-mode arithmetic.  They also
need glibc's FMA variants of ``sin``, ``cos``, ``exp``, ``log``, ``atan``,
``asin``, ``sinh``, ``cosh`` and ``asinh``, which glibc picks on x86-64
with AVX2 and FMA (CI's runners among them); the plain variants differ by
1-2 ulp on a few inputs.  Without the FMA variants 24 tests fail:
``test_cli.py::test_golden_output`` and
``test_cli.py::test_golden_output_as_a_process`` for the ``sweep-fig3``,
``sweep-fig3-config``, ``oracle-check`` and ``oracle-check-quick`` cases,
``test_cli.py::test_golden_sweep_on_one_cpu`` for the two sweep cases (each
in CSV and JSON), ``test_cli.py::test_benchmark_surface_digest`` in CSV and
JSON, and both tests in ``test_surface_points.py``; the oracle values that
``test_oracle.py`` records off the origin hold with and without them.
``tests/test_dispatch.py`` checks that a sweep and ``oracle-check --quick``
agree within 1e-13 with and without them.

The records are ``collections.namedtuple`` classes: immutable, unpackable and
equal to a tuple of the same values.  :class:`Layer` and
:class:`~ptstack.stack.PeriodicSpec` check their values in ``__new__``;
:class:`PotentialStack` and :class:`~ptstack.scattering.TransmissionTable`,
which have a length of their own, are ``__slots__`` classes.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

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
    try:
        value = float(value)
    except OverflowError:  # an int beyond the double range, whose repr may be too long to make
        raise ValueError(f"{name} must be finite and > 0, got a number beyond the double range") from None
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


def check_finite(value: complex, name: str, kind=None) -> complex:
    """Return ``value`` (real or complex), converted by ``kind`` (``float`` or
    ``complex``) if given, or raise ValueError unless it is finite: slab
    heights, offsets and the parameters they are built from."""
    try:
        if kind is not None:
            value = kind(value)
        finite = cmath.isfinite(value)
    except OverflowError:  # an int beyond the double range, whose repr may be too long to make
        raise ValueError(f"{name} must be finite, got a number beyond the double range") from None
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


class _SlotRecord:
    """Base of the records that are not tuples: fields in ``__slots__``, set
    once by ``__init__``.  Assigning or deleting a field raises
    AttributeError, the repr is ``Name(field=value, ...)`` and a copy or
    pickle is rebuilt through the constructor."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Layer(namedtuple("Layer", "height width offset")):
    """One rectangular slab: complex height over [offset, offset + width)."""

    __slots__ = ()

    def __new__(cls, height: complex, width: float, offset: float = 0.0) -> "Layer":
        check_positive(width, "layer width")
        check_finite(offset, "layer offset", float)
        check_finite(height, "layer height", complex)
        return tuple.__new__(cls, (height, width, offset))

    @classmethod
    def _make(cls, iterable) -> "Layer":
        return cls(*iterable)

    @property
    def right_edge(self) -> float:
        return self.offset + self.width


class PotentialStack(_SlotRecord):
    """Ordered, non-overlapping layers; gaps between layers are free space."""

    __slots__ = ("layers",)

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

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.layers == other.layers

    def __hash__(self) -> int:
        return hash(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    @property
    def left_edge(self) -> float:
        return self.layers[0].offset if self.layers else 0.0

    @property
    def right_edge(self) -> float:
        return self.layers[-1].right_edge if self.layers else 0.0


class TransferMatrix(namedtuple("TransferMatrix", "m11 m12 m21 m22 k")):
    """2x2 complex transfer matrix tagged with the wave number it was built at."""

    __slots__ = ()

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
