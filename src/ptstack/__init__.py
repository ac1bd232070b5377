"""Transfer-matrix scattering through layered complex potentials.

The package computes plane-wave scattering off finite stacks of rectangular
(generally complex) potential slabs.  Its centerpiece is the balanced
gain/loss cell (+iV, -iV) and its N-cell periodic repetition over a fixed
length, evaluated in closed form via Chebyshev polynomials (the unbalanced
v1 + iv2 / v1 - i eps v2 cell has a Chebyshev closed form too), together
with the machinery to verify that the fine-layer limit of such a stack is
indistinguishable from free space.  The brute-force reference for the
closed forms is the oracle tier (:mod:`ptstack.oracle`).

``import ptstack`` loads no submodule and no numpy.  Each public name is
looked up in the submodule that defines it on first access
(``ptstack.periodic_matrix`` loads :mod:`ptstack.stack` and what it
imports), so a process compiles only the code it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(
        ("CellParams", "barrier_matrix", "unit_cell_elements", "unit_cell_matrix"),
        "cell",
    ),
    **dict.fromkeys(
        ("ChebyshevPair", "cheb_pair_from_complex_gap", "cheb_pair_from_gap"),
        "chebyshev",
    ),
    **dict.fromkeys(
        ("Layer", "NonFiniteMatrixError", "PotentialStack", "TransferMatrix", "check_wave_number",
         "mat_power_direct"),
        "core",
    ),
    **dict.fromkeys(
        ("ConvergenceRecord", "GeneralizedLimitResult", "convergence_study", "fit_loglog_slope",
         "generalized_limit_study"),
        "limits",
    ),
    **dict.fromkeys(
        ("IntegrationFailureError", "incidence_scattering", "integrate_transfer_matrix",
         "slab_propagation_matrix"),
        "oracle",
    ),
    **dict.fromkeys(
        ("POLE_TOLERANCE", "ScatteringCoefficients", "SpectralPoleError", "scattering_from_matrix",
         "transmission_surface"),
        "scattering",
    ),
    **dict.fromkeys(
        ("PeriodicSpec", "alternating_matrix", "build_alternating", "periodic_matrix"),
        "stack",
    ),
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list:
    return sorted({*globals(), *_EXPORTS})
