"""Transfer-matrix scattering through layered complex potentials.

The package computes plane-wave scattering off finite stacks of rectangular
(generally complex) potential slabs.  Its centerpiece is the balanced
gain/loss cell (+iV, -iV) and its N-cell periodic repetition over a fixed
length, evaluated either in closed form via Chebyshev polynomials or by
explicit matrix composition (the unbalanced v1 + iv2 / v1 - i eps v2 cell
has a Chebyshev closed form too), together with the machinery to verify
that the fine-layer limit of such a stack is indistinguishable from free
space.
"""

from .cell import (
    CellParams,
    barrier_matrix,
    cell_from_barriers,
    unit_cell_elements,
    unit_cell_matrix,
    wave_params,
)
from .chebyshev import (
    ChebyshevPair,
    cheb_pair,
    cheb_pair_from_complex_gap,
    cheb_pair_from_gap,
    cheb_t,
    cheb_u,
)
from .core import (
    Layer,
    NonFiniteMatrixError,
    PotentialStack,
    TransferMatrix,
    WaveNumberMismatchError,
    check_wave_number,
    mat_multiply,
    mat_power_direct,
    translate,
)
from .limits import (
    AsymptoticPrediction,
    ConvergenceRecord,
    GeneralizedLimitResult,
    convergence_study,
    fit_loglog_slope,
    generalized_limit_study,
    predict_asymptotics,
)
from .oracle import (
    IntegrationFailureError,
    incidence_scattering,
    integrate_transfer_matrix,
    slab_propagation_matrix,
)
from .scattering import (
    POLE_TOLERANCE,
    ScatteringCoefficients,
    SpectralPoleError,
    TransmissionRow,
    scattering_from_matrix,
    transmission_surface,
)
from .stack import (
    PeriodicSpec,
    alternating_matrix,
    build_alternating,
    compose_stack,
    periodic_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticPrediction",
    "CellParams",
    "ChebyshevPair",
    "ConvergenceRecord",
    "GeneralizedLimitResult",
    "IntegrationFailureError",
    "Layer",
    "POLE_TOLERANCE",
    "NonFiniteMatrixError",
    "PeriodicSpec",
    "PotentialStack",
    "ScatteringCoefficients",
    "SpectralPoleError",
    "TransferMatrix",
    "TransmissionRow",
    "WaveNumberMismatchError",
    "alternating_matrix",
    "barrier_matrix",
    "cell_from_barriers",
    "check_wave_number",
    "cheb_pair",
    "cheb_pair_from_complex_gap",
    "cheb_pair_from_gap",
    "cheb_t",
    "cheb_u",
    "compose_stack",
    "convergence_study",
    "fit_loglog_slope",
    "generalized_limit_study",
    "incidence_scattering",
    "integrate_transfer_matrix",
    "mat_multiply",
    "mat_power_direct",
    "periodic_matrix",
    "predict_asymptotics",
    "scattering_from_matrix",
    "slab_propagation_matrix",
    "build_alternating",
    "transmission_surface",
    "translate",
    "unit_cell_elements",
    "unit_cell_matrix",
    "wave_params",
    "__version__",
]
