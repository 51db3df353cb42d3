"""Geometric speed limits for Markovian open quantum systems.

The package simulates Lindblad dynamics of small dense systems, evaluates
an analytically computable bound on how fast the Bures angle to the
initial state can grow, and ships randomized falsification harnesses for
every inequality it implements.
"""

__version__ = "0.1.0"

from .dynamics import (
    LindbladModel,
    Trajectory,
    adjoint_dissipator,
    dissipator,
    evolve,
    first_passage_time,
    lindblad_rhs,
    liouvillian_matrix,
    theta_dot_exact,
)
from .fisher import (
    FisherReport,
    log_inequality_margin,
    qfi_bound,
    qfi_short_time,
    short_time_window,
    verify_fisher_tradeoff,
)
from .linalg import (
    commutator,
    frobenius_norm,
    kron,
    min_eigenvalue_hermitian,
    projector,
    pure_state,
    trace_product,
    validate_density_matrix,
)
from .models import (
    DephasingQubitParams,
    ProductModelParams,
    bloch_state,
    dephasing_model,
    exact_emission_time,
    product_model_dense,
    product_quantities_analytic,
    scaling_exponent,
    spontaneous_emission_model,
)
from .qsl import (
    BoundReport,
    QslQuantities,
    bures_angle,
    compute_quantities,
    evaluate_bound,
    f_ratio,
    qsl_lower_bound,
    t_qsl,
    t_qsl_strong_decoherence,
    theta_dot_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
