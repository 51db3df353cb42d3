import openqsl

# Every public name of the package. A helper that no module calls should not
# join it, and the paper's closed forms (f_ratio, t_qsl_strong_decoherence)
# should not leave it, without this list changing too.
PUBLIC_NAMES = [
    "DephasingQubitParams",
    "FisherReport",
    "LindbladModel",
    "ProductModelParams",
    "QslQuantities",
    "Trajectory",
    "adjoint_dissipator",
    "bloch_state",
    "commutator",
    "compute_quantities",
    "dephasing_model",
    "dissipator",
    "dynamics",
    "errors",
    "evolve",
    "exact_emission_time",
    "f_ratio",
    "first_passage_time",
    "fisher",
    "frobenius_norm",
    "kron",
    "linalg",
    "lindblad_rhs",
    "liouvillian_matrix",
    "log_inequality_margin",
    "models",
    "product_model_dense",
    "product_quantities_analytic",
    "projector",
    "pure_state",
    "qfi_bound",
    "qfi_short_time",
    "qsl",
    "qsl_lower_bound",
    "scaling_exponent",
    "short_time_window",
    "spontaneous_emission_model",
    "t_qsl",
    "t_qsl_strong_decoherence",
    "theta_dot_bound",
    "theta_dot_exact",
    "trace_product",
    "verify_fisher_tradeoff",
]


def test_public_names_are_pinned():
    assert sorted(openqsl.__all__) == PUBLIC_NAMES
    assert all(hasattr(openqsl, name) for name in PUBLIC_NAMES)
