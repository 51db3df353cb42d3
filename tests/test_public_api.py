import pytest

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


NAN = float("nan")
_QUANTITIES = openqsl.QslQuantities.from_terms(1.0, 1.0, 1.0)
_EMISSION = openqsl.spontaneous_emission_model(1.0)[0]
_RHO = openqsl.projector([1.0, 0.0])

# One NaN argument of each public guard that once let it through; each must
# raise the error that guard raises for a finite bad value.
NAN_ARGUMENTS = {
    "theta_dot_exact": lambda: openqsl.theta_dot_exact(_EMISSION, _RHO, _RHO, NAN),
    "qfi_short_time": lambda: openqsl.qfi_short_time(0.5, NAN),
    "qfi_bound": lambda: openqsl.qfi_bound(_QUANTITIES, NAN),
    "log_inequality_margin": lambda: openqsl.log_inequality_margin(NAN),
    "f_ratio": lambda: openqsl.f_ratio(NAN, 0.5),
    "exact_emission_time": lambda: openqsl.exact_emission_time(NAN, 0.5),
    "spontaneous_emission_model": lambda: openqsl.spontaneous_emission_model(NAN),
    "DephasingQubitParams.omega": lambda: openqsl.DephasingQubitParams(NAN, 1.0, 0.5),
    "DephasingQubitParams.gamma": lambda: openqsl.DephasingQubitParams(1.0, NAN, 0.5),
    "ProductModelParams.omega": lambda: openqsl.ProductModelParams(2, NAN, 1.0, 0.5),
    "ProductModelParams.gamma": lambda: openqsl.ProductModelParams(2, 1.0, NAN, 0.5),
    "time_grid": lambda: openqsl.fisher.time_grid([NAN]),
    "time_grid.increasing": lambda: openqsl.fisher.time_grid([1e-3, NAN]),
}


@pytest.mark.parametrize("name", NAN_ARGUMENTS)
def test_nan_argument_is_rejected(name):
    expected = openqsl.errors.SingularPointError if name == "theta_dot_exact" else ValueError
    with pytest.raises(expected):
        NAN_ARGUMENTS[name]()
