import numpy as np
import pytest

from openqsl.dynamics import lindblad_rhs
from openqsl.models import IDENTITY_2, SIGMA_MINUS, SIGMA_X, SIGMA_Y, SIGMA_Z


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_complex_matrix(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def random_hermitian(rng, dim):
    a = random_complex_matrix(rng, dim)
    return 0.5 * (a + a.conj().T)


def random_state(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def four_stage_step(model, rho, h):
    """One classical four-stage RK4 step of the master equation: the oracle
    for every step the integrator takes from the Taylor terms."""
    k1 = lindblad_rhs(model, rho)
    k2 = lindblad_rhs(model, rho + (0.5 * h) * k1)
    k3 = lindblad_rhs(model, rho + (0.5 * h) * k2)
    k4 = lindblad_rhs(model, rho + h * k3)
    return rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


__all__ = [
    "IDENTITY_2",
    "SIGMA_MINUS",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "four_stage_step",
    "random_complex_matrix",
    "random_hermitian",
    "random_state",
]
