"""Reference models: driven dephasing qubit, amplitude damping, and the
locally-dephased N-qubit product chain with an O(N) analytic fast path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .dynamics import LindbladModel, adjoint_dissipator
from .errors import ResourceLimitError
from .qsl import QslQuantities

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |1><0|
IDENTITY_2 = np.eye(2, dtype=complex)

PRODUCT_DENSE_MAX_QUBITS = 12

# Excited-state population of the damping model decays as
# exp(-EMISSION_DECAY_PER_GAMMA * gamma * t). tests/test_models.py fits
# this rate to an integrated trajectory; the value is reported in CLI
# output metadata.
EMISSION_DECAY_PER_GAMMA = 1.0


@dataclass(frozen=True)
class DephasingQubitParams:
    """Rabi drive at rate omega about x, dephasing at rate gamma along z,
    initial state at Bloch polar angle theta."""

    omega: float
    gamma: float
    theta: float

    def __post_init__(self):
        if self.omega <= 0.0:
            raise ValueError("omega must be positive")
        if self.gamma < 0.0:
            raise ValueError("gamma must be nonnegative")
        if not (0.0 <= self.theta <= math.pi):
            raise ValueError("theta must lie in [0, pi]")


@dataclass(frozen=True)
class ProductModelParams:
    """N independent qubits, each driven about z and dephased along x."""

    n: int
    omega: float
    gamma: float
    theta: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if self.omega <= 0.0:
            raise ValueError("omega must be positive")
        if self.gamma < 0.0:
            raise ValueError("gamma must be nonnegative")
        if not (0.0 <= self.theta <= math.pi):
            raise ValueError("theta must lie in [0, pi]")


def bloch_state(theta: float) -> np.ndarray:
    """cos(theta/2)|0> + sin(theta/2)|1>."""
    return np.array([math.cos(theta / 2.0), math.sin(theta / 2.0)], dtype=complex)


def dephasing_model(p: DephasingQubitParams) -> tuple[LindbladModel, np.ndarray]:
    """Single qubit: H = (omega/2) sigma_x, L = sqrt(gamma) sigma_z."""
    h = 0.5 * p.omega * SIGMA_X
    ops = (math.sqrt(p.gamma) * SIGMA_Z,) if p.gamma > 0.0 else ()
    return LindbladModel(hamiltonian=h, lindblad_ops=ops), bloch_state(p.theta)


def spontaneous_emission_model(gamma: float) -> tuple[LindbladModel, np.ndarray]:
    """Amplitude damping from the excited state: H = 0, L = sqrt(gamma) sigma_-."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    h = np.zeros((2, 2), dtype=complex)
    ops = (math.sqrt(gamma) * SIGMA_MINUS,)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    return LindbladModel(hamiltonian=h, lindblad_ops=ops), psi0


def exact_emission_time(gamma: float, theta_target: float) -> float:
    """Closed-form first-passage time -ln(cos^2 Theta)/(gamma * decay rate)
    of the damping model; diverges as the target approaches pi/2."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    if not (0.0 < theta_target < math.pi / 2):
        raise ValueError(
            f"theta_target = {theta_target!r} outside (0, pi/2); the passage "
            "time diverges at pi/2"
        )
    rate = gamma * EMISSION_DECAY_PER_GAMMA
    return -math.log(math.cos(theta_target) ** 2) / rate


def _site_operator(op: np.ndarray, site: int, n: int) -> np.ndarray:
    """op acting on one site of an n-qubit register (dense)."""
    left = np.eye(2**site, dtype=complex)
    right = np.eye(2 ** (n - site - 1), dtype=complex)
    return linalg.kron(linalg.kron(left, op), right)


def product_model_dense(
    p: ProductModelParams, single_site: bool = False
) -> tuple[LindbladModel, np.ndarray]:
    """Dense 2^n-dimensional chain with one dephasing channel per site.

    ``single_site`` restricts the dissipation to the first qubit, which
    removes the extensive scaling of the dissipative terms.
    """
    if p.n > PRODUCT_DENSE_MAX_QUBITS:
        raise ResourceLimitError(
            f"dense product model capped at {PRODUCT_DENSE_MAX_QUBITS} qubits "
            f"(requested {p.n}); use product_quantities_analytic instead"
        )
    h = np.zeros((2**p.n, 2**p.n), dtype=complex)
    for site in range(p.n):
        h += 0.5 * p.omega * _site_operator(SIGMA_Z, site, p.n)
    sites = range(1) if single_site else range(p.n)
    ops = tuple(
        math.sqrt(p.gamma) * _site_operator(SIGMA_X, site, p.n) for site in sites
    ) if p.gamma > 0.0 else ()
    psi1 = bloch_state(p.theta)
    psi0 = psi1
    for _ in range(p.n - 1):
        psi0 = np.kron(psi0, psi1)
    return LindbladModel(hamiltonian=h, lindblad_ops=ops), psi0


def product_quantities_analytic(
    p: ProductModelParams, single_site: bool = False
) -> QslQuantities:
    """Speed-limit scalars of the product chain in O(1) time for any n.

    For a product state the cross terms of the summed adjoint dissipator
    factorize over sites: with D_i the single-site deformation,
    Tr(D_i D_j) = Tr(rho1 D)^2 for i != j, so

        g^2 = n Tr(D^2) + n(n-1) Tr(rho1 D)^2,

    while energy variance and jump-operator variance are additive over
    sites. Agreement with the dense construction is unit-tested for n <= 6.
    """
    psi1 = bloch_state(p.theta)
    rho1 = linalg.projector(psi1)
    n = p.n

    h1 = 0.5 * p.omega * SIGMA_Z
    hpsi = h1 @ psi1
    var_h1 = float(np.real(np.vdot(hpsi, hpsi))) - float(np.real(np.vdot(psi1, hpsi))) ** 2
    delta_h0 = math.sqrt(max(n * var_h1, 0.0))

    if p.gamma == 0.0:
        return QslQuantities.from_terms(delta_h0, 0.0, 0.0)

    l1 = math.sqrt(p.gamma) * SIGMA_X
    lpsi = l1 @ psi1
    var_l1 = float(np.real(np.vdot(lpsi, lpsi))) - abs(np.vdot(psi1, lpsi)) ** 2

    deformation = adjoint_dissipator(l1, rho1)
    self_overlap = float(np.real(linalg.trace_product(deformation, deformation)))
    cross_overlap = float(np.real(linalg.trace_product(rho1, deformation)))

    if single_site:
        e_term = max(var_l1, 0.0)
        g_sq = self_overlap
    else:
        e_term = n * max(var_l1, 0.0)
        g_sq = n * self_overlap + n * (n - 1) * cross_overlap**2
    g_term = math.sqrt(max(g_sq, 0.0))
    return QslQuantities.from_terms(delta_h0, g_term, e_term)


def scaling_exponent(samples) -> float:
    """Least-squares slope of log(t) against log(n) over (n, t) pairs."""
    pairs = [(float(n), float(t)) for n, t in samples]
    if len(pairs) < 3:
        raise ValueError("need at least 3 samples")
    ns = [n for n, _ in pairs]
    if any(n <= 0.0 for n in ns) or len(set(ns)) != len(ns):
        raise ValueError("n values must be positive and distinct")
    if any(t <= 0.0 for _, t in pairs):
        raise ValueError("t values must be positive")
    log_n = np.log([n for n, _ in pairs])
    log_t = np.log([t for _, t in pairs])
    return float(np.polyfit(log_n, log_t, 1)[0])
