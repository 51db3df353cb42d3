"""Reference models: driven dephasing qubit, amplitude damping, and the
locally-dephased N-qubit product chain, H = sum_i (omega/2) sigma_z^(i),
L_i = sqrt(gamma) sigma_x^(i), from n Bloch states of polar angle theta.

The chain's speed-limit scalars have a closed form in theta and n
(``product_quantities_analytic``): delta_h0 = omega (sin(theta)/2) sqrt(n),
e_term = gamma n cos^2(theta) and g_term = gamma |cos(theta)|
sqrt(n (2 + (n - 1) cos^2(theta))). With <sigma_x> = sin(theta), the
single-site deformation D = sigma_x rho1 sigma_x - rho1 has Tr(D^2) =
2 - 2 <sigma_x>^2 = 2 cos^2(theta) and Tr(rho1 D) = <sigma_x>^2 - 1 =
-cos^2(theta). ``product_model_dense`` builds the same chain as a dense
2^n-dimensional model, up to PRODUCT_DENSE_MAX_QUBITS sites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import linalg
from .dynamics import LindbladModel
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

# What each parameter of the dephasing and product models must satisfy, as
# (test, message), in the order their parameter classes check them. Every
# test fails on NaN; n also fails on infinities and fractions.
PARAMETER_RULES = {
    "n": (lambda v: v >= 1 and v % 1 == 0, "n must be a positive integer"),
    "omega": (lambda v: v > 0.0, "omega must be positive"),
    "gamma": (lambda v: v >= 0.0, "gamma must be nonnegative"),
    "theta": (lambda v: 0.0 <= v <= math.pi, "theta must lie in [0, pi]"),
}
# The damping model's rate, which its one channel needs nonzero.
EMISSION_GAMMA_RULE = (lambda v: v > 0.0, "gamma must be positive")


@dataclass(frozen=True)
class DephasingQubitParams:
    """Rabi drive at rate omega about x, dephasing at rate gamma along z,
    initial state at Bloch polar angle theta."""

    omega: float
    gamma: float
    theta: float

    def __post_init__(self):
        _check_fields(self)


@dataclass(frozen=True)
class ProductModelParams:
    """N independent qubits, each driven about z and dephased along x."""

    n: int
    omega: float
    gamma: float
    theta: float

    def __post_init__(self):
        _check_fields(self)
        object.__setattr__(self, "n", int(self.n))  # n = 2.0 is the 2-site chain


def check_parameter(rule: tuple, value: float) -> None:
    """Raise ValueError with the rule's message unless ``value`` passes it."""
    test, message = rule
    if not test(value):
        raise ValueError(message)


def _check_fields(params) -> None:
    for f in fields(params):
        check_parameter(PARAMETER_RULES[f.name], getattr(params, f.name))


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
    check_parameter(EMISSION_GAMMA_RULE, gamma)
    h = np.zeros((2, 2), dtype=complex)
    ops = (math.sqrt(gamma) * SIGMA_MINUS,)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    return LindbladModel(hamiltonian=h, lindblad_ops=ops), psi0


def exact_emission_time(gamma: float, theta_target: float) -> float:
    """Closed-form first-passage time -ln(cos^2 Theta)/(gamma * decay rate)
    of the damping model; diverges as the target approaches pi/2."""
    check_parameter(EMISSION_GAMMA_RULE, gamma)
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


def product_model_dense(p: ProductModelParams) -> tuple[LindbladModel, np.ndarray]:
    """Dense 2^n-dimensional chain with one dephasing channel per site."""
    if p.n > PRODUCT_DENSE_MAX_QUBITS:
        raise ResourceLimitError(
            f"dense product model capped at {PRODUCT_DENSE_MAX_QUBITS} qubits "
            f"(requested {p.n}); use product_quantities_analytic instead"
        )
    h = np.zeros((2**p.n, 2**p.n), dtype=complex)
    for site in range(p.n):
        h += 0.5 * p.omega * _site_operator(SIGMA_Z, site, p.n)
    ops = tuple(
        math.sqrt(p.gamma) * _site_operator(SIGMA_X, site, p.n) for site in range(p.n)
    ) if p.gamma > 0.0 else ()
    psi1 = bloch_state(p.theta)
    psi0 = psi1
    for _ in range(p.n - 1):
        psi0 = np.kron(psi0, psi1)
    return LindbladModel(hamiltonian=h, lindblad_ops=ops), psi0


def product_quantities_analytic(p: ProductModelParams) -> QslQuantities:
    """Speed-limit scalars of the product chain in closed form, O(1) for any n:

        delta_h0 = omega (sin(theta)/2) sqrt(n),
        e_term   = gamma n cos^2(theta),
        g_term   = gamma |cos(theta)| sqrt(n (2 + (n - 1) cos^2(theta))).

    Each site holds the Bloch state of polar angle theta, with <sigma_z> =
    cos(theta) and <sigma_x> = sin(theta), so var(sigma_z / 2) =
    sin^2(theta)/4 and var(sigma_x) = cos^2(theta), both additive over
    sites. Its deformation D = sigma_x rho1 sigma_x - rho1 has Tr(D^2) =
    2 - 2 Tr(rho1 sigma_x rho1 sigma_x) = 2 - 2 <sigma_x>^2 = 2 cos^2(theta)
    and Tr(rho1 D) = <sigma_x>^2 - 1 = -cos^2(theta). For a product state
    Tr(D_i D_j) = Tr(rho1 D)^2 for sites i != j, so g^2 = n Tr(D^2) +
    n(n-1) Tr(rho1 D)^2. Agreement with the dense construction is
    unit-tested for n <= 8.

    No rate is squared, so any finite omega and gamma give finite terms;
    without dephasing (gamma = 0) g_term and e_term are 0 and not formed.
    Raises ValueError naming n if a term overflows a float.
    """
    n = p.n
    g_term = e_term = 0.0
    try:
        delta_h0 = p.omega * (0.5 * math.sin(p.theta) * math.sqrt(n))
        if p.gamma != 0.0:
            cos = math.cos(p.theta)
            cos_sq = cos * cos
            e_term = p.gamma * (n * cos_sq)
            g_term = p.gamma * (abs(cos) * math.sqrt(n * (2.0 + (n - 1) * cos_sq)))
    except OverflowError:  # n past the float range
        delta_h0 = math.inf
    if not all(map(math.isfinite, (delta_h0, g_term, e_term))):
        raise ValueError(f"the speed-limit terms of the chain of n = {n} sites overflow a float")
    return QslQuantities.from_terms(delta_h0, g_term, e_term)


def scaling_exponent(samples) -> float:
    """Least-squares slope of log(t) against log(n) over (n, t) pairs, in
    closed form over centered sums: with x = log(n) and y = log(t),

        k = sum (x - mean x)(y - mean y) / sum (x - mean x)^2.

    Raises ValueError for fewer than 3 samples, an n that is not positive
    and finite or repeats, or a t that is not positive and finite (naming
    its n).
    """
    pairs = [(float(n), float(t)) for n, t in samples]
    if len(pairs) < 3:
        raise ValueError("need at least 3 samples")
    ns = [n for n, _ in pairs]
    if not all(0.0 < n < math.inf for n in ns) or len(set(ns)) != len(ns):
        raise ValueError("n values must be positive, finite and distinct")
    for n, t in pairs:
        if not 0.0 < t < math.inf:
            raise ValueError(f"t values must be positive and finite; t = {t!r} at n = {n:.17g}")
    xs = [math.log(n) for n in ns]
    ys = [math.log(t) for _, t in pairs]
    x_mean = sum(xs) / len(xs)
    y_mean = sum(ys) / len(ys)
    dx = [x - x_mean for x in xs]
    return sum(u * (y - y_mean) for u, y in zip(dx, ys)) / sum(u * u for u in dx)
