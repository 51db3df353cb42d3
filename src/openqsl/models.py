"""Reference models: driven dephasing qubit, amplitude damping, and the
locally-dephased N-qubit product chain, H = sum_i (omega/2) sigma_z^(i),
L_i = sqrt(gamma) sigma_x^(i), from n Bloch states of polar angle theta.

``PRESETS`` holds each preset in one ``Preset`` record: its [parameters]
keys, defaults and rules, its dense model and the closed form of its
speed-limit scalars. No rate is squared in a closed form, so finite rates
give finite terms; only the chain's n can overflow them.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, fields

import numpy as np

from . import linalg
from .dynamics import TRAJECTORY_BYTE_CAP, LindbladModel
from .errors import ResourceLimitError
from .qsl import QslQuantities

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |1><0|
IDENTITY_2 = np.eye(2, dtype=complex)

# The largest dense chain. Building H and the n jump operators peaks near
# (2n + 2) 4^n complex entries (tracemalloc: 14.1, 16.0, 18.0 and 20.0 of
# them at n = 6..9), held to the byte cap of a trajectory: n <= 10.
PRODUCT_DENSE_MAX_QUBITS = max(
    n for n in range(1, 32) if (2 * n + 2) * 4**n * 16 <= TRAJECTORY_BYTE_CAP
)

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


def dephasing_terms(omega: float, gamma: float, theta: float) -> tuple:
    """(delta_h0, g_term, e_term) = ((omega/2)|cos(theta)|, sqrt(2) gamma
    |sin(theta)|, gamma sin^2(theta)) of the dephasing model, from
    <sigma_x> = sin(theta), <sigma_z> = cos(theta) and the deformation
    D = sigma_z rho sigma_z - rho, Tr(D^2) = 2 - 2 <sigma_z>^2."""
    sin = math.sin(theta)
    return (
        omega * (0.5 * abs(math.cos(theta))),
        gamma * (math.sqrt(2.0) * abs(sin)),
        gamma * (sin * sin),
    )


def spontaneous_emission_model(gamma: float) -> tuple[LindbladModel, np.ndarray]:
    """Amplitude damping from the excited state: H = 0, L = sqrt(gamma) sigma_-."""
    check_parameter(EMISSION_GAMMA_RULE, gamma)
    h = np.zeros((2, 2), dtype=complex)
    ops = (math.sqrt(gamma) * SIGMA_MINUS,)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    return LindbladModel(hamiltonian=h, lindblad_ops=ops), psi0


def emission_terms(gamma: float) -> tuple:
    """(delta_h0, g_term, e_term) = (0, gamma, gamma) of the damping model:
    on the excited state sigma_- has variance 1 and adjoint dissipator -|0><0|."""
    return 0.0, gamma, gamma


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
    """Dense 2^n-dimensional chain with one dephasing channel per site; over
    PRODUCT_DENSE_MAX_QUBITS sites, ResourceLimitError before allocating."""
    if p.n > PRODUCT_DENSE_MAX_QUBITS:
        raise ResourceLimitError(
            f"dense product model capped at {PRODUCT_DENSE_MAX_QUBITS} qubits by the "
            f"{TRAJECTORY_BYTE_CAP}-byte cap (requested {p.n}); use product_terms instead"
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


def product_terms(n: int, omega: float, gamma: float, theta: float) -> tuple:
    """(delta_h0, g_term, e_term) = (omega (sin(theta)/2) sqrt(n), gamma
    |cos(theta)| sqrt(n (2 + (n - 1) cos^2(theta))), gamma n cos^2(theta))
    of the product chain, O(1) for any n.

    Per site <sigma_z> = cos(theta) and <sigma_x> = sin(theta), so
    var(sigma_z/2) = sin^2(theta)/4 and var(sigma_x) = cos^2(theta) add over
    sites. The deformation D = sigma_x rho1 sigma_x - rho1 has Tr(D^2) =
    2 - 2 <sigma_x>^2 = 2 cos^2(theta) and Tr(rho1 D) = -cos^2(theta), and
    Tr(D_i D_j) = Tr(rho1 D)^2 for sites i != j, so g^2 = n Tr(D^2) +
    n(n-1) Tr(rho1 D)^2. Without dephasing g_term and e_term are 0 and not
    formed. Raises ValueError naming n if a term overflows a float.
    """
    g_term = e_term = 0.0
    try:
        delta_h0 = omega * (0.5 * math.sin(theta) * math.sqrt(n))
        if gamma != 0.0:
            cos = math.cos(theta)
            cos_sq = cos * cos
            e_term = gamma * (n * cos_sq)
            g_term = gamma * (abs(cos) * math.sqrt(n * (2.0 + (n - 1) * cos_sq)))
    except OverflowError:  # n past the float range
        delta_h0 = math.inf
    if not all(map(math.isfinite, (delta_h0, g_term, e_term))):
        raise ValueError(f"the speed-limit terms of the chain of n = {n} sites overflow a float")
    return delta_h0, g_term, e_term


def product_quantities_analytic(p: ProductModelParams) -> QslQuantities:
    """``product_terms`` of the chain ``p`` as a QslQuantities."""
    return QslQuantities.from_terms(*product_terms(p.n, p.omega, p.gamma, p.theta))


@dataclass(frozen=True)
class Preset:
    """A preset's [parameters] defaults, in the argument order of ``model``
    (keywords) and ``terms``; each key's (test, message) rule; its
    (LindbladModel, psi0), ValueError on a broken rule; its closed form."""

    defaults: dict
    rules: dict
    model: Callable
    terms: Callable


_QUBIT_DEFAULTS = {"omega": 1.0, "gamma": 1.0, "theta": math.pi / 4}
# Sorted by name. A model looks its constructor up when called, so patches and traces apply.
PRESETS = {
    "dephasing": Preset(
        _QUBIT_DEFAULTS, {key: PARAMETER_RULES[key] for key in _QUBIT_DEFAULTS},
        lambda **p: dephasing_model(DephasingQubitParams(**p)), dephasing_terms,
    ),
    "emission": Preset(
        {"gamma": 1.0}, {"gamma": EMISSION_GAMMA_RULE},
        lambda gamma: spontaneous_emission_model(gamma), emission_terms,
    ),
    "product": Preset(
        {"n": 3, **_QUBIT_DEFAULTS}, {key: PARAMETER_RULES[key] for key in ("n", *_QUBIT_DEFAULTS)},
        lambda **p: product_model_dense(ProductModelParams(**p)), product_terms,
    ),
}


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
