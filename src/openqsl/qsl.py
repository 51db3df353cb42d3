"""Speed-limit quantities and bounds for Markovian dynamics.

All scalars derive from the initial pure state and the generator:

* ``delta_h0``  energy standard deviation (unitary contribution),
* ``g_term``    Frobenius norm of the summed adjoint dissipator applied to
                the initial state (dissipative deformation), the sum the
                model's generator and ``dynamics.theta_dot_exact`` share,
* ``e_term``    summed variance of the jump operators in the initial state
                (fluctuation contribution),
* ``v_coeff``   effective speed 2*delta_h0 + sqrt(2)*g_term.

The evolution-time bound integrates the differential angle bound
(v sin(theta) + e)/sin(2 theta) in closed form,
t = (s^2/e) * 2 phi(x) with s = sin(Theta), x = v s/e and
phi(x) = (x - log1p(x))/x^2; ``f_ratio`` is the same integral expressed
through the ratio r = v/e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .dynamics import LindbladModel, _dissipate
from .errors import FrozenDynamicsError, SingularPointError

# Below PHI_SERIES_MAX, phi(x) = sum_n (-1)^n x^n/(n+2) is summed by Horner's
# rule (highest order first); the first omitted term, x^17/19, is under 1e-17
# there. Above it, the cancellation in 1 - log1p(x)/x enlarges the rounding
# error by at most about 2/x = 20.
PHI_SERIES_MAX = 0.1
_PHI_COEFFS = tuple((-1.0) ** n / (n + 2) for n in reversed(range(17)))


def v_coefficient(delta_h0: float, g_term: float) -> float:
    """The effective speed v = 2 delta_h0 + sqrt(2) g_term."""
    return 2.0 * delta_h0 + math.sqrt(2.0) * g_term


@dataclass(frozen=True)
class QslQuantities:
    """Scalar bundle evaluated at the initial state; all fields >= 0."""

    delta_h0: float
    g_term: float
    e_term: float
    v_coeff: float
    ratio_r: float | None

    @classmethod
    def from_terms(cls, delta_h0: float, g_term: float, e_term: float) -> "QslQuantities":
        delta_h0, g_term, e_term = float(delta_h0), float(g_term), float(e_term)
        v = v_coefficient(delta_h0, g_term)
        r = v / e_term if e_term > 0.0 else None
        return cls(delta_h0=delta_h0, g_term=g_term, e_term=e_term, v_coeff=v, ratio_r=r)


def compute_quantities(model: LindbladModel, psi0) -> QslQuantities:
    """Evaluate all speed-limit scalars from their definitions."""
    psi0 = linalg.pure_state(psi0)
    h = model.hamiltonian
    # Each variance is ||(A - <A>) psi||^2, which cannot cancel to rounding
    # noise the way <A^dag A> - |<A>|^2 does when psi is nearly an eigenstate.
    dev = h @ psi0
    dev -= np.vdot(psi0, dev).real * psi0
    delta_h0 = math.sqrt(float(np.vdot(dev, dev).real))

    rho0 = linalg.projector(psi0)
    g_term = linalg.frobenius_norm(_dissipate(*model._jumps, rho0, adjoint=True))
    e_term = 0.0
    for op in model.lindblad_ops:
        dev = op @ psi0
        dev -= np.vdot(psi0, dev) * psi0
        e_term += float(np.vdot(dev, dev).real)
    return QslQuantities.from_terms(delta_h0, g_term, e_term)


def theta_dot_bound(q: QslQuantities, theta: float) -> float:
    """Upper bound on the angle rate: (v sin(theta) + e) / sin(2 theta)."""
    if not (0.0 < theta < np.pi / 2):
        raise SingularPointError(f"theta = {theta!r} outside the open interval (0, pi/2)")
    return (q.v_coeff * math.sin(theta) + q.e_term) / math.sin(2.0 * theta)


def _bound_integral(v: float, e: float, s: float) -> float:
    """closed form of integral_0^Theta sin(2u) / (v sin(u) + e) du with s = sin(Theta).

    Equals (s^2/e) * 2 phi(x) with x = v*s/e and phi(x) = (x - log1p(x))/x^2:
    phi comes from its Taylor series for x < PHI_SERIES_MAX, and above that
    the equivalent (2s/v) * (1 - log1p(x)/x) is used, which neither cancels
    nor overflows s^2/e for tiny e. v = 0 needs no branch (phi(0) = 1/2
    gives s^2/e); e = 0, or a v*s/e that overflows, is the limit 2s/v.
    """
    if e <= 0.0 and v <= 0.0:
        raise FrozenDynamicsError("generator has zero speed; target unreachable")
    x = v * s / e if e > 0.0 else math.inf
    if x < PHI_SERIES_MAX:
        phi = 0.0
        for c in _PHI_COEFFS:
            phi = phi * x + c
        return (s * s / e) * 2.0 * phi
    if x == math.inf:
        return 2.0 * s / v
    return (2.0 * s / v) * (1.0 - math.log1p(x) / x)


def t_qsl(q: QslQuantities, theta_target: float) -> float:
    """Minimum evolution time to reach the target Bures angle."""
    if not (0.0 < theta_target <= np.pi / 2):
        raise ValueError(f"theta_target = {theta_target!r} outside (0, pi/2]")
    return _bound_integral(q.v_coeff, q.e_term, math.sin(theta_target))


def _target_sine(theta_target: float) -> float:
    """sin(Theta) of a target angle in [0, pi/2]; ValueError otherwise, NaN included."""
    if not (0.0 <= theta_target <= np.pi / 2):
        raise ValueError(f"theta_target = {theta_target!r} outside [0, pi/2]")
    return math.sin(theta_target)


def t_qsl_strong_decoherence(q: QslQuantities, theta_target: float) -> float:
    """Fluctuation-dominated limit sin^2(Theta)/e of the time bound."""
    if q.e_term <= 0.0:
        raise FrozenDynamicsError("strong-decoherence limit requires e_term > 0")
    s = _target_sine(theta_target)
    return s * s / q.e_term


def f_ratio(r: float, theta_target: float) -> float:
    """Constant-ratio form: t_qsl equals f_ratio(v/e, Theta)/v when e > 0.

    Evaluates the full bound at v = r, e = 1, so the identity holds to
    rounding for every input.
    """
    if not r > 0.0:
        raise ValueError("ratio must be positive")
    return r * _bound_integral(r, 1.0, _target_sine(theta_target))


def qsl_lower_bound(q: QslQuantities, theta_target: float) -> float:
    """Algebraic floor sin^2(Theta)/(e + v sin(Theta)) under the time bound."""
    s = _target_sine(theta_target)
    den = q.e_term + q.v_coeff * s
    if den <= 0.0:
        raise FrozenDynamicsError("generator has zero speed; target unreachable")
    return s * s / den
