"""Randomized falsification harnesses for every inequality in the package.

Each suite draws reproducible random instances from a seeded generator,
checks one inequality at an explicit tolerance, and reports pass counts,
the worst margin seen, and full reproduction parameters for any violation.
A violation is data, not an exception: the caller decides what to do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fisher, qsl
from .dynamics import LindbladModel, evolve, first_passage_time, theta_dot_exact
from .errors import UnreachableTargetError
from .models import DephasingQubitParams, ProductModelParams, dephasing_model, product_model_dense, spontaneous_emission_model

# Suite settings. Trajectory-based margins carry integrator error, so they
# get a looser tolerance than the closed-form scalar checks.
MAX_OPS = 3
BOUND_DIMS = (2, 3, 4, 5, 6)
TARGETS = (0.2, 0.5, 0.8, 1.2)
TRAJECTORY_TOL = 1e-7
SCALAR_TOL = 1e-12
DIFFERENTIAL_DT = 1e-3
DIFFERENTIAL_T_END = 4.0
ANGLE_WINDOW = (0.05, math.pi / 2 - 0.05)
MIN_POINTS = 50
FISHER_DIMS = (2, 3, 4)
FISHER_T_GRID = (1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1)
FISHER_DT = 1e-4


@dataclass
class PropertyResult:
    """Outcome of one randomized suite."""

    name: str
    checked: int = 0
    worst_margin: float = math.inf
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def record(self, margin: float, violated: bool, **repro) -> None:
        """Count one check and keep the worst margin; a violation is logged
        as ``repro`` followed by its margin."""
        self.checked += 1
        self.worst_margin = min(self.worst_margin, margin)
        if violated:
            self.violations.append({**repro, "margin": margin})


def random_hermitian(rng: np.random.Generator, dim: int, norm: float) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * (a + a.conj().T)
    return h * (norm / np.linalg.norm(h))


def random_operator(rng: np.random.Generator, dim: int, norm: float) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a * (norm / np.linalg.norm(a))


def random_pure_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def random_model(rng: np.random.Generator, dim: int) -> tuple[LindbladModel, np.ndarray]:
    """Random generator with Frobenius norms <= 2 and 1..MAX_OPS channels."""
    h = random_hermitian(rng, dim, rng.uniform(0.2, 2.0))
    n_ops = int(rng.integers(1, MAX_OPS + 1))
    ops = tuple(random_operator(rng, dim, rng.uniform(0.2, 2.0)) for _ in range(n_ops))
    return LindbladModel(hamiltonian=h, lindblad_ops=ops), random_pure_state(rng, dim)


def bound_dominance(
    seed: int = 0, n_models: int = 300, horizon: float = 12.0, dt: float = 1e-3
) -> PropertyResult:
    """First passage never undercuts the time bound on random models."""
    rng = np.random.default_rng(seed)
    result = PropertyResult("bound_dominance")
    for index in range(n_models):
        dim = int(rng.choice(BOUND_DIMS))
        model, psi0 = random_model(rng, dim)
        traj = evolve(model, psi0, horizon, dt)
        quantities = qsl.compute_quantities(model, psi0)
        for target in TARGETS:
            try:
                t_fp = first_passage_time(traj, target)
            except UnreachableTargetError:
                continue
            bound = qsl.t_qsl(quantities, target)
            margin = t_fp - bound
            result.record(
                margin,
                margin < -TRAJECTORY_TOL,
                seed=seed,
                model_index=index,
                dim=dim,
                theta_target=target,
                t_first_passage=t_fp,
                t_qsl=bound,
            )
    return result


def _preset_trajectories(dt: float, t_end: float):
    dephasing = dephasing_model(DephasingQubitParams(omega=1.0, gamma=1.0, theta=math.pi / 4))
    emission = spontaneous_emission_model(gamma=1.0)
    product = product_model_dense(ProductModelParams(n=3, omega=1.0, gamma=1.0, theta=math.pi / 4))
    return {
        "dephasing": (dephasing, evolve(*dephasing, t_end, dt)),
        "emission": (emission, evolve(*emission, t_end, dt)),
        "product": (product, evolve(*product, t_end, dt)),
    }


def differential_dominance() -> PropertyResult:
    """Exact angle rate stays under its bound along every preset trajectory."""
    result = PropertyResult("differential_dominance")
    trajectories = _preset_trajectories(DIFFERENTIAL_DT, DIFFERENTIAL_T_END)
    for name, ((model, psi0), traj) in trajectories.items():
        quantities = qsl.compute_quantities(model, psi0)
        points = 0
        for k in range(1, len(traj.times) - 1):
            theta = float(traj.bures_angles[k])
            if not (ANGLE_WINDOW[0] < theta < ANGLE_WINDOW[1]):
                continue
            points += 1
            rate = theta_dot_exact(model, traj.rho0, traj.states[k], theta)
            ceiling = qsl.theta_dot_bound(quantities, theta)
            margin = ceiling - rate
            result.record(
                margin,
                margin < -TRAJECTORY_TOL,
                preset=name,
                time=float(traj.times[k]),
                theta=theta,
                theta_dot_exact=rate,
                theta_dot_bound=ceiling,
            )
        if points < MIN_POINTS:
            result.violations.append(
                {
                    "preset": name,
                    "error": f"only {points} interior sample points "
                    f"(need {MIN_POINTS}); widen t_end or shrink dt",
                }
            )
    return result


def fisher_tradeoff(seed: int = 0, n_models: int = 100) -> PropertyResult:
    """Fisher-information estimate never exceeds its ceiling on random models."""
    rng = np.random.default_rng(seed)
    result = PropertyResult("fisher_tradeoff")
    for index in range(n_models):
        dim = int(rng.choice(FISHER_DIMS))
        model, psi0 = random_model(rng, dim)
        for report in fisher.verify_fisher_tradeoff(model, psi0, FISHER_T_GRID, FISHER_DT):
            result.record(
                report.qfi_bound - report.qfi_estimate,
                not report.satisfied,
                seed=seed,
                model_index=index,
                dim=dim,
                t=report.horizon_t,
                qfi_estimate=report.qfi_estimate,
                qfi_bound=report.qfi_bound,
            )
    return result


def log_inequality(seed: int = 0, n_samples: int = 10_000) -> PropertyResult:
    """ln(1+x) <= x(x+2)/(2(1+x)) over log-uniform x in [1e-6, 1e6]."""
    rng = np.random.default_rng(seed)
    result = PropertyResult("log_inequality")
    xs = 10.0 ** rng.uniform(-6.0, 6.0, size=n_samples)
    for x in xs:
        margin = fisher.log_inequality_margin(float(x))
        result.record(margin, margin < -SCALAR_TOL, seed=seed, x=float(x))
    return result


def lower_bound_ordering(seed: int = 0, n_samples: int = 10_000) -> PropertyResult:
    """The algebraic floor never exceeds the full time bound."""
    rng = np.random.default_rng(seed)
    result = PropertyResult("lower_bound_ordering")
    for _ in range(n_samples):
        v = 10.0 ** rng.uniform(-3.0, 3.0)
        e = 10.0 ** rng.uniform(-3.0, 3.0)
        theta = rng.uniform(0.01, math.pi / 2)
        q = qsl.QslQuantities(delta_h0=0.0, g_term=v / math.sqrt(2.0), e_term=e, v_coeff=v, ratio_r=v / e)
        margin = qsl.t_qsl(q, theta) - qsl.qsl_lower_bound(q, theta)
        result.record(margin, margin < -SCALAR_TOL, seed=seed, v=v, e=e, theta_target=theta)
    return result


def run_all(
    seed: int = 0,
    n_models: int = 300,
    n_fisher_models: int = 100,
    n_scalar_samples: int = 10_000,
    horizon: float = 12.0,
    dt: float = 1e-3,
) -> list[PropertyResult]:
    """Every suite at its fixed settings; order is fixed."""
    return [
        bound_dominance(seed=seed, n_models=n_models, horizon=horizon, dt=dt),
        differential_dominance(),
        fisher_tradeoff(seed=seed, n_models=n_fisher_models),
        log_inequality(seed=seed, n_samples=n_scalar_samples),
        lower_bound_ordering(seed=seed, n_samples=n_scalar_samples),
    ]
