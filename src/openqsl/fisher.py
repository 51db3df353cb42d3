"""Short-time Fisher-information extraction and its speed-limit ceiling.

For a pure initial state the fidelity with the evolved state decays as
1 - F_Q t^2 / 4 at short times, so 4(1 - F)/t^2 estimates the quantum
Fisher information of the time parameter. The same scalars that bound the
evolution speed also cap that estimate from above, giving a trade-off
between how fast a state departs and how much timing information it can
carry.

``verify_fisher_tradeoff`` integrates one trajectory to the last grid time
and reads every grid time off it: a time between two stored states is
reached by one RK4 step of the remainder from the earlier one, so each
point is sampled exactly at its time, and every sampled state passes the
same quality gate as the stored ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .dynamics import LindbladModel, _states_at, evolve
from .qsl import QslQuantities, compute_quantities

QFI_SATISFIED_RTOL = 1e-9


@dataclass(frozen=True)
class FisherReport:
    """One grid point of the estimate-versus-ceiling comparison."""

    horizon_t: float
    fidelity_at_t: float
    qfi_estimate: float
    qfi_bound: float
    satisfied: bool


def qfi_short_time(fidelity: float, t: float) -> float:
    """Curvature estimate 4(1 - F)/t^2 of the fidelity decay."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    if not (-1e-12 <= fidelity <= 1.0 + 1e-12):
        raise ValueError(f"fidelity {fidelity!r} outside [0, 1]")
    f = min(max(fidelity, 0.0), 1.0)
    return 4.0 * (1.0 - f) / (t * t)


def qfi_bound(q: QslQuantities, t: float) -> float:
    """Ceiling (v + sqrt(v^2 + 4 e / t))^2 on the Fisher information."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    root = math.sqrt(q.v_coeff**2 + 4.0 * q.e_term / t)
    return (q.v_coeff + root) ** 2


def log_inequality_margin(x: float) -> float:
    """x(x+2)/(2(1+x)) - ln(1+x); strictly positive for x > 0.

    Vanishes like x^3/6 as x -> 0+, so tiny arguments produce tiny but
    still positive margins in float arithmetic.
    """
    if x <= 0.0:
        raise ValueError("x must be positive")
    return x * (x + 2.0) / (2.0 * (1.0 + x)) - math.log1p(x)


def short_time_window(q: QslQuantities) -> float:
    """Horizon 0.1/max(v, e, delta_h0, 1) inside which the quadratic
    fidelity expansion stays within about a percent."""
    return 0.1 / max(q.v_coeff, q.e_term, q.delta_h0, 1.0)


def _satisfied(estimate: float, bound: float) -> bool:
    return estimate <= bound + QFI_SATISFIED_RTOL * max(1.0, bound)


def time_grid(t_grid) -> list[float]:
    """t_grid as floats; raises ValueError unless it is nonempty, positive
    and strictly increasing."""
    t_grid = [float(t) for t in t_grid]
    if not t_grid:
        raise ValueError("t_grid is empty")
    if any(t <= 0.0 for t in t_grid) or any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("t_grid must be positive and strictly increasing")
    return t_grid


def verify_fisher_tradeoff(
    model: LindbladModel, psi0, t_grid, dt: float
) -> list[FisherReport]:
    """Sample one trajectory at each grid time and compare estimate against ceiling.

    The grid must be increasing and positive. One ``evolve`` run covers
    [0, t_grid[-1]] at step ``min(dt, t_grid[-1])``; each point is sampled
    exactly at its time t by a partial RK4 step from the last stored state
    at or before t, so a grid time below the step is one step of size t from
    the initial state. Points beyond the short-time window are still
    evaluated; the estimate simply stops being a Fisher-information reading
    there.
    """
    t_grid = time_grid(t_grid)
    q = compute_quantities(model, psi0)
    rho0 = linalg.projector(linalg.pure_state(psi0))
    traj = evolve(model, psi0, t_grid[-1], min(dt, t_grid[-1]))
    reports = []
    for t, rho in zip(t_grid, _states_at(traj, np.array(t_grid))):
        fid = float(np.real(linalg.trace_product(rho0, rho)))
        fid = min(max(fid, 0.0), 1.0)
        est = qfi_short_time(fid, t)
        ceil = qfi_bound(q, t)
        reports.append(
            FisherReport(
                horizon_t=t,
                fidelity_at_t=fid,
                qfi_estimate=est,
                qfi_bound=ceil,
                satisfied=_satisfied(est, ceil),
            )
        )
    return reports
