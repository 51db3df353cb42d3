"""The short-time fidelity curvature and its speed-limit ceiling.

From a pure initial state, the fidelity curvature 4(1 - F)/t^2 equals the
quantum Fisher information F_Q of the time parameter as t -> 0 only for
closed dynamics (e = 0), where 1 - F = F_Q t^2/4 + O(t^4). With e > 0 the
fidelity falls linearly, 1 - F = e t + O(t^2), and the curvature tends to
4 F_Q. The same scalars that bound the evolution speed cap the curvature
from above (``qfi_bound``).

``verify_fisher_tradeoff`` integrates one trajectory to the last grid time
and reads every grid time off it: a time that lands on a stored state reads
that state, which ``evolve`` has already gated, and a time between two
stored states is reached by one RK4 step of the remainder from the earlier
one, so each point is sampled exactly at its time. The steps of all such
times come from one batch of Taylor terms of their starting states (four
products with the generator for the whole grid), and only these stepped
samples go through the quality gate here. One contraction with the initial
state reads every grid fidelity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    """Fidelity curvature 4(1 - F)/t^2: as t -> 0, the quantum Fisher
    information of the time parameter if e = 0, and 4 times it if e > 0."""
    if not t > 0.0:
        raise ValueError("t must be positive")
    if t * t == 0.0:  # below about 1.5e-162
        raise ValueError(f"t = {t!r} is too small: t^2 underflows to 0")
    if not (-1e-12 <= fidelity <= 1.0 + 1e-12):
        raise ValueError(f"fidelity {fidelity!r} outside [0, 1]")
    f = min(max(fidelity, 0.0), 1.0)
    return 4.0 * (1.0 - f) / (t * t)


def qfi_bound(q: QslQuantities, t: float) -> float:
    """Ceiling (v + sqrt(v^2 + 4 e / t))^2 on the Fisher information."""
    if not t > 0.0:
        raise ValueError("t must be positive")
    root = math.sqrt(q.v_coeff**2 + 4.0 * q.e_term / t)
    return (q.v_coeff + root) ** 2


def log_inequality_margin(x: float) -> float:
    """x(x+2)/(2(1+x)) - ln(1+x); strictly positive for x > 0.

    Vanishes like x^3/6 as x -> 0+, so tiny arguments produce tiny but
    still positive margins in float arithmetic.
    """
    if not x > 0.0:
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
    and strictly increasing, and its first t^2 is positive too."""
    t_grid = [float(t) for t in t_grid]
    if not t_grid:
        raise ValueError("t_grid is empty")
    if not all(t > 0.0 for t in t_grid) or not all(b > a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("t_grid must be positive and strictly increasing")
    if t_grid[0] * t_grid[0] == 0.0:  # qfi_short_time divides by it
        raise ValueError(f"t = {t_grid[0]!r} is too small: t^2 underflows to 0")
    return t_grid


def verify_fisher_tradeoff(
    model: LindbladModel, psi0, t_grid, dt: float
) -> list[FisherReport]:
    """Sample one trajectory at each grid time and compare estimate against ceiling.

    The grid must be increasing and positive. One ``evolve`` run covers
    [0, t_grid[-1]] at step ``min(dt, t_grid[-1])``; each point is sampled
    exactly at its time t by a partial RK4 step from the last stored state
    at or before t, so a grid time below the step is one step of size t from
    the initial state. Points beyond the short-time window are evaluated
    too. The fidelity is read against ``traj.rho0``, the normalized start
    that was integrated.
    """
    t_grid = time_grid(t_grid)
    q = compute_quantities(model, psi0)
    traj = evolve(model, psi0, t_grid[-1], min(dt, t_grid[-1]))
    samples = _states_at(traj, np.array(t_grid))
    fids = np.einsum("ij,nji->n", traj.rho0, samples).real
    reports = []
    for t, fid in zip(t_grid, np.clip(fids, 0.0, 1.0).tolist()):
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
