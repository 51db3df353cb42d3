"""Command-line front end: sweeps, figure data, trajectory dumps and the
randomized verification harness, all emitted as reproducible CSV/JSON.

Every run writes the requested data file plus a ``<path>.meta.json``
sidecar echoing the configuration, seed, step size, the decay constant of
the damping model (checked against the integrator by
``tests/test_models.py``), and the library version. Numeric fields are
serialized with 17 significant digits, so identical inputs give
byte-identical files.

Exit codes: 0 success, 1 configuration error, 2 integration-quality
failure, 3 property violation (verify only).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__, fisher, qsl, verify
from .config import (
    PRESET_DEFAULTS,
    ExperimentConfig,
    build_model,
    load_config,
    sweep_quantities,
)
from .dynamics import evolve, first_passage_time
from .errors import (
    ConfigError,
    FrozenDynamicsError,
    IntegrationQualityError,
    UnreachableTargetError,
)
from .models import (
    EMISSION_DECAY_PER_GAMMA,
    ProductModelParams,
    exact_emission_time,
    product_quantities_analytic,
    scaling_exponent,
    spontaneous_emission_model,
)

FIG1A_OMEGAS = (0.01, 1.0, 4.0)


# ---------------------------------------------------------------------------
# Deterministic serialization (17 significant digits everywhere).


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _json_scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        import json as _json

        return _json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float) and not math.isfinite(value):
        return '"%s"' % repr(value)
    return format(float(value), ".17g")


def _to_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f'{inner}{_json_scalar(str(k))}: {_to_json(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{_to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    return _json_scalar(obj)


def _write_table(path: str, header: list, rows: list, fmt: str) -> None:
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        records = [dict(zip(header, row)) for row in rows]
        text = _to_json(records) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_sidecar(path: str, cfg: ExperimentConfig, seed: int, dt: float | None) -> None:
    meta = {
        "config": cfg.echo(),
        "seed": seed,
        "dt": dt,
        "emission_decay_per_gamma": EMISSION_DECAY_PER_GAMMA,
        "version": __version__,
    }
    with open(path + ".meta.json", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_to_json(meta) + "\n")


# ---------------------------------------------------------------------------
# Commands.


def cmd_qsl(cfg: ExperimentConfig, args) -> int:
    theta_target = cfg.param("theta_target", math.pi / 4)
    sweep_key = cfg.sweep_name or "theta_target"
    sweep_values = cfg.sweep() if cfg.sweep_name else [theta_target]
    quantities = sweep_quantities(cfg)

    def one_row(value: float):
        overrides = {sweep_key: value}
        target = overrides.get("theta_target", theta_target)
        q = quantities(overrides)
        try:
            bound = qsl.t_qsl(q, target)
            lower = qsl.qsl_lower_bound(q, target)
            status = "ok"
        except FrozenDynamicsError:
            bound, lower, status = None, None, "frozen_dynamics"
        return [value, q.delta_h0, q.g_term, q.e_term, q.v_coeff, bound, lower, status]

    rows = [one_row(value) for value in sweep_values]
    header = ["sweep_value", "delta_h0", "g_term", "e_term", "v_coeff", "t_qsl", "t_lower", "status"]
    path = args.output or cfg.output_path or "qsl." + args.format
    _write_table(path, header, rows, args.format)
    _write_sidecar(path, cfg, args.seed, cfg.dt)
    return 0


def cmd_fig1a(cfg: ExperimentConfig, args) -> int:
    theta = cfg.param("theta", math.pi / 4)
    theta_target = cfg.param("theta_target", math.pi / 4)
    gammas = np.logspace(
        math.log10(cfg.param("gamma_min", 1e-3)),
        math.log10(cfg.param("gamma_max", 1e4)),
        int(cfg.param("gamma_points", 57)),
    ).tolist()
    header = ["gamma"] + [f"t_qsl_omega_{om:g}" for om in FIG1A_OMEGAS]

    # One gamma sweep of the dephasing preset per curve.
    columns = []
    for omega in FIG1A_OMEGAS:
        quantities = sweep_quantities(
            ExperimentConfig(preset="dephasing", parameters={"omega": omega, "theta": theta})
        )
        columns.append([qsl.t_qsl(quantities({"gamma": gamma}), theta_target) for gamma in gammas])

    rows = [[gamma, *times] for gamma, times in zip(gammas, zip(*columns))]
    path = args.output or cfg.output_path or "fig1a." + args.format
    _write_table(path, header, rows, args.format)
    _write_sidecar(path, cfg, args.seed, None)
    return 0


def _fig1b_targets() -> list:
    cap = math.pi / 2 - 0.01
    grid = [round(0.05 * k, 10) for k in range(1, 32)]
    grid.append(math.pi / 4)
    return sorted({min(t, cap) for t in grid})


def cmd_fig1b(cfg: ExperimentConfig, args) -> int:
    gamma = cfg.param("gamma", 1.0)
    try:
        model, psi0 = spontaneous_emission_model(gamma)
    except ValueError as exc:
        raise ConfigError(f"[parameters]: {exc}")
    # All damping-model times scale as 1/gamma; stepping in scaled time
    # keeps the grid resolution identical across gamma values.
    dt = (cfg.dt or 1e-4) / gamma
    horizon = (cfg.horizon or 10.0) / gamma
    q = qsl.compute_quantities(model, psi0)
    traj = evolve(model, psi0, horizon, dt)

    rows = []
    for target in _fig1b_targets():
        try:
            t_fp = first_passage_time(traj, target)
        except UnreachableTargetError:
            t_fp = None
        rows.append(
            [target, exact_emission_time(gamma, target), t_fp, qsl.t_qsl(q, target)]
        )
    header = ["theta_target", "t_exa", "t_first_passage", "t_qsl"]
    path = args.output or cfg.output_path or "fig1b." + args.format
    _write_table(path, header, rows, args.format)
    _write_sidecar(path, cfg, args.seed, dt)
    return 0


def cmd_scaling(cfg: ExperimentConfig, args) -> int:
    omega = cfg.param("omega", 0.1)
    gamma = cfg.param("gamma", 10.0)
    theta = cfg.param("theta", math.pi / 4)
    theta_target = cfg.param("theta_target", math.pi / 4)
    n_values = (
        [int(v) for v in cfg.sweep()] if cfg.sweep_name == "n" else [64, 128, 256, 512, 1024]
    )

    try:
        chains = [ProductModelParams(n=n, omega=omega, gamma=gamma, theta=theta) for n in n_values]
    except ValueError as exc:
        raise ConfigError(f"[parameters]: {exc}")
    samples = [(p.n, qsl.t_qsl(product_quantities_analytic(p), theta_target)) for p in chains]
    try:
        exponent = scaling_exponent(samples)
    except ValueError as exc:
        raise ConfigError(f"[sweep] values: {exc}")

    rows = [[n, t] for n, t in samples]
    rows.append(["exponent", exponent])
    path = args.output or cfg.output_path or "scaling." + args.format
    _write_table(path, ["n", "t_qsl"], rows, args.format)
    _write_sidecar(path, cfg, args.seed, None)
    return 0


def cmd_verify(cfg: ExperimentConfig, args) -> int:
    results = verify.run_all(
        seed=args.seed,
        n_models=int(cfg.param("n_models", 300)),
        n_fisher_models=int(cfg.param("n_fisher_models", 100)),
        n_scalar_samples=int(cfg.param("n_scalar_samples", 10_000)),
        horizon=cfg.horizon or 12.0,
        dt=cfg.dt or 1e-3,
    )
    report = {
        "seed": args.seed,
        "all_passed": all(r.passed for r in results),
        "properties": [
            {
                "name": r.name,
                "checked": r.checked,
                "passed": r.passed,
                "worst_margin": r.worst_margin,
                "violations": r.violations,
            }
            for r in results
        ],
    }
    path = args.output or cfg.output_path or "verify.json"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_to_json(report) + "\n")
    _write_sidecar(path, cfg, args.seed, cfg.dt or 1e-3)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{status} {r.name}: {r.checked} checks, worst margin {r.worst_margin:.3e}")
    return 0 if report["all_passed"] else 3


def cmd_qfi(cfg: ExperimentConfig, args) -> int:
    model, psi0 = build_model(cfg)
    q = qsl.compute_quantities(model, psi0)
    window = fisher.short_time_window(q)
    if cfg.sweep_name == "t":
        try:
            t_grid = fisher.time_grid(cfg.sweep())
        except ValueError as exc:
            raise ConfigError(f"[sweep] values: {exc}")
    else:
        t_grid = list(np.logspace(-3, math.log10(0.04), 9))
    dt = cfg.dt or 1e-5

    reports = fisher.verify_fisher_tradeoff(model, psi0, t_grid, dt)
    rows = [
        [
            r.horizon_t,
            r.fidelity_at_t,
            r.qfi_estimate,
            r.qfi_bound,
            r.satisfied,
            r.horizon_t <= window,
        ]
        for r in reports
    ]
    header = ["t", "fidelity", "qfi_estimate", "qfi_bound", "satisfied", "in_window"]
    path = args.output or cfg.output_path or "qfi." + args.format
    _write_table(path, header, rows, args.format)
    _write_sidecar(path, cfg, args.seed, dt)
    return 0


def cmd_evolve(cfg: ExperimentConfig, args) -> int:
    model, psi0 = build_model(cfg)
    traj = evolve(model, psi0, cfg.horizon or 5.0, cfg.dt or 1e-3)
    rows = [
        [traj.times[k], traj.bures_angles[k], traj.trace_errors[k], traj.min_eigs[k]]
        for k in range(len(traj.times))
    ]
    header = ["t", "theta", "trace_drift", "min_eig"]
    path = args.output or cfg.output_path or "trajectory." + args.format
    _write_table(path, header, rows, args.format)
    _write_sidecar(path, cfg, args.seed, traj.dt)
    return 0


# The sweep names each command reads besides the model's own parameters,
# which only qsl sweeps; the other commands read no sweep.
COMMAND_SWEEPS = {"qsl": ("theta_target",), "scaling": ("n",), "qfi": ("t",)}


def _check_sweep(command: str, cfg: ExperimentConfig) -> None:
    """Reject a sweep over a key that the command never reads; it would
    write the same row once per value."""
    if not cfg.sweep_name:
        return
    reads = COMMAND_SWEEPS.get(command, ())
    if command == "qsl" and cfg.hamiltonian is None:
        reads += tuple(PRESET_DEFAULTS[cfg.preset or "emission"])
    if cfg.sweep_name not in reads:
        raise ConfigError(
            f"[sweep] name: {command} does not read {cfg.sweep_name!r}; "
            + (f"it sweeps {', '.join(reads)}" if reads else "it reads no sweep")
        )


COMMANDS = {
    "qsl": cmd_qsl,
    "fig1a": cmd_fig1a,
    "fig1b": cmd_fig1b,
    "scaling": cmd_scaling,
    "verify": cmd_verify,
    "qfi": cmd_qfi,
    "evolve": cmd_evolve,
}


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as ConfigError, so they exit 1 like any other
    configuration error; argparse's own exit code 2 is taken by
    integration-quality failures."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="openqsl",
        description="Speed limits and trajectory verification for Markovian dynamics",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="experiment config file (INI)")
    parser.add_argument("--output", help="output file path")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (verify)")
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        if args.format is None:
            args.format = cfg.output_format or "csv"
        _check_sweep(args.command, cfg)
        return COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except IntegrationQualityError as exc:
        print(f"integration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
