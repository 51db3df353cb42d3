"""Command-line front end: sweeps, figure data, trajectory dumps and the
randomized verification harness, all emitted as reproducible CSV/JSON.

Every command hands its text to ``_emit``: the six table commands pass
``_table``'s CSV or JSON records, and ``verify`` its JSON report. ``_emit``
writes it to ``--output``, [output] path or ``<command>.<format>``
(``trajectory.<format>`` for ``evolve``) through ``_write_text``, the one
place in the package that opens a file for writing. A regular file other
than stdout's gets a ``<path>.meta.json`` sidecar echoing the
configuration, seed, step taken (null if none), the decay constant of the
damping model (checked against the integrator by ``tests/test_models.py``)
and the library version; ``/dev/stdout``, a FIFO, ``os.devnull`` and
stdout's own file, written through stdout so that ``--output /dev/stdout
>> log`` appends, get none. Numbers are written with 17 significant
digits, so identical inputs give byte-identical files: ``_fmt`` spells a
CSV cell, and ``_table`` writes a row with one ``%``-format call that
spells each cell as ``_fmt`` does. ``--seed`` takes a nonnegative integer,
as numpy's generators do; a negative one is a usage error, so ``verify``
stops before any suite runs.

Before a command runs, ``_check_reads`` rejects a sweep that it does not
read and, for ``qsl``, ``qfi`` and ``evolve``, a preset's model parameter
set or swept beside an inline model.

Models come from ``config``: ``qsl``, ``fig1a`` and ``scaling`` take their
speed-limit scalars as columns from ``config.sweep_columns``, a preset's
closed form, and call the bound formulas of ``qsl`` on each row, with the
sine of each checked target taken once. ``fig1b``, ``qfi`` and
``evolve`` integrate the model of ``config.build_model``, and ``verify``
draws its own. The argument parser is built once per process, on the first
call of ``main``.

Exit codes: 0 success, 1 configuration error (a trajectory over the
memory budget included), 2 integration-quality failure, 3 property
violation (verify only).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import stat
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__, fisher, qsl, verify
from .config import MODEL_PARAMETERS, ExperimentConfig, build_model, load_config, sweep_columns
from .dynamics import evolve, first_passage_time, step_grid
from .errors import (
    ConfigError,
    FrozenDynamicsError,
    IntegrationQualityError,
    ResourceLimitError,
    UnreachableTargetError,
)
from .models import EMISSION_DECAY_PER_GAMMA, PRESETS, exact_emission_time, scaling_exponent

FIG1A_OMEGAS = (0.01, 1.0, 4.0)
# The parameters of scaling's product chains besides n, with their defaults.
SCALING_DEFAULTS = {"omega": 0.1, "gamma": 10.0, "theta": math.pi / 4}


# ---------------------------------------------------------------------------
# Deterministic serialization (17 significant digits everywhere).


def _fmt(value) -> str:
    if type(value) is float:
        return format(value, ".17g")
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


# The %-conversion that spells a CSV cell of each type as _fmt does; a cell
# of any other type goes through _fmt and is then written by "%s".
_CELL_SPECS = {float: "%.17g", np.float64: "%.17g", int: "%d", np.int64: "%d", str: "%s"}


def _to_json(obj, indent: int = 0) -> str:
    if type(obj) is float and math.isfinite(obj):
        return format(obj, ".17g")
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{encode_basestring_ascii(str(k))}: {_to_json(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        sep = ",\n" + inner
        # a finite sum means no inf or nan; an overflowing one falls through
        if set(map(type, obj)) == {float} and math.isfinite(sum(obj)):
            items = sep.join(map("%.17g".__mod__, obj))
        else:
            items = sep.join([_to_json(v, indent + 1) for v in obj])
        return "[\n" + inner + items + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return '"%s"' % repr(float(obj))
    return _fmt(obj)


def _table(fmt: str, header: list, rows: list) -> str:
    """The rows under ``header`` as CSV, or as JSON records. A CSV row is
    one %-format call on the template of its cell types, built once per
    call from ``_CELL_SPECS``."""
    if fmt != "csv":
        return _to_json([dict(zip(header, row)) for row in rows]) + "\n"
    templates = {}
    lines = [",".join(header)]
    for row in rows:
        types = tuple(map(type, row))
        entry = templates.get(types)
        if entry is None:
            specs = [_CELL_SPECS.get(t) for t in types]
            entry = templates[types] = (
                ",".join(spec or "%s" for spec in specs),
                [k for k, spec in enumerate(specs) if spec is None],
            )
        template, spelled = entry
        if spelled:
            row = list(row)
            for k in spelled:
                row[k] = _fmt(row[k])
        lines.append(template % tuple(row))
    return "\n".join(lines) + "\n"


def _emit(args, cfg: ExperimentConfig, stem: str, text: str, dt) -> int:
    """Write a command's ``text`` to --output, [output] path or
    ``<stem>.<format>`` and, if that is a regular file other than stdout's,
    its sidecar ``<path>.meta.json`` with step size ``dt``; exit 0."""
    path = args.output or cfg.output_path or f"{stem}.{args.format}"
    if _write_text(path, text):
        meta = {
            "config": cfg.echo(),
            "seed": args.seed,
            "dt": dt,
            "emission_decay_per_gamma": EMISSION_DECAY_PER_GAMMA,
            "version": __version__,
        }
        _write_text(path + ".meta.json", _to_json(meta) + "\n")
    return 0


def _write_text(path: str, text: str) -> bool:
    """Write ``text`` as UTF-8 to ``path``, rewriting an existing file in place.

    The file is opened without ``O_TRUNC``, written in full from offset 0,
    and then, if ``fstat`` shows a regular file, truncated to the new
    length. So a path that exists keeps its inode, mode and hard links, and
    a symlink stays a symlink whose target gets the bytes, as with
    ``open(path, "w")``. A new file is created with mode 0o666 less the
    umask. ``/dev/stdout``, a FIFO or ``os.devnull`` is written as a stream.
    The file that stdout is open on is written through stdout itself, after
    ``sys.stdout`` is flushed, so a ``>>`` redirect is appended to and the
    shell's offset is kept; it is never truncated.

    Truncating first makes ext4 (default ``auto_da_alloc``) flush the file
    on close, about 100 µs for 3 KB, more than a ``qsl`` sweep's
    arithmetic. Writing a temp file and ``os.replace``-ing it costs the
    same flush (72 µs); unlinking and creating anew breaks symlinks, hard
    links and the mode. The trade-off: a kill between the write and the
    truncation leaves the old tail past the new end. No output is fsynced,
    so none is durable against a crash either way.

    Returns whether ``path`` is a regular file other than stdout's; raises
    ConfigError if it cannot be opened or written.
    """
    data = memoryview(text.encode("utf-8"))
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            st = os.fstat(fd)
            own = _is_stdout(fd, st)
            if own:
                sys.stdout.flush()
            out = 1 if own else fd
            written = 0
            while written < len(data):
                written += os.write(out, data[written:])
            regular = stat.S_ISREG(st.st_mode) and not own
            if regular:
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except OSError as exc:
        raise ConfigError(f"cannot write output {path!r}: {exc.strerror or exc}")
    return regular


def _is_stdout(fd: int, st: os.stat_result) -> bool:
    """Whether ``st``, the status of ``fd``, is that of the file open as
    stdout; with stdout closed, ``fd`` may be 1 itself, and is not."""
    try:
        return fd != 1 and os.path.samestat(st, os.fstat(1))
    except OSError:  # stdout closed
        return False


# ---------------------------------------------------------------------------
# Commands.


def cmd_qsl(cfg: ExperimentConfig, args) -> int:
    theta_target = cfg.param("theta_target", math.pi / 4)
    sweep_key = cfg.sweep_name or "theta_target"
    values = cfg.sweep() if cfg.sweep_name else [theta_target]
    columns = sweep_columns(cfg, {sweep_key: values})
    # cfg.param or cfg.sweep checked each target against (0, pi/2], t_qsl's own interval
    sine = math.sin(theta_target)
    sines = list(map(math.sin, values)) if sweep_key == "theta_target" else [sine] * len(values)

    rows = []
    for value, s, delta_h0, g_term, e_term, v_coeff in zip(values, sines, *columns):
        try:
            bound = qsl._bound_integral(v_coeff, e_term, s)
            lower = qsl._floor(v_coeff, e_term, s)
            status = "ok"
        except FrozenDynamicsError:
            bound, lower, status = None, None, "frozen_dynamics"
        rows.append([value, delta_h0, g_term, e_term, v_coeff, bound, lower, status])
    header = ["sweep_value", "delta_h0", "g_term", "e_term", "v_coeff", "t_qsl", "t_lower", "status"]
    return _emit(args, cfg, "qsl", _table(args.format, header, rows), None)


def cmd_fig1a(cfg: ExperimentConfig, args) -> int:
    theta_target = cfg.param("theta_target", math.pi / 4)
    gammas = np.logspace(
        math.log10(cfg.param("gamma_min", 1e-3)),
        math.log10(cfg.param("gamma_max", 1e4)),
        int(cfg.param("gamma_points", 57)),
    ).tolist()
    header = ["gamma"] + [f"t_qsl_omega_{om:g}" for om in FIG1A_OMEGAS]

    # One gamma sweep of the dephasing preset at cfg's theta per curve, all
    # as one column sweep over (omega, gamma), curve by curve.
    _, _, e_term, v_coeff = sweep_columns(
        ExperimentConfig(preset="dephasing", parameters=cfg.parameters),
        {
            "omega": [omega for omega in FIG1A_OMEGAS for _ in gammas],
            "gamma": gammas * len(FIG1A_OMEGAS),
        },
    )
    s = math.sin(theta_target)  # cfg.param checked it against (0, pi/2], as t_qsl would
    times = [qsl._bound_integral(v, e, s) for v, e in zip(v_coeff, e_term)]

    points = len(gammas)
    rows = [[gamma, *times[k::points]] for k, gamma in enumerate(gammas)]
    return _emit(args, cfg, "fig1a", _table(args.format, header, rows), None)


def _fig1b_targets() -> list:
    cap = math.pi / 2 - 0.01
    grid = [round(0.05 * k, 10) for k in range(1, 32)]
    grid.append(math.pi / 4)
    return sorted({min(t, cap) for t in grid})


def cmd_fig1b(cfg: ExperimentConfig, args) -> int:
    gamma = cfg.param("gamma", 1.0)
    model, psi0 = build_model(ExperimentConfig(preset="emission", parameters=cfg.parameters))
    # All damping-model times scale as 1/gamma; stepping in scaled time
    # keeps the grid resolution identical across gamma values.
    horizon, dt = cfg.integrator(10.0, 1e-4)
    if horizon / gamma == math.inf:  # gamma under about 5.6e-308 at the default horizon
        raise ConfigError(f"[parameters] gamma: {gamma!r} scales the horizon {horizon!r} to inf")
    horizon, dt = horizon / gamma, dt / gamma
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
    return _emit(args, cfg, "fig1b", _table(args.format, header, rows), traj.dt)


def cmd_scaling(cfg: ExperimentConfig, args) -> int:
    chain = ExperimentConfig(preset="product", parameters={**SCALING_DEFAULTS, **cfg.parameters})
    theta_target = cfg.param("theta_target", math.pi / 4)
    n_values = (
        [int(v) for v in cfg.sweep()] if cfg.sweep_name == "n" else [64, 128, 256, 512, 1024]
    )

    columns = sweep_columns(chain, {"n": n_values})
    s = math.sin(theta_target)  # cfg.param checked it against (0, pi/2], as t_qsl would
    try:
        samples = [
            (n, qsl._bound_integral(v, e, s)) for n, e, v in zip(n_values, *columns[2:])
        ]
        for n, t in samples:
            if t == math.inf:  # 2s/v past the float range, as for a subnormal omega
                raise ValueError(f"the time bound of the chain of n = {n} sites overflows a float")
    except ValueError as exc:  # an overflow, or a frozen chain
        raise ConfigError(f"[parameters]: {exc}")
    try:
        exponent = scaling_exponent(samples)
    except ValueError as exc:
        raise ConfigError(f"[sweep] values: {exc}")

    rows = [[n, t] for n, t in samples]
    rows.append(["exponent", exponent])
    return _emit(args, cfg, "scaling", _table(args.format, ["n", "t_qsl"], rows), None)


def cmd_verify(cfg: ExperimentConfig, args) -> int:
    if args.format != "json":
        raise ConfigError(
            f"--format / [output] format: verify writes a JSON report, not {args.format}"
        )
    horizon, dt = cfg.integrator(12.0, 1e-3)
    step = step_grid(horizon, dt)[1]  # that of bound_dominance's runs
    results = verify.run_all(
        seed=args.seed,
        n_models=int(cfg.param("n_models", 300)),
        n_fisher_models=int(cfg.param("n_fisher_models", 100)),
        n_scalar_samples=int(cfg.param("n_scalar_samples", 10_000)),
        horizon=horizon,
        dt=dt,
    )
    report = {
        "seed": args.seed,
        "all_passed": all(r.passed for r in results),
        "properties": [
            {
                "name": r.name,
                "checked": r.checked,
                "passed": r.passed,
                "skipped": r.skipped,
                "worst_margin": r.worst_margin,
                "violations": r.violations,
            }
            for r in results
        ],
    }
    _emit(args, cfg, "verify", _to_json(report) + "\n", step)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        skipped = "".join(f", {n} skipped ({reason})" for reason, n in r.skipped.items())
        print(f"{status} {r.name}: {r.checked} checks{skipped}, worst margin {r.worst_margin:.3e}")
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
    # the step of verify_fisher_tradeoff's run, which never steps past the grid
    t_end = float(t_grid[-1])
    step = step_grid(t_end, min(dt, t_end))[1]
    return _emit(args, cfg, "qfi", _table(args.format, header, rows), step)


def cmd_evolve(cfg: ExperimentConfig, args) -> int:
    model, psi0 = build_model(cfg)
    traj = evolve(model, psi0, *cfg.integrator(5.0, 1e-3))
    columns = (traj.times, traj.bures_angles, traj.trace_errors, traj.min_eigs)
    rows = list(zip(*(column.tolist() for column in columns)))
    header = ["t", "theta", "trace_drift", "min_eig"]
    return _emit(args, cfg, "trajectory", _table(args.format, header, rows), traj.dt)


# The sweep names each command reads besides the model's own parameters,
# which only qsl sweeps; the other commands read no sweep.
COMMAND_SWEEPS = {"qsl": ("theta_target",), "scaling": ("n",), "qfi": ("t",)}


def _check_reads(command: str, cfg: ExperimentConfig) -> None:
    """Reject a sweep over a key that the command never reads, which would
    write the same row once per value. In the commands that read the model,
    qsl, qfi and evolve, also reject a preset's model parameter set or
    swept beside an inline model, which reads none; fig1a, fig1b and
    scaling read those keys themselves."""
    if cfg.inline is not None and command in ("qsl", "qfi", "evolve"):
        for key in cfg.parameters:
            if key in MODEL_PARAMETERS:
                raise ConfigError(f"[parameters] {key}: an inline model does not read it")
        if cfg.sweep_name in MODEL_PARAMETERS:
            raise ConfigError(f"[sweep] name: an inline model does not read {cfg.sweep_name!r}")
    if not cfg.sweep_name:
        return
    reads = COMMAND_SWEEPS.get(command, ())
    if command == "qsl" and cfg.inline is None:
        reads += tuple(PRESETS[cfg.preset or "emission"].defaults)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use; parse_args
    leaves it unchanged."""
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
        args = _parser().parse_args(argv)
        if args.seed < 0:  # numpy's generators take nonnegative seeds only
            raise ConfigError(f"argument --seed: must be nonnegative, got {args.seed}")
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        if args.format is None:
            args.format = cfg.output_format or ("json" if args.command == "verify" else "csv")
        _check_reads(args.command, cfg)
        return COMMANDS[args.command](cfg, args)
    except (ConfigError, ResourceLimitError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except IntegrationQualityError as exc:
        print(f"integration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
