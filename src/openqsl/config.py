"""Experiment configuration: INI sections of flat key-value pairs.

A config file has up to five sections::

    [model]        preset = emission | dephasing | product, or inline
                   hamiltonian / lindblad_ops / psi0 as nested JSON arrays
                   of [re, im] pairs
    [parameters]   numeric knobs (gamma, omega, theta, theta_target, n, ...)
    [integrator]   dt, horizon
    [sweep]        name, values (JSON array or comma-separated)
    [output]       path, format = csv | json

``load_config`` reads the sections in the order of ``_SECTIONS``, which
holds the parser of every key, and reports the first problem. It checks
and builds an inline model once, as the config's ``inline`` pair: a
non-Hermitian Hamiltonian or a denormalized state vector is rejected
naming its key. A model parameter (omega, gamma, theta, n) set or swept
beside an inline model is rejected by the commands that read the model
(``cli._check_reads``), as the model would not read it; the other commands
read those keys themselves. A [parameters] or sweep value is checked
against its key's domain when a command reads it.

One ``configparser.ConfigParser``, built on first use, serves every
``load_config`` call of the process, since building one costs as much as
reading a small config; ``_read_ini`` empties it, reads a file and copies
out its sections under one lock, so two threads never see each other's.

Every preset is a record of ``models.PRESETS``: its keys, defaults and
rules, its model and its closed form. ``build_model`` builds a preset's
model from the config's own parameters, reporting a value that breaks the
preset's rules as a [parameters] ConfigError, or returns the inline model.
``sweep_columns`` reads a sweep's speed-limit scalars from the preset's
closed form and builds no model.
"""

from __future__ import annotations

import configparser
import functools
import json
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .dynamics import TRAJECTORY_BYTE_CAP, LindbladModel
from .errors import ConfigError
from .models import PRESETS, Preset
from .qsl import compute_quantities, v_coefficient

# The model parameters of the presets, which an inline model does not read.
MODEL_PARAMETERS = set().union(*(preset.defaults for preset in PRESETS.values()))
# What the commands require of the [parameters] keys they read directly, and
# of sweep values over those keys; the model parameters (omega, gamma, theta
# and n >= 1) are checked by their preset when a model is built.
_POSITIVE = ("positive", lambda v: v > 0.0)
_COUNT = ("a nonnegative integer", lambda v: v >= 0.0 and v == int(v))
# A fig1a run peaks at about 851 bytes per gamma point (tracemalloc, 2e5
# points); at 1 KiB a point, this many points keep it within the byte cap
# of a trajectory, and more are refused before anything is allocated.
_FIG1A_MAX_POINTS = TRAJECTORY_BYTE_CAP // 1024
_DOMAINS = {
    "theta_target": ("in (0, pi/2]", lambda v: 0.0 < v <= math.pi / 2),
    "gamma_min": _POSITIVE,
    "gamma_max": _POSITIVE,
    "gamma_points": (
        f"an integer in [1, {_FIG1A_MAX_POINTS}]",
        lambda v: 1.0 <= v <= _FIG1A_MAX_POINTS and v == int(v),
    ),
    "n": ("an integer", lambda v: v == int(v)),
    "n_models": _COUNT,
    "n_fisher_models": _COUNT,
    "n_scalar_samples": _COUNT,
}
# Every [parameters] key that a command reads; a sweep may vary any of
# them, or the time grid "t".
_PARAMETER_KEYS = set(_DOMAINS) | MODEL_PARAMETERS


@dataclass
class ExperimentConfig:
    """Parsed and validated experiment description; ``inline`` is the
    (LindbladModel, psi0 / |psi0|) of inline [model] matrices, or None for
    a preset."""

    preset: str | None = None
    inline: tuple | None = None
    parameters: dict = field(default_factory=dict)
    dt: float | None = None
    horizon: float | None = None
    sweep_name: str | None = None
    sweep_values: list | None = None
    output_path: str | None = None
    output_format: str | None = None

    def param(self, key: str, default: float) -> float:
        """The [parameters] value of ``key``, or ``default``, checked against
        the key's domain."""
        value = float(self.parameters.get(key, default))
        problem = _domain_problem(key, value)
        if problem:
            raise ConfigError(f"[parameters] {key}: {problem}")
        return value

    def integrator(self, horizon: float, dt: float) -> tuple:
        """The [integrator] (horizon, dt), each defaulting to the command's
        own; a dt longer than the horizon, beyond the 1e-12 relative slack
        of ``dynamics.evolve``, raises ConfigError."""
        horizon, dt = self.horizon or horizon, self.dt or dt
        if dt > horizon * (1.0 + 1e-12):
            raise ConfigError(f"[integrator] dt: {dt!r} exceeds the horizon {horizon!r}")
        return horizon, dt

    def sweep(self) -> list:
        """The [sweep] values, each checked against the domain of the key
        they vary."""
        for value in self.sweep_values:
            problem = _domain_problem(self.sweep_name, value)
            if problem:
                raise ConfigError(f"[sweep] values: {self.sweep_name} {problem}")
        return list(self.sweep_values)

    def echo(self) -> dict:
        """JSON-serializable snapshot for the output metadata sidecar."""
        return {
            "preset": self.preset,
            "parameters": {k: float(v) for k, v in sorted(self.parameters.items())},
            "dt": self.dt,
            "horizon": self.horizon,
            "sweep": {"name": self.sweep_name, "values": self.sweep_values}
            if self.sweep_name
            else None,
            "inline_model": self.inline is not None,
        }


def _domain_problem(key: str, value: float) -> str | None:
    rule = _DOMAINS.get(key)
    if rule is None or rule[1](value):
        return None
    return f"must be {rule[0]}, got {value!r}"


def _parse_complex_array(raw, where: str, expect_vector: bool = False) -> np.ndarray:
    """Nested [re, im] pairs -> complex ndarray (vector or square matrix)."""
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: entries must be numeric [re, im] pairs ({exc})")
    # numpy reads true and false as 1 and 0, and a string as its text. An
    # array that converts to floats is rectangular, so its object form holds
    # the parsed entries one by one.
    if any(isinstance(x, (bool, str)) for x in np.asarray(raw, dtype=object).flat):
        raise ConfigError(f"{where}: entries must be numeric [re, im] pairs, not booleans or text")
    if not np.isfinite(arr).all():
        raise ConfigError(f"{where}: entries must be finite")
    if arr.ndim < 2 or arr.shape[-1] != 2:
        raise ConfigError(f"{where}: expected nested [re, im] pairs, got shape {arr.shape}")
    out = arr[..., 0] + 1j * arr[..., 1]
    if expect_vector:
        if out.ndim != 1:
            raise ConfigError(f"{where}: expected a vector of [re, im] pairs")
    elif out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise ConfigError(f"{where}: expected a square matrix of [re, im] pairs")
    return out


def _parse_number(text: str, where: str) -> float:
    try:
        num = float(text)
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {text!r}")
    if not math.isfinite(num):
        raise ConfigError(f"{where}: {text!r} is not finite")
    return num


def _parse_values(text: str, where: str) -> list:
    """JSON array of numbers, or a comma-separated list of numbers."""
    text = text.strip()
    if text.startswith("["):
        try:
            values = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{where}: invalid JSON array ({exc})")
        # float() reads true and false as 1 and 0, and a string as its text.
        for v in values:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ConfigError(f"{where}: sweep value {v!r} is not a number")
    else:
        values = [part.strip() for part in text.split(",") if part.strip()]
    if not values:
        raise ConfigError(f"{where}: sweep values must be a nonempty list")
    out = []
    for v in values:
        try:
            fv = float(v)
        except (ValueError, OverflowError):
            raise ConfigError(f"{where}: sweep value {v!r} is not a number")
        if not math.isfinite(fv):
            raise ConfigError(f"{where}: sweep value {v!r} is not finite")
        out.append(fv)
    return out


def _parse_json_field(text: str, where: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"{where}: invalid JSON ({exc})")


def _parse_array(text: str, where: str, expect_vector: bool = False) -> np.ndarray:
    return _parse_complex_array(_parse_json_field(text, where), where, expect_vector)


def _parse_matrices(text: str, where: str) -> list:
    raw = _parse_json_field(text, where)
    if not isinstance(raw, list):
        raise ConfigError(f"{where}: expected a list of matrices")
    return [_parse_complex_array(item, f"{where}[{i}]") for i, item in enumerate(raw)]


def _parse_positive(text: str, where: str) -> float:
    num = _parse_number(text, where)
    if num <= 0.0:
        raise ConfigError(f"{where}: must be positive")
    return num


def _one_of(allowed, described: str):
    """A parser of one of ``allowed``, which its error calls ``described``."""

    def parse(text: str, where: str) -> str:
        if text not in allowed:
            raise ConfigError(f"{where}: {text!r} is not {described}")
        return text

    return parse


# Each section's keys with the parsers of their values, which name the
# section and key in a ConfigError, in the order load_config reads them.
_SECTIONS = {
    "model": {
        "preset": _one_of(PRESETS, "one of " + ", ".join(PRESETS)),
        "hamiltonian": _parse_array,
        "lindblad_ops": _parse_matrices,
        "psi0": functools.partial(_parse_array, expect_vector=True),
    },
    "parameters": dict.fromkeys(_PARAMETER_KEYS, _parse_number),
    "integrator": dict.fromkeys(("dt", "horizon"), _parse_positive),
    "sweep": {
        "name": _one_of(_PARAMETER_KEYS | {"t"}, "a parameter or t"),
        "values": _parse_values,
    },
    "output": {
        "path": lambda text, where: text,
        "format": _one_of(("csv", "json"), "csv or json"),
    },
}


@functools.cache
def _ini_parser() -> configparser.ConfigParser:
    """The one INI parser of the process, built on first use."""
    return configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)


_INI_LOCK = threading.Lock()


def _read_ini(path: str) -> dict:
    """The (key, value) pairs of every section of the INI file at ``path``,
    each with the [DEFAULT] keys merged in as ``ConfigParser.items`` does,
    read by the shared parser after emptying it of the previous file."""
    with _INI_LOCK:
        parser = _ini_parser()
        for section in parser.sections():
            parser.remove_section(section)
        parser.defaults().clear()
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}")
        except configparser.Error as exc:
            raise ConfigError(f"config syntax error in {path!r}: {exc}")
        return {section: parser.items(section) for section in parser.sections()}


def load_config(path: str) -> ExperimentConfig:
    """Read and validate a config file in the order of ``_SECTIONS``; raises
    ConfigError with the section and key of the first problem."""
    sections = _read_ini(path)
    for section in sections:
        if section not in _SECTIONS:
            raise ConfigError(f"[{section}]: unknown section")

    read = {}
    for section, parsers in _SECTIONS.items():
        values = read[section] = {}
        for key, text in sections.get(section, ()):
            where = f"[{section}] {key}"
            if key not in parsers:
                raise ConfigError(f"{where}: unknown key")
            values[key] = parsers[key](text, where)
        if section == "sweep" and len(values) == 1:
            if "name" in values:
                raise ConfigError("[sweep] values: required when a sweep name is given")
            raise ConfigError("[sweep] name: required when sweep values are given")

    model, sweep = read["model"], read["sweep"]
    preset = model.pop("preset", None)
    if preset is not None and "hamiltonian" in model:
        raise ConfigError("[model]: give either a preset or inline matrices, not both")
    return ExperimentConfig(
        preset=preset,
        inline=_inline_model(**model) if model else None,
        parameters=read["parameters"],
        **read["integrator"],
        sweep_name=sweep.get("name"),
        sweep_values=sweep.get("values"),
        output_path=read["output"].get("path"),
        output_format=read["output"].get("format"),
    )


def _inline_model(hamiltonian=None, lindblad_ops=(), psi0=None) -> tuple:
    """(LindbladModel, psi0 / |psi0|) of the parsed inline [model]
    matrices; a missing one, a broken generator, or a psi0 of the wrong
    length or norm raises ConfigError."""
    if hamiltonian is None:
        raise ConfigError("[model] hamiltonian: required when psi0/lindblad_ops is given")
    if psi0 is None:
        raise ConfigError("[model] psi0: required for an inline model")
    try:
        model = LindbladModel(hamiltonian=hamiltonian, lindblad_ops=tuple(lindblad_ops))
    except ValueError as exc:
        raise ConfigError(f"[model] hamiltonian/lindblad_ops: {exc}")
    if psi0.shape != (model.dim,):
        raise ConfigError(
            f"[model] psi0: length {psi0.shape[0]} does not match the "
            f"hamiltonian dimension {model.dim}"
        )
    nrm = float(np.linalg.norm(psi0))
    if abs(nrm - 1.0) > 1e-6:
        raise ConfigError(f"[model] psi0: norm {nrm!r} is not 1")
    return model, psi0 / nrm


def _preset(cfg: ExperimentConfig) -> Preset:
    """The record of cfg's preset, which defaults to emission."""
    name = cfg.preset or "emission"
    if name not in PRESETS:
        raise ConfigError(f"[model] preset: unknown preset {name!r}")
    return PRESETS[name]


def build_model(cfg: ExperimentConfig):
    """cfg's (LindbladModel, psi0): its inline model, built and checked by
    ``load_config``, or its preset's model at the [parameters] that the
    preset reads, each checked against its key's domain first. A value
    that breaks the preset's rules, or a product chain over the dense size
    cap, raises a [parameters] ConfigError."""
    if cfg.inline is not None:
        return cfg.inline
    preset = _preset(cfg)
    params = {key: cfg.param(key, default) for key, default in preset.defaults.items()}
    try:
        return preset.model(**params)
    except ValueError as exc:
        raise ConfigError(f"[parameters]: {exc}")


def sweep_columns(cfg: ExperimentConfig, columns: dict) -> tuple:
    """The speed-limit scalars of cfg's model at every row of ``columns``
    (equal-length lists of values keyed by parameter name, which replace
    the config's own) as four lists: delta_h0, g_term, e_term and v_coeff.

    A preset's row is its closed form ``terms`` at the row's parameters;
    every row of an inline model is its one ``compute_quantities``, and
    inline scalars that overflow a float raise a [model] ConfigError. A
    column the model does not read, such as theta_target, changes no
    scalar. The first row that breaks its preset's rules, in the preset's
    order, raises that rule's ConfigError before any row is evaluated, and
    a row whose terms or v = 2 delta_h0 + sqrt(2) g_term overflow a float
    raises a [parameters] one naming it.
    """
    rows = len(next(iter(columns.values())))
    if cfg.inline is not None:
        with np.errstate(all="ignore"):
            q = compute_quantities(*cfg.inline)
        if not (math.isfinite(q.v_coeff) and math.isfinite(q.e_term)):  # v sums the others
            raise ConfigError("[model] hamiltonian/lindblad_ops: speed-limit terms overflow a float")
        params, terms = {}, [(q.delta_h0, q.g_term, q.e_term)] * rows
    else:
        preset = _preset(cfg)
        # Every parameter the model reads, as a column: swept, or fixed.
        params = {
            key: columns[key] if key in columns else [cfg.param(key, default)] * rows
            for key, default in preset.defaults.items()
        }
        # The first row that breaks a rule; a fixed value is checked on row 0.
        bad, problem = rows, None
        for key, values in params.items():
            test, message = preset.rules[key]
            checked = values if key in columns else values[:1]
            first = next((i for i, v in enumerate(checked) if not test(v)), rows)
            if first < bad:
                bad, problem = first, message
        if problem is not None:
            raise ConfigError(f"[parameters]: {problem}")
        try:
            terms = list(map(preset.terms, *params.values()))
        except ValueError as exc:  # a product chain's terms overflow
            raise ConfigError(f"[parameters]: {exc}")

    delta_h0, g_term, e_term = map(list, zip(*terms))
    v_coeff = list(map(v_coefficient, delta_h0, g_term))
    for i, v in enumerate(v_coeff):
        if not math.isfinite(v):  # 2 delta_h0 overflows past about 9e307
            row = ", ".join(f"{k} = {values[i]!r}" for k, values in {**columns, **params}.items())
            raise ConfigError(
                f"[parameters]: v = 2 delta_h0 + sqrt(2) g_term overflows a float at row {i} ({row})"
            )
    return delta_h0, g_term, e_term, v_coeff
