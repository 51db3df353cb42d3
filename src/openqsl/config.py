"""Experiment configuration: INI sections of flat key-value pairs.

A config file has up to five sections::

    [model]        preset = emission | dephasing | product, or inline
                   hamiltonian / lindblad_ops / psi0 as nested JSON arrays
                   of [re, im] pairs
    [parameters]   numeric knobs (gamma, omega, theta, theta_target, n, ...)
    [integrator]   dt, horizon
    [sweep]        name, values (JSON array or comma-separated)
    [output]       path, format = csv | json

Inline matrices are validated at load time: a non-Hermitian Hamiltonian or
a denormalized state vector is rejected here, naming the offending field.
A [parameters] or sweep value is checked against its key's domain when a
command reads it, and a model parameter by its preset.
"""

from __future__ import annotations

import configparser
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import LindbladModel
from .errors import ConfigError
from .models import (
    DephasingQubitParams,
    ProductModelParams,
    dephasing_model,
    product_model_dense,
    spontaneous_emission_model,
)
from .qsl import QslQuantities, compute_quantities

PRESETS = ("dephasing", "emission", "product")
# The [parameters] keys that build_model reads for each preset, with their
# defaults; an inline model reads none.
PRESET_DEFAULTS = {
    "emission": {"gamma": 1.0},
    "dephasing": {"omega": 1.0, "gamma": 1.0, "theta": math.pi / 4},
    "product": {"n": 3, "omega": 1.0, "gamma": 1.0, "theta": math.pi / 4},
}
_MODEL_KEYS = {"preset", "hamiltonian", "lindblad_ops", "psi0"}
# Every [parameters] key that a command reads; a sweep may vary any of
# them, or the time grid "t".
_PARAMETER_KEYS = {
    "theta_target", "theta", "omega", "gamma", "n",
    "gamma_min", "gamma_max", "gamma_points",
    "n_models", "n_fisher_models", "n_scalar_samples",
}
# What the commands require of the [parameters] keys they read directly, and
# of sweep values over those keys; the model parameters (omega, gamma, theta
# and n >= 1) are checked by their preset when a model is built.
_POSITIVE = ("positive", lambda v: v > 0.0)
_COUNT = ("a nonnegative integer", lambda v: v >= 0.0 and v == int(v))
_DOMAINS = {
    "theta_target": ("in (0, pi/2]", lambda v: 0.0 < v <= math.pi / 2),
    "gamma_min": _POSITIVE,
    "gamma_max": _POSITIVE,
    "gamma_points": ("a positive integer", lambda v: v >= 1.0 and v == int(v)),
    "n": ("an integer", lambda v: v == int(v)),
    "n_models": _COUNT,
    "n_fisher_models": _COUNT,
    "n_scalar_samples": _COUNT,
}
_INTEGRATOR_KEYS = {"dt", "horizon"}
_SWEEP_KEYS = {"name", "values"}
_OUTPUT_KEYS = {"path", "format"}


@dataclass
class ExperimentConfig:
    """Parsed and validated experiment description."""

    preset: str | None = None
    hamiltonian: np.ndarray | None = None
    lindblad_ops: list | None = None
    psi0: np.ndarray | None = None
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
        out = {
            "preset": self.preset,
            "parameters": {k: float(v) for k, v in sorted(self.parameters.items())},
            "dt": self.dt,
            "horizon": self.horizon,
            "sweep": {"name": self.sweep_name, "values": self.sweep_values}
            if self.sweep_name
            else None,
            "inline_model": self.hamiltonian is not None,
        }
        return out


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
    if not np.isfinite(arr).all():
        raise ConfigError(f"{where}: entries must be finite")
    if arr.ndim < 2 or arr.shape[-1] != 2:
        raise ConfigError(f"{where}: expected nested [re, im] pairs, got shape {arr.shape}")
    out = arr[..., 0] + 1j * arr[..., 1]
    if expect_vector:
        if out.ndim != 1:
            raise ConfigError(f"{where}: expected a vector of [re, im] pairs")
    else:
        if out.ndim != 2 or out.shape[0] != out.shape[1]:
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
    """JSON array, or a comma-separated list of numbers."""
    text = text.strip()
    if text.startswith("["):
        try:
            values = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{where}: invalid JSON array ({exc})")
    else:
        values = [part.strip() for part in text.split(",") if part.strip()]
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{where}: sweep values must be a nonempty list")
    out = []
    for v in values:
        try:
            fv = float(v)
        except (TypeError, ValueError, OverflowError):
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


def load_config(path: str) -> ExperimentConfig:
    """Read and validate a config file; raises ConfigError with the failing
    section and key on any problem."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error in {path!r}: {exc}")

    cfg = ExperimentConfig()
    for section in parser.sections():
        if section not in ("model", "parameters", "integrator", "sweep", "output"):
            raise ConfigError(f"[{section}]: unknown section")

    if parser.has_section("model"):
        for key, value in parser.items("model"):
            if key not in _MODEL_KEYS:
                raise ConfigError(f"[model] {key}: unknown key")
            if key == "preset":
                if value not in PRESETS:
                    raise ConfigError(
                        f"[model] preset: {value!r} is not one of {', '.join(PRESETS)}"
                    )
                cfg.preset = value
            elif key == "hamiltonian":
                cfg.hamiltonian = _parse_complex_array(
                    _parse_json_field(value, "[model] hamiltonian"), "[model] hamiltonian"
                )
            elif key == "lindblad_ops":
                raw = _parse_json_field(value, "[model] lindblad_ops")
                if not isinstance(raw, list):
                    raise ConfigError("[model] lindblad_ops: expected a list of matrices")
                cfg.lindblad_ops = [
                    _parse_complex_array(item, f"[model] lindblad_ops[{i}]")
                    for i, item in enumerate(raw)
                ]
            elif key == "psi0":
                cfg.psi0 = _parse_complex_array(
                    _parse_json_field(value, "[model] psi0"), "[model] psi0", expect_vector=True
                )

    if parser.has_section("parameters"):
        for key, value in parser.items("parameters"):
            if key not in _PARAMETER_KEYS:
                raise ConfigError(f"[parameters] {key}: unknown key")
            cfg.parameters[key] = _parse_number(value, f"[parameters] {key}")

    if parser.has_section("integrator"):
        for key, value in parser.items("integrator"):
            if key not in _INTEGRATOR_KEYS:
                raise ConfigError(f"[integrator] {key}: unknown key")
            num = _parse_number(value, f"[integrator] {key}")
            if num <= 0.0:
                raise ConfigError(f"[integrator] {key}: must be positive")
            setattr(cfg, key, num)

    if parser.has_section("sweep"):
        for key, value in parser.items("sweep"):
            if key not in _SWEEP_KEYS:
                raise ConfigError(f"[sweep] {key}: unknown key")
            if key == "name":
                cfg.sweep_name = value.strip()
                if cfg.sweep_name not in _PARAMETER_KEYS | {"t"}:
                    raise ConfigError(f"[sweep] name: {cfg.sweep_name!r} is not a parameter or t")
            else:
                cfg.sweep_values = _parse_values(value, "[sweep] values")
        if cfg.sweep_name and not cfg.sweep_values:
            raise ConfigError("[sweep] values: required when a sweep name is given")
        if cfg.sweep_values and not cfg.sweep_name:
            raise ConfigError("[sweep] name: required when sweep values are given")

    if parser.has_section("output"):
        for key, value in parser.items("output"):
            if key not in _OUTPUT_KEYS:
                raise ConfigError(f"[output] {key}: unknown key")
            if key == "format":
                if value not in ("csv", "json"):
                    raise ConfigError(f"[output] format: {value!r} is not csv or json")
                cfg.output_format = value
            else:
                cfg.output_path = value

    if cfg.preset is not None and cfg.hamiltonian is not None:
        raise ConfigError("[model]: give either a preset or inline matrices, not both")

    # Inline models must satisfy the generator invariants at load time.
    if cfg.hamiltonian is not None or cfg.psi0 is not None or cfg.lindblad_ops is not None:
        build_model(cfg)
    return cfg


def _preset_params(cfg: ExperimentConfig, overrides: dict | None) -> dict:
    """The [parameters] that cfg's preset reads, with ``overrides``
    substituted and checked by the preset's own rules; an inline model
    reads none."""
    if cfg.hamiltonian is not None:
        return {}
    preset = cfg.preset or "emission"
    if preset not in PRESET_DEFAULTS:
        raise ConfigError(f"[model] preset: unknown preset {preset!r}")
    overrides = overrides or {}
    params = {
        key: overrides[key] if key in overrides else cfg.param(key, default)
        for key, default in PRESET_DEFAULTS[preset].items()
    }
    try:
        if preset == "emission":
            if params["gamma"] <= 0.0:
                raise ValueError("gamma must be positive")
        elif preset == "dephasing":
            DephasingQubitParams(**params)
        else:
            ProductModelParams(**params)
            params["n"] = int(params["n"])
    except ValueError as exc:
        raise ConfigError(f"[parameters]: {exc}")
    return params


def build_model(cfg: ExperimentConfig, overrides: dict | None = None):
    """Construct (LindbladModel, psi0) from a preset or inline matrices.

    ``overrides`` substitutes parameter values (used by sweeps) without
    mutating the config.
    """
    if cfg.hamiltonian is None and (cfg.psi0 is not None or cfg.lindblad_ops is not None):
        raise ConfigError("[model] hamiltonian: required when psi0/lindblad_ops is given")
    if cfg.hamiltonian is not None:
        if cfg.psi0 is None:
            raise ConfigError("[model] psi0: required for an inline model")
        ops = tuple(cfg.lindblad_ops or ())
        try:
            model = LindbladModel(hamiltonian=cfg.hamiltonian, lindblad_ops=ops)
        except ValueError as exc:
            raise ConfigError(f"[model] hamiltonian/lindblad_ops: {exc}")
        psi0 = np.asarray(cfg.psi0, dtype=complex)
        if psi0.shape != (model.dim,):
            raise ConfigError(
                f"[model] psi0: length {psi0.shape[0]} does not match the "
                f"hamiltonian dimension {model.dim}"
            )
        nrm = float(np.linalg.norm(psi0))
        if abs(nrm - 1.0) > 1e-6:
            raise ConfigError(f"[model] psi0: norm {nrm!r} is not 1")
        return model, psi0 / nrm

    params = _preset_params(cfg, overrides)
    preset = cfg.preset or "emission"
    if preset == "emission":
        return spontaneous_emission_model(**params)
    if preset == "dephasing":
        return dephasing_model(DephasingQubitParams(**params))
    try:
        return product_model_dense(ProductModelParams(**params))
    except ValueError as exc:  # the dense size cap
        raise ConfigError(f"[parameters]: {exc}")


def sweep_quantities(cfg: ExperimentConfig):
    """Return ``quantities(overrides)``, the speed-limit quantities of
    ``build_model(cfg, overrides)``, for the rows of a sweep.

    delta_h0 is linear in omega, and g_term and e_term are linear in gamma,
    since every jump operator is sqrt(gamma) times a unit one. So
    ``compute_quantities`` runs once per unit-rate model (omega = gamma = 1
    and the call's other parameters) and each call scales its terms by its
    own rates. An inline model, and the emission preset's omega, take a
    factor of 1. Every call checks its parameters as build_model does.
    """
    unit = {}

    def quantities(overrides: dict) -> QslQuantities:
        params = _preset_params(cfg, overrides)
        omega, gamma = params.pop("omega", 1.0), params.pop("gamma", 1.0)
        key = tuple(params.items())
        if key not in unit:
            model, psi0 = build_model(cfg, {**params, "omega": 1.0, "gamma": 1.0})
            unit[key] = compute_quantities(model, psi0)
        q = unit[key]
        return QslQuantities.from_terms(omega * q.delta_h0, gamma * q.g_term, gamma * q.e_term)

    return quantities
