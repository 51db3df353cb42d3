"""Span tracing of openqsl's public functions, for the traced run only.

``Tracer.install`` replaces each traced function at every module attribute
of the package that holds it (``openqsl.cli.build_model`` as well as
``openqsl.config.build_model``), so callers inside the package are traced
too. ``linalg`` is deliberately not wrapped: it is called only inside inner
loops, where a wrapper would cost more than the work it times.

Each span records its name, start, end and parent; spans stay in memory and
are written out when the run ends. ``layer_metrics`` turns them, plus the
diagnostics of every returned ``Trajectory``, into the per-layer metrics:
totals per pass over the items, and ratios, medians and extremes over all.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

TRACED = (
    "dynamics.evolve",
    "dynamics.LindbladModel",
    "qsl.compute_quantities",
    "qsl.t_qsl",
    "qsl.qsl_lower_bound",
    "fisher.verify_fisher_tradeoff",
    "models.dephasing_model",
    "models.product_quantities_analytic",
    "config.load_config",
    "config.build_model",
    "cli.main",
)
# Dimensions that get their own median us/step: fisher_short runs 2..4.
STEP_DIMS = (2, 3, 4)
# Spans kept for the trace file; aggregates cover every span regardless.
SPAN_CAP = 50_000


def _per_layer_spec():
    spec = []

    def add(name, unit, better):
        spec.append((name, unit, better))

    def timing(layer, extra=()):
        add(f"{layer}.calls", "count", "higher")
        add(f"{layer}.busy_s", "s", "lower")
        for key in extra:
            add(f"{layer}.{key}", "s" if key == "self_s" else "us", "lower")

    timing("dynamics.evolve")
    add("dynamics.evolve.steps", "count", "higher")
    add("dynamics.evolve.us_per_step", "us", "lower")
    for d in STEP_DIMS:
        add(f"dynamics.evolve.us_per_step.d{d}", "us", "lower")
    add("dynamics.evolve.renormalizations", "count", "lower")
    add("dynamics.evolve.quality_failures", "count", "lower")
    add("dynamics.evolve.max_trace_drift", "1", "lower")
    add("dynamics.evolve.min_eig", "1", "higher")
    add("dynamics.evolve.max_herm_drift", "1", "lower")
    timing("dynamics.LindbladModel")
    timing("qsl.compute_quantities", ("us_per_call",))
    timing("qsl.t_qsl", ("us_per_call",))
    timing("qsl.qsl_lower_bound")
    add("qsl.frozen", "count", "lower")
    timing("fisher.verify_fisher_tradeoff", ("self_s",))
    add("fisher.grid_points", "count", "higher")
    add("fisher.unsatisfied", "count", "lower")
    timing("models.dephasing_model")
    timing("models.product_quantities_analytic")
    timing("config.load_config")
    timing("config.build_model")
    timing("cli.main", ("self_s",))
    add("cli.bytes_written", "bytes", "higher")
    add("cli.exit_nonzero", "count", "lower")
    add("trace.overhead_frac", "ratio", "lower")
    return tuple(spec)


# (name, unit, better) of every per-layer metric, in output order.
PER_LAYER = _per_layer_spec()


class _Layer:
    __slots__ = ("calls", "busy", "self_time", "errors")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.errors = defaultdict(int)


class Tracer:
    """Single-threaded span recorder; install, run the items, uninstall."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, error)
        self.dropped = 0
        self.layers = defaultdict(_Layer)
        # (dim, steps, seconds, renormalizations, trace_drift, min_eig, herm_drift)
        self.trajectories = []
        self.fisher_points = 0
        self.fisher_unsatisfied = 0
        self.cli_nonzero = 0
        self.top_level_busy = 0.0  # time inside spans that have no parent
        self._stack = []  # [span id, time covered by child spans]
        self._patched = []
        self._next_id = 0

    def _wrap(self, name, fn):
        observe = {
            "dynamics.evolve": self._observe_evolve,
            "fisher.verify_fisher_tradeoff": self._observe_fisher,
            "cli.main": self._observe_cli,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            error = None
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                self._close(name, span_id, start, end, parent, frame[1], error)
            if observe is not None:
                observe(out, end - start)
            return out

        return traced

    def _close(self, name, span_id, start, end, parent, child_time, error):
        dur = end - start
        layer = self.layers[name]
        layer.calls += 1
        layer.busy += dur
        layer.self_time += dur - child_time
        if error is not None:
            layer.errors[error] += 1
        if self._stack:
            self._stack[-1][1] += dur
        else:
            self.top_level_busy += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, name, start, end, parent, error))
        else:
            self.dropped += 1

    def _observe_evolve(self, traj, seconds):
        self.trajectories.append(
            (
                traj.model.dim,
                len(traj.times) - 1,
                seconds,
                traj.renormalizations,
                traj.trace_drift,
                traj.min_eig,
                traj.herm_drift,
            )
        )

    def _observe_fisher(self, reports, seconds):
        self.fisher_points += len(reports)
        self.fisher_unsatisfied += sum(not r.satisfied for r in reports)

    def _observe_cli(self, code, seconds):
        self.cli_nonzero += code != 0

    def install(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items()) if n == "openqsl" or n.startswith("openqsl.")
        ]
        for name in TRACED:
            module, attr = name.split(".")
            original = getattr(importlib.import_module(f"openqsl.{module}"), attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, original))

    def uninstall(self) -> None:
        for m, key, original in reversed(self._patched):
            setattr(m, key, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        doc = {
            "fields": ["id", "name", "start_s", "end_s", "parent", "error"],
            "dropped": self.dropped,
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))

    def layer_metrics(self, passes: int, bytes_written: int, overhead_frac: float) -> dict:
        """Value of every metric in PER_LAYER. Counts, times and
        ``bytes_written`` summed over ``passes`` traced passes are divided
        by ``passes``."""
        out = {}
        for name in TRACED:
            layer = self.layers[name]
            out[f"{name}.calls"] = layer.calls / passes
            out[f"{name}.busy_s"] = layer.busy / passes
            out[f"{name}.self_s"] = layer.self_time / passes
            out[f"{name}.us_per_call"] = 1e6 * layer.busy / layer.calls if layer.calls else 0.0

        trajs = self.trajectories
        steps = sum(t[1] for t in trajs)
        out["dynamics.evolve.steps"] = steps / passes
        out["dynamics.evolve.us_per_step"] = (
            1e6 * sum(t[2] for t in trajs) / steps if steps else 0.0
        )
        for d in STEP_DIMS:
            per_step = [1e6 * t[2] / t[1] for t in trajs if t[0] == d]
            out[f"dynamics.evolve.us_per_step.d{d}"] = (
                statistics.median(per_step) if per_step else 0.0
            )
        out["dynamics.evolve.renormalizations"] = sum(t[3] for t in trajs) / passes
        out["dynamics.evolve.quality_failures"] = self.layers["dynamics.evolve"].errors[
            "IntegrationQualityError"
        ] / passes
        out["dynamics.evolve.max_trace_drift"] = max((t[4] for t in trajs), default=0.0)
        out["dynamics.evolve.min_eig"] = min((t[5] for t in trajs), default=0.0)
        out["dynamics.evolve.max_herm_drift"] = max((t[6] for t in trajs), default=0.0)

        out["qsl.frozen"] = (
            self.layers["qsl.t_qsl"].errors["FrozenDynamicsError"]
            + self.layers["qsl.qsl_lower_bound"].errors["FrozenDynamicsError"]
        ) / passes
        out["fisher.grid_points"] = self.fisher_points / passes
        out["fisher.unsatisfied"] = self.fisher_unsatisfied / passes
        out["cli.bytes_written"] = bytes_written / passes
        out["cli.exit_nonzero"] = self.cli_nonzero / passes
        out["trace.overhead_frac"] = overhead_frac
        return {name: {"value": out[name], "unit": unit} for name, unit, _ in PER_LAYER}
