"""The benchmark's two workloads.

Every workload is a closed loop with one client: items run back to back in
one single-threaded Python process. Item ``index`` of seed ``seed`` is drawn
from its own generator, ``default_rng([seed, index])``, so an item does not
depend on how many items ran before it.

A workload has five steps per item:

* ``inputs(seed, index, workdir)`` generates the item's inputs (untimed);
* ``run(oq, inp)`` feeds them to openqsl's public functions (timed);
* ``result(inp, raw)`` turns the raw return into plain JSON data (untimed);
* ``check(inp, res)`` lists violated invariants (empty when the item passed);
* ``compare(ref, res)`` lists deviations from a recorded reference result.

``oq`` is a namespace of openqsl modules. Calls go through module attributes
at call time (``oq.dynamics.evolve``), so the traced run sees them.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 0
# Tolerances of the reference comparison. The bound-formula rewrite planned
# in the roadmap moves t_qsl and t_lower by up to about 2e-8 relative, which
# T_QSL_RTOL accepts; fidelities are held to ABS_TOL, and every other value
# to REL_TOL.
ABS_TOL = 1e-9
REL_TOL = 1e-9
T_QSL_RTOL = 1e-6


def item_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, index])


def random_generator(rng: np.random.Generator, dim: int, n_ops: int):
    """Hamiltonian, jump operators and pure state with the distribution of
    ``openqsl.verify.random_model``: Frobenius norms uniform in [0.2, 2]."""

    def gauss(shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    a = gauss((dim, dim))
    h = 0.5 * (a + a.conj().T)
    h *= rng.uniform(0.2, 2.0) / np.linalg.norm(h)
    ops = []
    for _ in range(n_ops):
        op = gauss((dim, dim))
        ops.append(op * (rng.uniform(0.2, 2.0) / np.linalg.norm(op)))
    psi = gauss(dim)
    return h, tuple(ops), psi / np.linalg.norm(psi)


def _close(a, b, atol: float, rtol: float = 0.0) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= atol + rtol * abs(b)


@dataclass(frozen=True)
class ModelInputs:
    dim: int
    h: np.ndarray
    ops: tuple
    psi0: np.ndarray


class FisherShort:
    """One ``verify_fisher_tradeoff`` call per random model (d = 2..4) on the
    verify suite's t-grid at dt 1e-4: five short ``evolve`` calls of 10 to
    1000 steps, where fixed per-call cost is visible."""

    name = "fisher_short"
    t_grid = (1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1)
    dt = 1e-4
    n_reference = 10  # every (d, channel count) pair at least once

    def inputs(self, seed, index, workdir):
        dim = 2 + index % 3
        n_ops = 1 + (index // 3) % 3
        return ModelInputs(dim, *random_generator(item_rng(seed, index), dim, n_ops))

    def run(self, oq, inp):
        model = oq.dynamics.LindbladModel(hamiltonian=inp.h, lindblad_ops=inp.ops)
        return oq.fisher.verify_fisher_tradeoff(model, inp.psi0, self.t_grid, self.dt)

    def result(self, inp, raw):
        return {
            "points": [
                [r.horizon_t, r.fidelity_at_t, r.qfi_estimate, r.qfi_bound, r.satisfied]
                for r in raw
            ]
        }

    def check(self, inp, res):
        problems = []
        if len(res["points"]) != len(self.t_grid):
            problems.append(f"{len(res['points'])} grid points, expected {len(self.t_grid)}")
        problems += [
            f"estimate {est!r} exceeds ceiling {ceil!r} at t={t!r}"
            for t, _, est, ceil, ok in res["points"]
            if not ok
        ]
        return problems

    def compare(self, ref, res):
        problems = []
        for got, want in zip(res["points"], ref["points"]):
            t, fid, est, ceil, ok = got
            _, fid_ref, est_ref, ceil_ref, ok_ref = want
            if not _close(fid, fid_ref, ABS_TOL):
                problems.append(f"fidelity {fid!r} != reference {fid_ref!r} at t={t!r}")
            if not _close(est, est_ref, 0.0, T_QSL_RTOL) or not _close(ceil, ceil_ref, 0.0, T_QSL_RTOL):
                problems.append(f"estimate/ceiling {est!r}/{ceil!r} != reference {est_ref!r}/{ceil_ref!r} at t={t!r}")
            if ok != ok_ref:
                problems.append(f"satisfied {ok} != reference {ok_ref} at t={t!r}")
        if len(res["points"]) != len(ref["points"]):
            problems.append(f"{len(res['points'])} grid points, reference has {len(ref['points'])}")
        return problems


@dataclass(frozen=True)
class CliInputs:
    argv: tuple
    output: str
    expected_rows: int


class SweepCli:
    """In-process ``cli.main`` calls cycling through the ``qsl`` gamma sweep of
    the dephasing preset, ``fig1a`` and ``scaling``, each with a config file
    generated from the seed. No propagation runs here: the time goes to
    ``compute_quantities``, model construction and serialization."""

    name = "sweep_cli"
    commands = ("qsl", "fig1a", "scaling")
    qsl_points = 64
    fig1a_points = 57
    scaling_points = 5
    n_reference = 3

    def inputs(self, seed, index, workdir):
        rng = item_rng(seed, index)
        command = self.commands[index % 3]
        theta = rng.uniform(0.1, math.pi - 0.1)
        theta_target = rng.uniform(0.2, 1.4)
        if command == "qsl":
            gammas = np.logspace(rng.uniform(-3.0, -1.0), rng.uniform(1.0, 3.0), self.qsl_points)
            lines = [
                "[model]", "preset = dephasing",
                "[parameters]", f"omega = {rng.uniform(0.5, 4.0)!r}", f"theta = {theta!r}",
                f"theta_target = {theta_target!r}",
                "[sweep]", "name = gamma", "values = " + ", ".join(repr(float(g)) for g in gammas),
            ]
            rows = self.qsl_points
        elif command == "fig1a":
            lines = [
                "[parameters]", f"theta = {theta!r}", f"theta_target = {theta_target!r}",
                f"gamma_min = {10.0 ** rng.uniform(-4.0, -2.0)!r}",
                f"gamma_max = {10.0 ** rng.uniform(2.0, 4.0)!r}",
                f"gamma_points = {self.fig1a_points}",
            ]
            rows = self.fig1a_points
        else:
            ns = sorted(rng.choice(np.arange(16, 4097), size=self.scaling_points, replace=False))
            lines = [
                "[parameters]", f"omega = {rng.uniform(0.05, 2.0)!r}",
                f"gamma = {rng.uniform(0.5, 20.0)!r}", f"theta = {theta!r}",
                f"theta_target = {theta_target!r}",
                "[sweep]", "name = n", "values = " + ", ".join(str(int(n)) for n in ns),
            ]
            rows = self.scaling_points + 1  # plus the fitted exponent row
        config = os.path.join(workdir, f"{command}.ini")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        output = os.path.join(workdir, f"{command}.csv")
        return CliInputs((command, "--config", config, "--output", output), output, rows)

    def run(self, oq, inp):
        return oq.cli.main(list(inp.argv))

    def result(self, inp, raw):
        res = {"command": inp.argv[0], "exit": raw, "rows": [], "bytes": 0}
        if raw == 0:
            with open(inp.output, newline="", encoding="utf-8") as fh:
                table = list(csv.reader(fh))
            res["header"] = table[0]
            res["rows"] = [[_cell(v) for v in row] for row in table[1:]]
            res["bytes"] = sum(
                os.path.getsize(p) for p in (inp.output, inp.output + ".meta.json")
            )
        return res

    def check(self, inp, res):
        if res["exit"] != 0:
            return [f"exit code {res['exit']}"]
        problems = []
        if len(res["rows"]) != inp.expected_rows:
            problems.append(f"{len(res['rows'])} rows, expected {inp.expected_rows}")
        if res["command"] == "qsl":
            col = res["header"].index
            for row in res["rows"]:
                t_qsl, t_lower = row[col("t_qsl")], row[col("t_lower")]
                if t_qsl is not None and t_lower is not None and not t_lower <= t_qsl:
                    problems.append(f"t_lower {t_lower!r} > t_qsl {t_qsl!r} at {row[0]!r}")
        return problems

    def compare(self, ref, res):
        if res["exit"] != ref["exit"] or len(res["rows"]) != len(ref["rows"]):
            return [f"exit {res['exit']} with {len(res['rows'])} rows, reference "
                    f"exit {ref['exit']} with {len(ref['rows'])} rows"]
        # t_qsl and t_lower (and fig1a's t_qsl_omega_* columns) may move with
        # the bound-formula rewrite; every other column is held to REL_TOL
        rtols = [T_QSL_RTOL if c.startswith("t_qsl") or c == "t_lower" else REL_TOL
                 for c in ref["header"]]
        problems = []
        for got, want in zip(res["rows"], ref["rows"]):
            for column, rtol, a, b in zip(ref["header"], rtols, got, want):
                same = a == b if isinstance(a, str) or isinstance(b, str) else _close(a, b, 0.0, rtol)
                if not same:
                    problems.append(f"{res['command']} {column} {a!r} != reference {b!r}")
        return problems


def _cell(text: str):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


WORKLOADS = {w.name: w for w in (FisherShort(), SweepCli())}
