"""Layer timings of openqsl, the current checkout against a parent checkout.

Usage, from the root of a source checkout:

    python3 tools/bench.py --parent <checkout> --rounds 6 --out BENCH_13.json

Each round runs one fresh worker process per checkout, alternating which
goes first, so that a slow phase of a shared machine hits both sides. Then
it times each of the seven CLI commands at its default config end to end,
in ``CLI_PROCESSES`` fresh ``python3 -m openqsl`` processes per command and
checkout, alternating the checkouts process by process, and records each
checkout's median as its ``cli_s`` cell. A worker imports ``openqsl`` from
``src/`` of its checkout only and times:

- ``dynamics._propagate`` and ``dynamics._certified`` (the quality gate's
  per-state certificate) on one random model per dimension and step count
  of ``GRID``, h = 1e-3, in rounds 1, 3, 5, ... in ``GRID``'s order and
  in rounds 2, 4, ... in reverse, as a cell at a large dimension can read
  differently after different cells; and one ``dynamics.lindblad_rhs``
  call on the product chain of each size in ``RHS_CHAINS`` at its initial
  state; the median and the minimum of repeated calls per cell;
- the build of the Liouvillian and the step map at each ``GRID``
  dimension up to ``dynamics.SUPEROP_DIM_LIMIT``: a one-step
  ``_propagate`` call on a fresh ``LindbladModel`` per call, of one random
  model per dimension;
- every ``verify`` suite once at its default settings, and their sum;
- ``cli.main`` in process for ``qsl``, ``fig1a``, ``scaling`` and
  ``evolve`` at their default config, and for ``qsl`` on an 8-qubit
  product chain (``IN_PROCESS``), the median of repeated calls: the sweep
  layer without the interpreter start and the imports;
- on a 64-row ``qsl`` table and on the default 5001-row ``evolve`` table
  (``WRITER_TABLES``): ``cli._table`` alone, on the rows that command
  passes it, built once; and the CLI's file writer, to a fresh path per
  call and over the same path each call;
- the fixed work of a CLI call: ``config.load_config`` on the config of
  the first ``qsl``, ``fig1a`` and ``scaling`` item of the ``sweep_cli``
  workload (seed 0), and on ``INLINE_CONFIG``, whose inline model it
  checks and builds;
- ``dynamics.first_passage_time`` per call at one target on the
  ``PASSAGE`` trajectory, after its lazy Bures angles have been read;
- one ``fisher_short`` item per dimension d = 2, 3, 4 (items 0, 1, 2 of
  seed 0), run as the workload runs it: ``LindbladModel`` and one
  ``fisher.verify_fisher_tradeoff`` call, timed as one call;
- the minor page faults of all of the above, one count per worker.

Without ``--parent`` only the current checkout runs. The output file holds
every round's numbers and order (which side ran first, and the ``GRID``
cells in the order timed), the median and the minimum of the rounds per
side, in how many rounds the change was faster, the ``src/`` line count
of each checkout, whether its ``src/`` differs from its commit (and a hash
of the difference), and the machine record of ``perfbench/environment.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import environment  # noqa: E402
import workloads  # noqa: E402

# (dimension, step counts) of the layer grid.
GRID = (
    *((d, (100, 1000, 12_000)) for d in (2, 3, 4, 5, 6, 8)),
    *((d, (1000, 12_000)) for d in (9, 10, 11)),
    *((d, (100, 1000)) for d in (12, 16, 20, 24)),
    *((d, (1000,)) for d in (28, 32)),
)
STEP = 1e-3
# Qubit counts n of the product chains (d = 2^n, n jump operators) whose
# lindblad_rhs call is timed: above SUPEROP_DIM_LIMIT, where it steps.
RHS_CHAINS = (5, 6)
# Repeats of a cell: enough for about CELL_SECONDS, within REPEATS.
CELL_SECONDS = 0.2
REPEATS = (3, 15)
COMMANDS = ("qsl", "fig1a", "fig1b", "scaling", "verify", "qfi", "evolve")
# Fresh processes per command and checkout in a round's cli_s cells; one
# process per cell read unchanged code 16% slower in 5 of 6 rounds.
CLI_PROCESSES = 5
# (cell, command, config) of the in-process cli.main cells: four commands
# at their default config, and qsl on an 8-qubit product chain, whose
# scalars a dense 256-dimensional model gave before the closed forms.
IN_PROCESS = (
    *((command, command, "") for command in ("qsl", "fig1a", "scaling", "evolve")),
    ("qsl product n=8", "qsl", "[model]\npreset = product\n[parameters]\nn = 8\n"),
)
# (command, config) of the tables the formatter and the file writer are
# timed on: a 64-row gamma sweep of the dephasing preset, as one sweep_cli
# qsl item writes, and the default evolve trajectory.
WRITER_TABLES = (
    (
        "qsl",
        "[model]\npreset = dephasing\n[sweep]\nname = gamma\nvalues = "
        + ", ".join(repr(10.0 ** (k / 16 - 2)) for k in range(64))
        + "\n",
    ),
    ("evolve", ""),
)
# A qubit with a decay and a dephasing channel, as inline [model] matrices.
INLINE_CONFIG = """[model]
hamiltonian = [[[1, 0], [0.3, 0.1]], [[0.3, -0.1], [-1, 0]]]
lindblad_ops = [[[[0, 0], [0.5, 0]], [[0, 0], [0, 0]]], [[[0.2, 0], [0, 0]], [[0, 0], [-0.2, 0]]]]
psi0 = [[0.6, 0], [0, 0.8]]
"""
# (dimension, steps) of the random model whose first passage is timed, at
# step STEP, and the target as a fraction of the largest angle it reaches.
PASSAGE = (4, 12_000)
PASSAGE_TARGET = 0.5
NOTES = (
    "cli_s runs each command process to a fresh path, so it creates every "
    "file and cannot show what rewriting an existing file costs; "
    "cli_main_ms repeats each call over the same path, and writer_ms times "
    "the writer alone, to a fresh path and over an existing file."
)
SUITES = (
    "bound_dominance",
    "differential_dominance",
    "fisher_tradeoff",
    "log_inequality",
    "lower_bound_ordering",
)


def _time_ms(out: dict, group: str, key: str, fn) -> None:
    """Median of repeated calls of fn, in ms, as out[group][key], and their
    minimum as out[group + "_min"][key]."""
    t = time.perf_counter()
    fn()
    first = time.perf_counter() - t
    repeats = max(REPEATS[0], min(REPEATS[1], int(CELL_SECONDS / max(first, 1e-9))))
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    out[group][key] = 1e3 * statistics.median(times)
    out[group + "_min"][key] = 1e3 * min(times)


def _time_output(out: dict, cli, tmp: str) -> None:
    """Time ``cli._table`` on the arguments that each ``WRITER_TABLES``
    command passes it, and ``cli._write_text`` on the text it writes."""
    for command, text in WRITER_TABLES:
        config = os.path.join(tmp, f"{command}.ini")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(text)
        table = os.path.join(tmp, f"{command}.csv")
        calls = []
        format_table = cli._table
        cli._table = lambda *args: calls.append(args) or format_table(*args)
        try:
            code = cli.main([command, "--config", config, "--output", table])
        finally:
            cli._table = format_table
        if code != 0:
            raise RuntimeError(f"{command} table for the output cells failed")
        with open(table, encoding="utf-8", newline="") as fh:
            data = fh.read()
        rows = data.count("\n") - 1
        _time_ms(out, "table_ms", f"{command} {rows} rows", lambda: format_table(*calls[0]))
        fresh = (os.path.join(tmp, f"{command}-{k}.csv") for k in itertools.count())
        _time_ms(out, "writer_ms", f"{command} {rows} rows fresh", lambda: cli._write_text(next(fresh), data))
        _time_ms(out, "writer_ms", f"{command} {rows} rows overwrite", lambda: cli._write_text(table, data))


def _time_fixed(out: dict, config, tmp: str) -> None:
    sweep_cli = workloads.SweepCli()
    for index in range(len(sweep_cli.commands)):
        argv = sweep_cli.inputs(0, index, tmp).argv
        path = argv[argv.index("--config") + 1]
        _time_ms(out, "fixed_ms", f"load_config {argv[0]}", lambda: config.load_config(path))
    inline = os.path.join(tmp, "inline.ini")
    with open(inline, "w", encoding="utf-8") as fh:
        fh.write(INLINE_CONFIG)
    _time_ms(out, "fixed_ms", "load_config inline", lambda: config.load_config(inline))


def _time_passage(out: dict, np, dynamics, verify) -> None:
    d, n = PASSAGE
    model, psi0 = verify.random_model(np.random.default_rng([d, n]), d)
    traj = dynamics.evolve(model, psi0, n * STEP, STEP)
    target = PASSAGE_TARGET * float(np.max(traj.bures_angles))
    _time_ms(
        out,
        "layers",
        f"first_passage_time d={d} n={n}",
        lambda: dynamics.first_passage_time(traj, target),
    )


def _time_fisher(out: dict, dynamics, fisher) -> None:
    fisher_short = workloads.FisherShort()
    oq = types.SimpleNamespace(dynamics=dynamics, fisher=fisher)
    for index in range(3):
        inp = fisher_short.inputs(0, index, None)
        _time_ms(
            out,
            "layers",
            f"verify_fisher_tradeoff d={inp.dim}",
            lambda: fisher_short.run(oq, inp),
        )


def worker(checkout: str, grid=GRID) -> dict:
    """Timings of one checkout, in this process, over the cells of ``grid``
    in its order."""
    src = os.path.join(os.path.abspath(checkout), "src")
    sys.path.insert(0, src)
    import numpy as np
    from openqsl import cli, config, dynamics, fisher, linalg, models, verify

    groups = (
        "layers",
        "layers_min",
        "verify_s",
        "cli_main_ms",
        "cli_main_ms_min",
        "table_ms",
        "table_ms_min",
        "writer_ms",
        "writer_ms_min",
        "fixed_ms",
        "fixed_ms_min",
    )
    out = {group: {} for group in groups}
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for d, ns in grid:
        if d <= dynamics.SUPEROP_DIM_LIMIT:
            model, psi0 = verify.random_model(np.random.default_rng([d, 1]), d)
            rho0 = linalg.projector(psi0 / np.linalg.norm(psi0))
            h, ops = model.hamiltonian, model.lindblad_ops
            _time_ms(
                out,
                "layers",
                f"build d={d}",
                lambda: dynamics._propagate(dynamics.LindbladModel(h, ops), rho0, 1, STEP),
            )
        for n in ns:
            model, psi0 = verify.random_model(np.random.default_rng([d, n]), d)
            rho0 = linalg.projector(psi0 / np.linalg.norm(psi0))
            states = dynamics._propagate(model, rho0, n, STEP)[0]
            _time_ms(
                out,
                "layers",
                f"_propagate d={d} n={n}",
                lambda: dynamics._propagate(model, rho0, n, STEP),
            )
            _time_ms(out, "layers", f"_certified d={d} n={n}", lambda: dynamics._certified(states))
    for n in RHS_CHAINS:
        params = models.ProductModelParams(n=n, omega=1.0, gamma=1.0, theta=math.pi / 4)
        model, psi0 = models.product_model_dense(params)
        rho0 = linalg.projector(psi0)
        _time_ms(
            out, "layers", f"lindblad_rhs product n={n}", lambda: dynamics.lindblad_rhs(model, rho0)
        )
    _time_passage(out, np, dynamics, verify)
    _time_fisher(out, dynamics, fisher)
    for name in SUITES:
        t = time.perf_counter()
        getattr(verify, name)()
        out["verify_s"][name] = time.perf_counter() - t
    out["verify_s"]["total"] = sum(out["verify_s"].values())
    with tempfile.TemporaryDirectory() as tmp:
        for k, (cell, command, text) in enumerate(IN_PROCESS):
            argv = [command, "--output", os.path.join(tmp, command)]
            if text:
                argv += ["--config", os.path.join(tmp, f"in-process-{k}.ini")]
                with open(argv[-1], "w", encoding="utf-8") as fh:
                    fh.write(text)
            _time_ms(out, "cli_main_ms", cell, lambda: cli.main(argv))
        _time_output(out, cli, tmp)
        _time_fixed(out, config, tmp)
    out["minflt"] = {"worker pass": resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults}
    return out


def _src_changes(checkout: str) -> dict:
    """Whether ``src/`` differs from the checkout's commit (staged, unstaged
    or untracked files), and a hash of that difference, so that an
    uncommitted change does not read as the commit it started from. Both
    are None outside a git checkout."""
    if environment.git_commit(checkout) is None:
        return {"src_dirty": None, "src_diff_sha256": None}

    def git(*args) -> bytes:
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True, check=True).stdout

    status = git("status", "--porcelain", "--untracked-files=all", "--", "src")
    if not status:
        return {"src_dirty": False, "src_diff_sha256": None}
    digest = hashlib.sha256(git("diff", "HEAD", "--binary", "--", "src"))
    for line in status.splitlines():
        if line.startswith(b"?? "):
            with open(os.path.join(checkout, line[3:].decode()), "rb") as fh:
                digest.update(line[3:] + b"\0" + fh.read())
    return {"src_dirty": True, "src_diff_sha256": digest.hexdigest()}


def _grid(reverse: bool) -> tuple:
    """``GRID``, or its cells in reverse order: dimensions and each one's
    step counts."""
    return tuple((d, ns[::-1]) for d, ns in GRID[::-1]) if reverse else GRID


def _run_worker(checkout: str, reverse: bool) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", checkout]
    cmd += ["--reverse-grid"] if reverse else []
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cli_seconds(sides: dict, order: list) -> dict:
    """Per checkout in ``order``, the median wall time of each CLI command at
    its default config over CLI_PROCESSES fresh processes, each to a fresh
    path; the checkouts alternate process by process, and which goes first
    alternates too."""
    times = {side: {command: [] for command in COMMANDS} for side in order}
    with tempfile.TemporaryDirectory() as tmp:
        for command, k in itertools.product(COMMANDS, range(CLI_PROCESSES)):
            for side in order if k % 2 == 0 else order[::-1]:
                env = {**os.environ, "PYTHONPATH": os.path.join(sides[side], "src")}
                path = os.path.join(tmp, f"{side}-{command}-{k}")
                t = time.perf_counter()
                subprocess.run(
                    [sys.executable, "-m", "openqsl", command, "--output", path],
                    env=env, capture_output=True, check=True,
                )
                times[side][command].append(time.perf_counter() - t)
    return {side: {c: statistics.median(ts) for c, ts in cells.items()} for side, cells in times.items()}


def _summary(runs: dict) -> dict:
    """Per timing: each side's rounds, their median and minimum, and the
    rounds the change won."""
    rows = {}
    for side, results in runs.items():
        for result in results:
            for group, values in result.items():
                for key, value in values.items():
                    rows.setdefault(f"{group}/{key}", {}).setdefault(side, []).append(value)
    for row in rows.values():
        for side in list(row):
            row[f"{side}_median"] = statistics.median(row[side])
            row[f"{side}_min"] = min(row[side])
        if "parent" in row:
            row["change_faster"] = sum(c < p for c, p in zip(row["change"], row["parent"]))
            row["ratio"] = row["change_median"] / row["parent_median"]
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="root of the parent checkout")
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--out", default="BENCH.json")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    parser.add_argument("--reverse-grid", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker:
        print(json.dumps(worker(args.worker, _grid(args.reverse_grid))))
        return 0

    sides = {"change": ROOT}
    if args.parent:
        sides["parent"] = os.path.abspath(args.parent)
    runs = {side: [] for side in sides}
    orders = []
    for r in range(args.rounds):
        reverse = r % 2 == 1
        order = list(sides)[::-1] if reverse else list(sides)
        orders.append({"sides": order, "grid": _grid(reverse)})
        for side in order:
            runs[side].append(_run_worker(sides[side], reverse))
            print(f"round {r + 1}/{args.rounds}: {side} done", file=sys.stderr)
        for side, cells in _cli_seconds(sides, order).items():
            runs[side][-1]["cli_s"] = cells

    record = {
        "machine": environment.record(ROOT, os.path.join(ROOT, "src")),
        "checkouts": {
            side: {
                "git_commit": environment.git_commit(path),
                **_src_changes(path),
                **environment.source_stats(os.path.join(path, "src")),
            }
            for side, path in sides.items()
        },
        "step": STEP,
        "rounds": args.rounds,
        "round_orders": orders,
        "units": {
            "layers": "ms, median of repeated calls",
            "layers_min": "ms, minimum of the same calls",
            "verify_s": "s, one run",
            "cli_main_ms": "ms, median of repeated in-process cli.main calls",
            "cli_main_ms_min": "ms, minimum of the same calls",
            "cli_s": f"s, median wall time of {CLI_PROCESSES} fresh processes, alternating checkouts",
            "table_ms": "ms, median of repeated cli._table calls on one command's rows",
            "table_ms_min": "ms, minimum of the same calls",
            "writer_ms": "ms, median of repeated writes of one table",
            "writer_ms_min": "ms, minimum of the same writes",
            "fixed_ms": "ms, median of repeated calls of a CLI call's fixed work",
            "fixed_ms_min": "ms, minimum of the same calls",
            "minflt": "minor page faults (getrusage ru_minflt) of all of a worker's timed cells",
        },
        "notes": NOTES,
        "timings": _summary(runs),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
