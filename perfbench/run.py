"""openqsl benchmark: one workload, one seed, one fresh process.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload fisher_short --seed 1 --seconds 60 --trace 0

The package is imported from ``src/`` of the checkout and nowhere else; the
run exits with code 2 when that source tree is missing. A run has four
phases:

1. set-up: ``SETUP_BATCH`` fresh interpreters each time ``import openqsl``,
   and one more does after each of the first ``SETUP_PASSES`` timed passes
   (untraced runs only; ``setup_s`` is the median of all of them);
2. reference: the first items of ``DEFAULT_SEED`` run untimed, which warms
   caches, and their results are compared with ``reference.json``;
3. timed: the first ``ITEMS`` items of ``--seed`` run back to back, pass
   after pass. A pass starts only while it is expected to end within
   ``--seconds`` of the phase's start, and at least ``MIN_PASSES`` run.
   An item's time is its fastest pass. Only the item calls are timed;
   input generation and checks between items are not;
4. report: the last line of stdout is one JSON object with ``correct``,
   ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
   are the end-to-end metrics. With ``--trace 1`` exactly ``TRACE_PASSES``
   passes run, whatever ``--seconds`` says, each item untraced and traced
   back to back, and the metrics are the per-layer ones, per pass of
   ``ITEMS`` items. A full record with the environment goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

import environment
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
# Fresh imports timed before the timed phase; one more follows each of the
# first SETUP_PASSES passes, so that setup_s samples the machine over the run.
SETUP_BATCH = 5
SETUP_PASSES = 10
# Items per run: enough that ten of them lie beyond the 90th percentile.
ITEMS = 100
# The benchmark machine is shared: other tenants slow it down for spans of a
# fraction of a second to several minutes. An item's runs lie a pass apart,
# so the fastest of several rarely falls into a short span. Items of 5 to
# 15 ms make dozens of passes in a run; the minimum holds on a slow machine.
MIN_PASSES = 3
# Passes of a traced run, fixed so that the per-layer figures, averaged over
# them, do not depend on machine speed.
TRACE_PASSES = 2
# Failures listed in the record, beyond which only the count is kept.
MAX_LISTED_FAILURES = 20

# (name, unit, better, bound) of every end-to-end metric, in output order.
# Timings get the widest bound the benchmark contract allows: on the shared
# 2-core machine, whole runs slow down by up to 1.5x under other tenants'
# load, which no statistic within one run can remove.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("items_per_s", "items/s", "higher", 0.25),
    ("item_p50_ms", "ms", "lower", 0.25),
    ("item_p90_ms", "ms", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)
_IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import openqsl\n"
    "print(repr(time.perf_counter() - t))\n"
)


class SetupError(RuntimeError):
    """The source tree cannot be imported; no result can be produced."""


@dataclass
class Item:
    index: int
    wall: float  # the fastest pass
    cpu: float  # of the fastest pass
    result: object  # kept for reference items only
    problems: list
    spent: float = 0.0  # wall time summed over all passes
    bytes: int = 0  # output the item wrote


def measure_setup(repeats: int) -> list:
    """Wall time of ``import openqsl`` in each of ``repeats`` fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise SetupError(f"import openqsl failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def import_openqsl() -> SimpleNamespace:
    """Import the package from the checkout's ``src/`` and return its modules."""
    if not os.path.isfile(os.path.join(SRC, "openqsl", "__init__.py")):
        raise SetupError(f"no openqsl source tree under {SRC}")
    sys.path.insert(0, SRC)
    import openqsl
    import openqsl.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(openqsl.__file__))) != SRC:
        raise SetupError(f"openqsl was imported from {openqsl.__file__}, not from {SRC}")
    return SimpleNamespace(**{n: getattr(openqsl, n) for n in ("cli", "dynamics", "errors", "fisher", "qsl")})


def attempt(oq, wl, seed: int, index: int, workdir: str, keep: bool = False) -> Item:
    """Run one item; any exception it raises is recorded as a failure. The
    item's result is dropped unless ``keep``, so that holding many items
    does not add to the process's peak memory."""
    inp = wl.inputs(seed, index, workdir)
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        raw = wl.run(oq, inp)
    except Exception as exc:  # an item that raises counts as failed
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        return Item(index, wall, cpu, None, [f"{type(exc).__name__}: {exc}"], wall)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    res = wl.result(inp, raw)
    written = res.get("bytes", 0) if isinstance(res, dict) else 0
    return Item(index, wall, cpu, res if keep else None, wl.check(inp, res), wall, written)


def reference_phase(oq, wl, workdir: str, expected: list) -> list:
    """First items of the default seed, compared with the recorded results."""
    items = []
    for index in range(wl.n_reference):
        item = attempt(oq, wl, workloads.DEFAULT_SEED, index, workdir, keep=True)
        if not item.problems:
            item.problems = wl.compare(expected[index], item.result)
        items.append(item)
    return items


def run_pass(oq, wl, seed: int, workdir: str) -> list:
    return [attempt(oq, wl, seed, index, workdir) for index in range(ITEMS)]


def pass_time(items: list) -> float:
    return sum(it.wall for it in items)


def fastest(passes: list) -> list:
    """Per item: wall and CPU time of its fastest pass, and the problems of
    the first pass that had any."""
    out = []
    for runs in zip(*passes):
        best = min(runs, key=lambda it: it.wall)
        problems = next((it.problems for it in runs if it.problems), [])
        out.append(Item(best.index, best.wall, best.cpu, None, problems,
                        sum(it.wall for it in runs), best.bytes))
    return out


def timed_phase(oq, wl, seed: int, seconds: float, workdir: str, after_pass) -> list:
    """Passes until the next one would end more than ``seconds`` after the
    phase began, judged by the mean pass so far; at least MIN_PASSES."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(oq, wl, seed, workdir))
        if len(passes) <= SETUP_PASSES:
            after_pass()
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return fastest(passes)


def traced_phase(oq, wl, seed: int, workdir: str):
    """TRACE_PASSES passes in which every item runs untraced and traced back
    to back, the order swapping from pass to pass, so that drift in machine
    speed cancels from the tracing overhead. Returns (untraced passes,
    traced passes, tracer)."""
    tracer = spans.Tracer()
    untraced, traced = [], []
    for number in range(TRACE_PASSES):
        untraced.append([])
        traced.append([])
        for index in range(ITEMS):
            for with_trace in (False, True) if number % 2 == 0 else (True, False):
                if not with_trace:
                    untraced[-1].append(attempt(oq, wl, seed, index, workdir))
                    continue
                tracer.install()
                try:
                    traced[-1].append(attempt(oq, wl, seed, index, workdir))
                finally:
                    tracer.uninstall()
    return untraced, traced, tracer


def end_to_end_metrics(setup: list, items: list) -> dict:
    walls = np.array([it.wall for it in items])
    values = {
        "setup_s": statistics.median(setup),
        "items_per_s": len(walls) / walls.sum(),
        "item_p50_ms": 1e3 * float(np.percentile(walls, 50)),
        "item_p90_ms": 1e3 * float(np.percentile(walls, 90)),
        # a fixed amount of work, so that CPU moved onto threads shows
        "cpu_s": sum(it.cpu for it in items),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}


def load_reference(name: str):
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["workloads"][name]


def run_workload(oq, name: str, seed: int, seconds: float, trace: bool,
                 after_pass=lambda: None) -> dict:
    """Reference and timed (or, with ``trace``, traced) phases of one workload.
    ``after_pass`` runs after each of the first SETUP_PASSES timed passes.

    Returns the run record; the caller adds the metrics and set-up times."""
    wl = workloads.WORKLOADS[name]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        reference = reference_phase(oq, wl, workdir, load_reference(name))
        if trace:
            untraced_passes, traced_passes, tracer = traced_phase(oq, wl, seed, workdir)
            timed, traced = fastest(untraced_passes), fastest(traced_passes)
            untraced_s, traced_s = pass_time(timed), pass_time(traced)
            written = sum(it.bytes for p in traced_passes for it in p)
            doc = {
                "per_layer": tracer.layer_metrics(
                    TRACE_PASSES, written, traced_s / untraced_s - 1.0
                ),
                "traced_passes": TRACE_PASSES,
                "untraced_fastest_item_s": untraced_s,
                "traced_fastest_item_s": traced_s,
                # item time of all traced passes, and the part of it inside spans
                "traced_item_s": sum(it.spent for it in traced),
                "traced_top_level_span_s": tracer.top_level_busy,
                "spans_recorded": len(tracer.spans),
                "spans_dropped": tracer.dropped,
            }
            tracer.write(os.path.join(OUT, f"trace-{name}-seed{seed}.json"))
        else:
            timed, traced = timed_phase(oq, wl, seed, seconds, workdir, after_pass), []
            doc = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempts = [("reference", it) for it in reference]
    attempts += [("timed", it) for it in timed] + [("traced", it) for it in traced]
    failures = [(phase, it.index, p) for phase, it in attempts for p in it.problems]
    failed = sum(bool(it.problems) for _, it in attempts)
    doc.update(
        reference_items=len(reference),
        timed_items=len(timed),
        traced_items=len(traced),
        attempted=len(attempts),
        failed=failed,
        fail_frac=failed / len(attempts),
        failures=failures[:MAX_LISTED_FAILURES],
        timed=timed,
    )
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        oq = import_openqsl()
        setup = [] if args.trace else measure_setup(SETUP_BATCH)
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2

    doc = run_workload(oq, args.workload, args.seed, args.seconds, bool(args.trace),
                       after_pass=lambda: setup.extend(measure_setup(1)))
    timed = doc.pop("timed")
    if args.trace:
        metrics = doc.pop("per_layer")
    else:
        metrics = end_to_end_metrics(setup, timed)
        doc["setup_runs_s"] = setup
    doc.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        loop="closed, one client",
        items_per_pass=ITEMS,
        environment=environment.record(ROOT, SRC),
        metrics=metrics,
        item_fastest_wall_s=[it.wall for it in timed],
    )
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")

    summary = " ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in metrics.items())
    print(f"{args.workload} seed={args.seed}: {summary}")
    print(
        f"fail_frac={doc['fail_frac']:.6g} ({doc['failed']} failed of {doc['attempted']} "
        f"attempted: {doc['reference_items']} reference, {doc['timed_items']} timed and "
        f"{doc['traced_items']} traced items)"
    )
    for phase, index, problem in doc["failures"]:
        print(f"FAIL {phase} item {index}: {problem}")
    print(json.dumps({
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
