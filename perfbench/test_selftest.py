"""Self-tests of the benchmark at a tiny size.

Run from the repository root with ``python3 -m pytest perfbench/test_selftest.py -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import spans
import workloads

TINY_SECONDS = 0.05
NAMES = sorted(workloads.WORKLOADS)


def _benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def oq():
    return run.import_openqsl()


def test_benchmark_json_matches_the_code():
    bench = _benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(m) for m in spans.PER_LAYER
    ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, trace, monkeypatch, capsys):
    monkeypatch.setattr(run, "ITEMS", 2)
    argv = ["--workload", workload, "--seed", "1", "--seconds", str(TINY_SECONDS), "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    bench = _benchmark_json()
    expected = bench["per_layer"] if trace else bench["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_seeds_change_inputs_but_not_metric_names(workload, oq, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ITEMS", 2)
    wl = workloads.WORKLOADS[workload]
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a, b = wl.inputs(1, 0, str(tmp_path / "a")), wl.inputs(2, 0, str(tmp_path / "b"))
    if isinstance(a, workloads.ModelInputs):
        assert not np.allclose(a.h, b.h)
    else:
        with open(a.argv[2]) as fa, open(b.argv[2]) as fb:
            assert fa.read() != fb.read()
    again = wl.inputs(1, 0, str(tmp_path / "a"))
    if isinstance(a, workloads.ModelInputs):
        assert np.array_equal(a.h, again.h)

    names = []
    for seed in (1, 2):
        doc = run.run_workload(oq, workload, seed, TINY_SECONDS, trace=False)
        assert doc["failed"] == 0
        names.append(list(run.end_to_end_metrics([0.1], doc["timed"])))
    assert names[0] == names[1] == [m[0] for m in run.END_TO_END]


@pytest.mark.parametrize("workload", NAMES)
def test_a_failed_check_counts_toward_fail_frac(workload, oq, monkeypatch):
    monkeypatch.setattr(run, "ITEMS", 2)
    wl = workloads.WORKLOADS[workload]
    monkeypatch.setattr(wl, "check", lambda inp, res: ["forced failure"])
    doc = run.run_workload(oq, workload, 1, TINY_SECONDS, trace=False)
    assert doc["attempted"] > wl.n_reference
    assert doc["failed"] == doc["attempted"]
    assert doc["fail_frac"] == 1.0


def test_a_reference_mismatch_counts_toward_fail_frac(oq, monkeypatch):
    monkeypatch.setattr(run, "ITEMS", 2)
    wl = workloads.WORKLOADS["fisher_short"]
    expected = run.load_reference(wl.name)
    expected[0]["points"][0][2] *= 1.0 + 1e-3
    monkeypatch.setattr(run, "load_reference", lambda name: expected)
    doc = run.run_workload(oq, wl.name, 1, TINY_SECONDS, trace=False)
    assert doc["failed"] == 1
    assert doc["failures"][0][:2] == ("reference", 0)


def test_traced_counts_do_not_depend_on_seconds(oq, monkeypatch):
    monkeypatch.setattr(run, "ITEMS", 2)
    counts = []
    for seconds in (TINY_SECONDS, 100 * TINY_SECONDS):
        doc = run.run_workload(oq, "fisher_short", 1, seconds, trace=True)
        assert doc["traced_passes"] == run.TRACE_PASSES
        counts.append({k: v["value"] for k, v in doc["per_layer"].items()
                       if k.endswith((".calls", ".steps", ".grid_points"))})
    assert counts[0] == counts[1]
    assert counts[0]["fisher.verify_fisher_tradeoff.calls"] == 2


def test_without_the_source_tree_the_run_fails(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fisher_short", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
