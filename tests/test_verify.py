import math

import numpy as np
import pytest

from openqsl import fisher, models, qsl, verify
from openqsl.dynamics import LindbladModel, theta_dot_exact
from openqsl.verify import PropertyResult


def small_run():
    return verify.run_all(seed=3, n_models=5, n_fisher_models=5, n_scalar_samples=200)


class TestRunAll:
    def test_reproducible_and_passing(self):
        first, second = small_run(), small_run()
        assert first == second
        assert [r.name for r in first] == [
            "bound_dominance",
            "differential_dominance",
            "fisher_tradeoff",
            "log_inequality",
            "lower_bound_ordering",
        ]
        for r in first:
            assert r.passed, r.violations
            assert r.checked > 0, r.name
            assert math.isfinite(r.worst_margin), r.name


class TestBoundDominance:
    def test_small_run_passes_and_is_reproducible(self):
        first = verify.bound_dominance(seed=1, n_models=3, horizon=6.0, dt=1e-2)
        assert first == verify.bound_dominance(seed=1, n_models=3, horizon=6.0, dt=1e-2)
        assert first.passed, first.violations
        assert first.checked > 0
        assert first.worst_margin >= -verify.TRAJECTORY_TOL

    def test_every_pair_is_checked_or_skipped(self):
        result = verify.bound_dominance(seed=0, n_models=12, horizon=6.0, dt=1e-2)
        assert result.skipped["unreachable_target"] > 0
        assert result.checked + sum(result.skipped.values()) == 12 * len(verify.TARGETS)

    def test_undercut_bound_is_reported(self, monkeypatch):
        monkeypatch.setattr(verify.qsl, "t_qsl", lambda q, theta: 1e3)
        result = verify.bound_dominance(seed=1, n_models=3, horizon=6.0, dt=1e-2)
        assert result.checked > 0
        assert not result.passed
        assert len(result.violations) == result.checked
        assert list(result.violations[0]) == [
            "seed",
            "model_index",
            "dim",
            "theta_target",
            "t_first_passage",
            "t_qsl",
            "margin",
        ]
        v = result.violations[0]
        assert v["t_qsl"] == 1e3
        assert v["margin"] == v["t_first_passage"] - 1e3


class TestDifferentialDominance:
    def test_one_rate_call_per_preset(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[2].shape)
            return theta_dot_exact(*args)

        monkeypatch.setattr(verify, "theta_dot_exact", counted)
        result = verify.differential_dominance()
        assert result.passed, result.violations
        assert len(calls) == 3
        assert sum(shape[0] for shape in calls) == result.checked

    def test_a_preset_added_to_the_table_is_checked(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[2].shape)
            return theta_dot_exact(*args)

        # A copy of emission under a new name, and a preset that never moves,
        # so its trajectory has no interior point to check.
        frozen = models.Preset(
            defaults={},
            rules={},
            model=lambda: (LindbladModel(hamiltonian=np.zeros((2, 2))), np.array([1.0, 0.0])),
            terms=lambda: (0.0, 0.0, 0.0),
        )
        monkeypatch.setattr(verify, "theta_dot_exact", counted)
        monkeypatch.setitem(models.PRESETS, "emission_again", models.PRESETS["emission"])
        monkeypatch.setitem(models.PRESETS, "frozen", frozen)
        result = verify.differential_dominance()
        assert len(calls) == 5
        assert calls[3] == calls[1] and calls[4] == (0, 2, 2)
        assert sum(shape[0] for shape in calls) == result.checked
        assert [v["preset"] for v in result.violations] == ["frozen"]
        assert result.violations[0]["error"].startswith("only 0 interior sample points")

    def test_ceiling_without_fluctuation_term_is_reported(self, monkeypatch):
        # Mutant of the bound that drops e: (v sin(theta) + e)/sin(2 theta)
        # becomes v sin(theta)/sin(2 theta), which the exact rate exceeds.
        def without_e(q, theta):
            return q.v_coeff * math.sin(theta) / math.sin(2.0 * theta)

        monkeypatch.setattr(verify.qsl, "theta_dot_bound", without_e)
        result = verify.differential_dominance()
        assert {v["preset"] for v in result.violations} == {"dephasing", "emission", "product"}


class TestRecord:
    def test_keeps_worst_margin_and_counts(self):
        result = PropertyResult("demo")
        assert (result.checked, result.worst_margin) == (0, math.inf)
        for margin in (0.5, -0.25, 0.1):
            result.record(margin, False)
        assert (result.checked, result.worst_margin) == (3, -0.25)
        assert result.passed

    def test_skips_are_counted_by_reason(self):
        result = PropertyResult("demo")
        assert result.skipped == {}
        for reason in ("a", "b", "a"):
            result.skip(reason)
        assert result.skipped == {"a": 2, "b": 1}
        assert (result.checked, result.passed) == (0, True)

    def test_violation_keeps_key_order_with_margin_last(self):
        result = PropertyResult("demo")
        result.record(-2.0, True, seed=7, model_index=1, dim=3, theta_target=0.5)
        result.record(-1.0, False, seed=7, model_index=2)
        assert not result.passed
        assert result.violations == [
            {"seed": 7, "model_index": 1, "dim": 3, "theta_target": 0.5, "margin": -2.0}
        ]
        assert list(result.violations[0]) == ["seed", "model_index", "dim", "theta_target", "margin"]
        assert (result.checked, result.worst_margin) == (2, -2.0)


def without_e(compute_quantities):
    def mutant(model, psi0):
        q = compute_quantities(model, psi0)
        return qsl.QslQuantities.from_terms(q.delta_h0, q.g_term, 0.0)

    return mutant


# The mutants of ROADMAP.md's Baseline table that small_run kills, each as
# the functions it patches and a map from the original to the mutant. Each
# is patched at the one function the table names, and e = 0 in fisher too,
# which imports compute_quantities by name. v = 2 delta_h0 is not listed:
# it survives small_run, and dies by 1 check of 928 at full size. A mutant
# that a suite starts to kill joins the list; none leaves it.
KILLED = {
    "v = delta_h0 + sqrt(2) g": (
        [(qsl, "v_coefficient")],
        lambda f: lambda delta_h0, g_term: delta_h0 + math.sqrt(2.0) * g_term,
    ),
    "e = 0": ([(qsl, "compute_quantities"), (fisher, "compute_quantities")], without_e),
    "angle-rate ceiling without e": (
        [(qsl, "theta_dot_bound")],
        lambda f: lambda q, theta: q.v_coeff * math.sin(theta) / math.sin(2.0 * theta),
    ),
    "Fisher ceiling without 4e/t": (
        [(fisher, "qfi_bound")],
        lambda f: lambda q, t: (2.0 * q.v_coeff) ** 2,
    ),
    "floor x 1.01": ([(qsl, "qsl_lower_bound")], lambda f: lambda q, theta: 1.01 * f(q, theta)),
    "log margin - x^3/6": (
        [(fisher, "log_inequality_margin")],
        lambda f: lambda x: f(x) - x**3 / 6.0,
    ),
}


@pytest.mark.parametrize("name", list(KILLED))
def test_small_run_kills_the_mutant(monkeypatch, name):
    patches, mutate = KILLED[name]
    for module, attr in patches:
        monkeypatch.setattr(module, attr, mutate(getattr(module, attr)))
    assert any(result.violations for result in small_run())
