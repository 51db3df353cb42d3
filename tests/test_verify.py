import math

from openqsl import verify
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


class TestRecord:
    def test_keeps_worst_margin_and_counts(self):
        result = PropertyResult("demo")
        assert (result.checked, result.worst_margin) == (0, math.inf)
        for margin in (0.5, -0.25, 0.1):
            result.record(margin, False)
        assert (result.checked, result.worst_margin) == (3, -0.25)
        assert result.passed

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
