import math

import numpy as np
import pytest

from openqsl import fisher, qsl
from openqsl.models import spontaneous_emission_model
from openqsl.qsl import QslQuantities


class TestQfiShortTime:
    @pytest.mark.parametrize("t", [1e-3, 0.5, 2.0])
    def test_unit_fidelity_gives_zero(self, t):
        assert fisher.qfi_short_time(1.0, t) == 0.0

    def test_spot_value(self):
        # 4 (1 - 0.99) / 0.1^2 = 4
        assert fisher.qfi_short_time(0.99, 0.1) == pytest.approx(4.0, rel=1e-12, abs=0.0)

    def test_rounding_slack_is_clamped(self):
        assert fisher.qfi_short_time(1.0 + 1e-13, 0.1) == 0.0
        assert fisher.qfi_short_time(-1e-13, 0.5) == pytest.approx(16.0, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("t", [0.0, -1e-3])
    def test_rejects_nonpositive_time(self, t):
        with pytest.raises(ValueError):
            fisher.qfi_short_time(0.5, t)

    @pytest.mark.parametrize("fidelity", [-1e-6, 1.0 + 1e-6, -0.5, 2.0, math.nan])
    def test_rejects_fidelity_outside_unit_interval(self, fidelity):
        with pytest.raises(ValueError):
            fisher.qfi_short_time(fidelity, 0.1)


class TestQfiBound:
    @pytest.mark.parametrize("t", [1e-3, 1.0, 100.0])
    def test_no_fluctuation_gives_four_v_squared(self, t):
        q = QslQuantities.from_terms(delta_h0=0.7, g_term=0.3, e_term=0.0)
        assert fisher.qfi_bound(q, t) == pytest.approx(4.0 * q.v_coeff**2, rel=1e-15, abs=0.0)

    def test_spot_value(self):
        # v = 1, e = 2, t = 0.5: (1 + sqrt(1 + 16))^2 = 18 + 2 sqrt(17)
        q = QslQuantities(delta_h0=0.5, g_term=0.0, e_term=2.0, v_coeff=1.0, ratio_r=0.5)
        assert fisher.qfi_bound(q, 0.5) == pytest.approx(
            18.0 + 2.0 * math.sqrt(17.0), rel=1e-15, abs=0.0
        )

    @pytest.mark.parametrize("t", [0.0, -1.0])
    def test_rejects_nonpositive_time(self, t):
        q = QslQuantities.from_terms(delta_h0=1.0, g_term=0.0, e_term=1.0)
        with pytest.raises(ValueError):
            fisher.qfi_bound(q, t)


class TestShortTimeWindow:
    def test_slow_dynamics_use_unit_scale(self):
        q = QslQuantities.from_terms(delta_h0=0.1, g_term=0.2, e_term=0.3)
        assert fisher.short_time_window(q) == 0.1

    def test_speed_coefficient_dominates(self):
        q = QslQuantities.from_terms(delta_h0=4.0, g_term=1.0, e_term=2.0)
        assert fisher.short_time_window(q) == 0.1 / q.v_coeff

    def test_fluctuation_term_dominates(self):
        q = QslQuantities.from_terms(delta_h0=1.0, g_term=1.0, e_term=50.0)
        assert fisher.short_time_window(q) == 0.1 / 50.0


class TestVerifyFisherTradeoff:
    def test_emission_matches_closed_form(self):
        # the excited population decays as exp(-gamma t), so F(t) = exp(-t)
        model, psi0 = spontaneous_emission_model(1.0)
        grid = (1e-3, 1e-2, 1e-1)
        reports = fisher.verify_fisher_tradeoff(model, psi0, grid, 1e-4)
        q = qsl.compute_quantities(model, psi0)
        assert [r.horizon_t for r in reports] == list(grid)
        for r in reports:
            t = r.horizon_t
            assert r.fidelity_at_t == pytest.approx(math.exp(-t), rel=1e-12, abs=0.0)
            assert r.qfi_estimate == pytest.approx(
                4.0 * -math.expm1(-t) / t**2, rel=1e-9, abs=0.0
            )
            assert r.qfi_bound == fisher.qfi_bound(q, t)
            assert r.satisfied

    @pytest.mark.parametrize(
        "grid", [[], [0.1, 0.1], [0.2, 0.1], [0.0, 0.1], [-0.1, 0.1], np.array([1e-2, 1e-3])]
    )
    def test_rejects_bad_grid(self, grid):
        model, psi0 = spontaneous_emission_model(1.0)
        with pytest.raises(ValueError):
            fisher.verify_fisher_tradeoff(model, psi0, grid, 1e-3)
