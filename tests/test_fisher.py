import math
import re

import numpy as np
import pytest

from openqsl import dynamics, fisher, linalg, qsl, verify
from openqsl.dynamics import evolve
from openqsl.errors import IntegrationQualityError
from openqsl.models import spontaneous_emission_model
from openqsl.qsl import QslQuantities

from conftest import four_stage_step


def _terms_stepping_to(terms, state):
    """Taylor terms shaped like ``terms`` whose every partial step is ``state``."""
    out = np.zeros_like(terms)
    out[0] = state.reshape(-1)
    return out


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

    def test_rejects_time_whose_square_underflows(self):
        # 1e-160 squares to a subnormal, 1e-170 to 0
        assert fisher.qfi_short_time(1.0, 1e-160) == 0.0
        with pytest.raises(ValueError, match="^t = 1e-170 is too small: t\\^2 underflows to 0$"):
            fisher.qfi_short_time(0.5, 1e-170)
        with pytest.raises(ValueError, match="^t = 1e-170 is too small"):
            fisher.time_grid([1e-170, 1e-3])

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


class TestFidelityCurvature:
    # 4(1 - F)/t^2 reads the quantum Fisher information F_Q of the time
    # parameter as t -> 0 only for closed dynamics; with e > 0 it reads 4 F_Q.
    def test_closed_qubit_reads_the_fisher_information(self):
        # H = sigma_z/2 on |+>: F_Q = 4 var(H) = 1, and 1 - F = sin^2(t/2)
        model = dynamics.LindbladModel(hamiltonian=np.diag([0.5, -0.5]).astype(complex))
        psi0 = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
        (r,) = fisher.verify_fisher_tradeoff(model, psi0, [1e-3], 1e-4)
        assert r.qfi_estimate == pytest.approx(1.0, rel=1e-6, abs=0.0)

    def test_damped_qubit_reads_four_times_the_fisher_information(self):
        # rho(t) = diag(p, 1 - p) with p = exp(-t), so F_Q = sum pdot^2/p =
        # p/(1 - p), near 1/t, while 1 - F = 1 - p is near t
        model, psi0 = spontaneous_emission_model(1.0)
        for r in fisher.verify_fisher_tradeoff(model, psi0, [1e-6, 1e-4], 1e-4):
            t = r.horizon_t
            f_q = math.exp(-t) / -math.expm1(-t)
            assert r.qfi_estimate / f_q == pytest.approx(4.0, rel=1e-6, abs=0.0)


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


class TestOneTrajectory:
    # grid times on the step lattice, off it, and below the step
    GRID = (4e-4, 1e-3, 2.7e-3, 1e-2, 3.16e-2, 0.1, 0.137)
    DT = 1e-3

    def test_one_evolve_call_per_check(self, monkeypatch):
        calls = []
        original = fisher.evolve

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(fisher, "evolve", counting)
        rng = np.random.default_rng(5)
        for dim in (2, 3, 4):
            model, psi0 = verify.random_model(rng, dim)
            fisher.verify_fisher_tradeoff(model, psi0, self.GRID, self.DT)
            assert len(calls) == 1
            assert calls.pop()[2:] == (0.137, self.DT)

    def test_fidelity_read_against_the_integrated_start(self):
        # pure_state accepts a norm 1 +- 1e-12; the trajectory starts from
        # psi0 / |psi0|, and the fidelity must be read against that start
        model, psi0 = verify.random_model(np.random.default_rng(3), 3)
        grid, dt = verify.FISHER_T_GRID, verify.FISHER_DT
        want = fisher.verify_fisher_tradeoff(model, psi0, grid, dt)
        for scale in (1.0 - 9.99e-13, 1.0 + 9.99e-13):
            got = fisher.verify_fisher_tradeoff(model, scale * psi0, grid, dt)
            for g, w in zip(got, want):
                assert g.qfi_estimate == pytest.approx(w.qfi_estimate, rel=1e-11, abs=0.0)

    def test_no_hermiticity_pass(self, monkeypatch):
        calls = []
        original = linalg.hermiticity_deviation

        def counting(m):
            calls.append(np.shape(m))
            return original(m)

        model, psi0 = verify.random_model(np.random.default_rng(5), 4)
        monkeypatch.setattr(linalg, "hermiticity_deviation", counting)
        fisher.verify_fisher_tradeoff(model, psi0, self.GRID, self.DT)
        assert calls == []

    def test_matches_one_evolve_per_point(self):
        rng = np.random.default_rng(11)
        for index in range(24):
            model, psi0 = verify.random_model(rng, 2 + index % 3)
            reports = fisher.verify_fisher_tradeoff(model, psi0, self.GRID, self.DT)
            rho0 = linalg.projector(psi0)
            for t, r in zip(self.GRID, reports):
                traj = evolve(model, psi0, t, min(self.DT, t))
                fid = min(max(float(np.real(linalg.trace_product(rho0, traj.states[-1]))), 0.0), 1.0)
                assert r.horizon_t == t
                assert abs(r.fidelity_at_t - fid) <= 1e-13
                assert r.qfi_estimate == pytest.approx(
                    fisher.qfi_short_time(fid, t), rel=1e-8, abs=0.0
                )

    def test_fidelities_bitwise_equal_to_one_trace_product_per_point(self, monkeypatch):
        samples = []
        original = fisher._states_at

        def capturing(traj, times):
            samples.append((traj.rho0, original(traj, times)))
            return samples[-1][1]

        monkeypatch.setattr(fisher, "_states_at", capturing)
        rng = np.random.default_rng(17)
        for index in range(30):
            model, psi0 = verify.random_model(rng, 2 + index % 3)
            grid, dt = verify.FISHER_T_GRID, verify.FISHER_DT
            reports = fisher.verify_fisher_tradeoff(model, psi0, grid, dt)
            rho0, states = samples.pop()
            want = [
                min(max(float(np.real(linalg.trace_product(rho0, s))), 0.0), 1.0) for s in states
            ]
            got = [r.fidelity_at_t for r in reports]
            assert all(type(f) is float for f in got)
            assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_only_samples_between_stored_states_are_gated(self, rng, monkeypatch):
        gated = []
        original = dynamics._quality_gate

        def counting(states, trace_errors, times, steps):
            gated.append((states.shape, list(times), list(steps)))
            return original(states, trace_errors, times, steps)

        model, psi0 = verify.random_model(rng, 3)
        traj = evolve(model, psi0, 0.1, 1e-3)
        monkeypatch.setattr(dynamics, "_quality_gate", counting)
        stored = dynamics._states_at(traj, traj.times[[0, 7, 100]])
        assert gated == []
        assert stored.tobytes() == traj.states[[0, 7, 100]].tobytes()
        off = traj.times[[7, 50]] + 0.25 * traj.dt
        times = np.array([traj.times[3], off[0], traj.times[20], off[1]])
        samples = dynamics._states_at(traj, times)
        [(shape, gated_times, steps)] = gated
        assert shape == (2, 3, 3)
        assert gated_times == list(off)
        assert steps == pytest.approx([7.25, 50.25], rel=1e-12, abs=0.0)
        assert samples[[0, 2]].tobytes() == traj.states[[3, 20]].tobytes()
        assert samples[[1, 3]].tobytes() == dynamics._states_at(traj, off).tobytes()

    def test_stored_times_are_read_exactly(self, rng):
        model, psi0 = verify.random_model(rng, 3)
        traj = evolve(model, psi0, 0.1, 1e-3)
        times = traj.times[[0, 7, 100]]
        assert dynamics._states_at(traj, times).tobytes() == traj.states[[0, 7, 100]].tobytes()
        off = np.array([traj.times[7] + 0.25 * traj.dt])
        want = four_stage_step(model, traj.states[7], off[0] - traj.times[7])
        np.testing.assert_allclose(dynamics._states_at(traj, off)[0], want, rtol=0.0, atol=1e-15)

    def test_drifting_sample_is_rescaled(self, rng, monkeypatch):
        model, psi0 = verify.random_model(rng, 3)
        traj = evolve(model, psi0, 0.1, 1e-3)
        original = dynamics._taylor_terms
        monkeypatch.setattr(
            dynamics, "_taylor_terms", lambda model, flat: (1.0 + 1e-9) * original(model, flat)
        )
        off = np.array([traj.times[7] + 0.25 * traj.dt])
        # the sample from the same (patched) kernel, before rescaling
        terms = dynamics._taylor_terms(model, traj.states[7].reshape(1, -1))
        want = dynamics._partial_steps(terms, off[0] - traj.times[7])[0].reshape(3, 3)
        assert abs(np.trace(want).real - 1.0) > dynamics.RENORM_THRESHOLD
        got = dynamics._states_at(traj, off)[0]
        np.testing.assert_allclose(got, want / np.trace(want).real, rtol=0.0, atol=1e-16)

    @pytest.mark.parametrize(
        "fault, message",
        [
            (lambda terms: np.full_like(terms, np.nan), r"non-finite state at t = 0\.0027 \(step 2\.7\)"),
            (lambda terms: (1.0 + 2e-6) * terms, r"trace drift 2\.000e-06, min eigenvalue -?\d"),
            (
                lambda terms: _terms_stepping_to(terms, np.diag([1.0 + 1e-4, -1e-4])),
                r"trace drift \d\.\d{3}e[+-]\d\d, min eigenvalue -1\.000e-04",
            ),
        ],
    )
    def test_failing_sample_raises_the_gate_error(self, monkeypatch, fault, message):
        # the trajectory itself takes the superoperator path and passes; only
        # the partial step to the off-lattice time 2.7e-3 goes wrong, not the
        # Taylor terms of the identity rows that build the step map
        original = dynamics._taylor_terms

        def faulty(model, flat):
            terms = original(model, flat)
            return terms if np.array_equal(flat, np.eye(len(flat))) else fault(terms)

        monkeypatch.setattr(dynamics, "_taylor_terms", faulty)
        model, psi0 = spontaneous_emission_model(1.0)
        with pytest.raises(IntegrationQualityError) as info:
            fisher.verify_fisher_tradeoff(model, psi0, (1e-3, 2.7e-3, 1e-2), self.DT)
        assert re.fullmatch(
            rf"integration quality failure: .*{message}.*; retry with a smaller dt",
            str(info.value),
        )
