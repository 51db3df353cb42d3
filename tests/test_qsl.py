import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from openqsl import linalg, qsl
from openqsl.dynamics import LindbladModel, evolve
from openqsl.errors import FrozenDynamicsError, SingularPointError
from openqsl.models import (
    SIGMA_X,
    SIGMA_Z,
    DephasingQubitParams,
    dephasing_model,
    spontaneous_emission_model,
)
from openqsl.qsl import QslQuantities

from conftest import random_complex_matrix, random_hermitian, random_state

scalar_settings = settings(max_examples=200, derandomize=True, deadline=None)


def quad_bound_time(v, e, theta):
    """Independent oracle: numerical quadrature of sin(2u)/(v sin u + e)."""
    val, err = quad(
        lambda u: math.sin(2 * u) / (v * math.sin(u) + e),
        0.0,
        theta,
        epsabs=1e-13,
        epsrel=1e-12,
    )
    assert err < 1e-9 * max(abs(val), 1e-3)
    return val


def make_q(v, e):
    return QslQuantities(
        delta_h0=0.0, g_term=v / math.sqrt(2.0), e_term=e, v_coeff=v, ratio_r=v / e if e > 0 else None
    )


class TestBuresAngle:
    def test_same_state_gives_zero(self, rng):
        rho = linalg.projector(random_state(rng, 3))
        assert qsl.bures_angle(rho, rho) == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_states(self):
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        rho1 = np.diag([0.0, 1.0]).astype(complex)
        assert qsl.bures_angle(rho0, rho1) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_maximally_mixed_target(self, rng):
        rho0 = linalg.projector(random_state(rng, 2))
        assert qsl.bures_angle(rho0, 0.5 * np.eye(2, dtype=complex)) == pytest.approx(
            np.pi / 4, abs=1e-12
        )

    def test_rejects_mixed_reference(self):
        with pytest.raises(ValueError):
            qsl.bures_angle(0.5 * np.eye(2, dtype=complex), np.eye(2, dtype=complex) / 2)

    def test_rejects_complex_overlap(self):
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        bad = np.array([[0.5, 0.5j], [0.5, 0.5]], dtype=complex)
        with pytest.raises(ValueError):
            qsl.bures_angle(rho0, 1j * rho0 @ bad @ rho0 + np.diag([0.0, 1.0]))


class TestComputeQuantities:
    @pytest.mark.parametrize("theta", [0.0, 0.3, np.pi / 4, 1.2, np.pi / 2, 2.0, np.pi])
    @pytest.mark.parametrize("omega,gamma", [(1.0, 1.0), (0.5, 2.0), (4.0, 0.25)])
    def test_dephasing_identities(self, theta, omega, gamma):
        model, psi0 = dephasing_model(DephasingQubitParams(omega=omega, gamma=gamma, theta=theta))
        q = qsl.compute_quantities(model, psi0)
        assert q.delta_h0 == pytest.approx(0.5 * omega * abs(math.cos(theta)), abs=1e-12)
        assert q.e_term == pytest.approx(gamma * math.sin(theta) ** 2, abs=1e-12)
        # deformation norm from the 2x2 closed form sqrt(2) gamma |sin(theta)|
        assert q.g_term == pytest.approx(
            math.sqrt(2.0) * gamma * abs(math.sin(theta)), abs=1e-12
        )
        assert q.v_coeff == pytest.approx(2 * q.delta_h0 + math.sqrt(2) * q.g_term, abs=1e-15)

    def test_dephasing_g_spot_value(self):
        model, psi0 = dephasing_model(
            DephasingQubitParams(omega=1.0, gamma=1.0, theta=np.pi / 4)
        )
        q = qsl.compute_quantities(model, psi0)
        assert q.g_term == pytest.approx(1.0, abs=1e-12)

    def test_emission_preset_values(self):
        model, psi0 = spontaneous_emission_model(1.0)
        q = qsl.compute_quantities(model, psi0)
        assert (q.g_term, q.e_term) == (pytest.approx(1.0, abs=1e-12), pytest.approx(1.0, abs=1e-12))
        assert q.v_coeff == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert q.delta_h0 == 0.0

    def test_emission_linear_in_gamma(self):
        q1 = qsl.compute_quantities(*spontaneous_emission_model(1.0))
        q2 = qsl.compute_quantities(*spontaneous_emission_model(2.0))
        assert q2.g_term == pytest.approx(2 * q1.g_term, abs=1e-12)
        assert q2.e_term == pytest.approx(2 * q1.e_term, abs=1e-12)
        assert q2.v_coeff == pytest.approx(2 * q1.v_coeff, abs=1e-12)

    def test_multi_operator_terms(self, rng):
        # e_term adds per channel; g_term is the norm of the summed deformation
        dim = 3
        h = random_hermitian(rng, dim)
        ops = tuple(random_complex_matrix(rng, dim) for _ in range(3))
        psi = random_state(rng, dim)
        q = qsl.compute_quantities(LindbladModel(h, ops), psi)
        e_sum = 0.0
        deformation = np.zeros((dim, dim), dtype=complex)
        from openqsl.dynamics import adjoint_dissipator

        rho0 = linalg.projector(psi)
        for op in ops:
            lpsi = op @ psi
            e_sum += np.real(np.vdot(lpsi, lpsi)) - abs(np.vdot(psi, lpsi)) ** 2
            deformation += adjoint_dissipator(op, rho0)
        assert q.e_term == pytest.approx(e_sum, abs=1e-12)
        assert q.g_term == pytest.approx(linalg.frobenius_norm(deformation), abs=1e-12)

    @pytest.mark.parametrize("n_ops", [1, 2, 3])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_linear_in_omega_and_gamma(self, dim, n_ops):
        # the CLI sweeps scale unit-rate quantities by these factors
        rng = np.random.default_rng([dim, n_ops])
        h = random_hermitian(rng, dim)
        ops = tuple(random_complex_matrix(rng, dim) for _ in range(n_ops))
        psi = random_state(rng, dim)
        unit = qsl.compute_quantities(LindbladModel(h, ops), psi)
        for omega, gamma in 10.0 ** rng.uniform(-3.0, 3.0, size=(4, 2)):
            model = LindbladModel(omega * h, tuple(math.sqrt(gamma) * op for op in ops))
            q = qsl.compute_quantities(model, psi)
            assert (q.delta_h0, q.g_term, q.e_term) == (
                pytest.approx(omega * unit.delta_h0, rel=1e-13, abs=0.0),
                pytest.approx(gamma * unit.g_term, rel=1e-13, abs=0.0),
                pytest.approx(gamma * unit.e_term, rel=1e-13, abs=0.0),
            )

    def test_ratio_defined_only_with_fluctuation(self):
        closed = LindbladModel(hamiltonian=SIGMA_X)
        q = qsl.compute_quantities(closed, np.array([1, 0], dtype=complex))
        assert q.ratio_r is None
        q2 = qsl.compute_quantities(*spontaneous_emission_model(1.0))
        assert q2.ratio_r == pytest.approx(math.sqrt(2.0), abs=1e-12)


class TestThetaDotBound:
    def test_closed_system_form(self):
        q = QslQuantities.from_terms(0.7, 0.0, 0.0)
        for theta in (0.2, 0.7, 1.3):
            assert qsl.theta_dot_bound(q, theta) == pytest.approx(
                0.7 / math.cos(theta), abs=1e-12
            )

    def test_emission_spot_value(self):
        q = qsl.compute_quantities(*spontaneous_emission_model(1.0))
        assert qsl.theta_dot_bound(q, np.pi / 4) == pytest.approx(2.0, abs=1e-12)

    def test_zero_quantities(self):
        q = QslQuantities.from_terms(0.0, 0.0, 0.0)
        assert qsl.theta_dot_bound(q, 0.5) == 0.0

    def test_singular_endpoints(self):
        q = QslQuantities.from_terms(1.0, 0.0, 0.0)
        with pytest.raises(SingularPointError):
            qsl.theta_dot_bound(q, 0.0)
        with pytest.raises(SingularPointError):
            qsl.theta_dot_bound(q, np.pi / 2)


class TestTQsl:
    def test_emission_closed_form(self):
        q = qsl.compute_quantities(*spontaneous_emission_model(1.0))
        assert qsl.t_qsl(q, np.pi / 4) == pytest.approx(1.0 - math.log(2.0), abs=1e-12)

    def test_against_quadrature_oracle(self, rng):
        for _ in range(50):
            v = 10.0 ** rng.uniform(-2, 2)
            e = 10.0 ** rng.uniform(-2, 2)
            theta = rng.uniform(0.05, np.pi / 2)
            got = qsl.t_qsl(make_q(v, e), theta)
            want = quad_bound_time(v, e, theta)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_against_high_precision_reference(self, rng):
        # (2/v)(s - (e/v) ln(1 + v s/e)) in 60-digit decimal arithmetic at the
        # same float s = sin(theta); covers x = v s/e from 1e-21 to 1e18
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            for _ in range(2000):
                v = 10.0 ** rng.uniform(-9, 9)
                e = 10.0 ** rng.uniform(-9, 9)
                theta = rng.uniform(1e-3, np.pi / 2)
                dv, de, ds = (decimal.Decimal(val) for val in (v, e, math.sin(theta)))
                want = float(2 / dv * (ds - de / dv * (1 + dv * ds / de).ln()))
                got = qsl.t_qsl(make_q(v, e), theta)
                assert got == pytest.approx(want, rel=1e-14, abs=0.0)
                assert got == pytest.approx(qsl.f_ratio(v / e, theta) / v, rel=1e-14, abs=0.0)

    def test_closed_system_reduction(self):
        # e_term = 5e-324 makes v s/e overflow; the bound is then the same limit
        for e_term in (0.0, 5e-324):
            q = QslQuantities.from_terms(0.8, 0.0, e_term)
            for theta in (0.1, 0.7, np.pi / 2):
                assert qsl.t_qsl(q, theta) == pytest.approx(math.sin(theta) / 0.8, abs=1e-15)

    def test_small_angle_matches_fluctuation_limit(self):
        q = make_q(1.0, 1.0)
        for theta in (1e-5, 1e-6):
            assert qsl.t_qsl(q, theta) == pytest.approx(
                math.sin(theta) ** 2 / q.e_term, rel=1e-4
            )

    def test_branch_continuity_at_switches(self):
        # tiny x: full log form at x just above the switch vs series just below
        s = 0.5
        e = 1.0
        for x in (0.99e-8, 1.01e-8):
            v = x * e / s
            got = qsl.t_qsl(make_q(v, e), math.asin(s))
            series = (s * s / e) * (1 - 2 * x / 3)
            assert got == pytest.approx(series, rel=1e-8)

    def test_large_x_asymptote(self):
        # x = v s/e around 1e8: the neglected term of (2s/v)(1 - log(x)/x) is
        # O(1/x^2); quadrature is no oracle here (quad itself is off by ~1e-7)
        s = 0.5
        v = 1.0
        for x in (0.99e8, 1.01e8):
            e = v * s / x
            got = qsl.t_qsl(make_q(v, e), math.asin(s))
            asymptote = (2 * s / v) * (1 - math.log(x) / x)
            assert got == pytest.approx(asymptote, rel=1e-12, abs=0.0)

    def test_domain_and_frozen_errors(self):
        q = make_q(1.0, 1.0)
        with pytest.raises(ValueError):
            qsl.t_qsl(q, 0.0)
        with pytest.raises(ValueError):
            qsl.t_qsl(q, 2.0)
        with pytest.raises(FrozenDynamicsError):
            qsl.t_qsl(QslQuantities.from_terms(0.0, 0.0, 0.0), 0.5)

    def test_monotone_in_target(self, rng):
        thetas = np.linspace(0.05, np.pi / 2, 40)
        for _ in range(1000):
            v = 10.0 ** rng.uniform(-3, 3)
            e = 10.0 ** rng.uniform(-3, 3)
            q = make_q(v, e)
            vals = [qsl.t_qsl(q, t) for t in thetas]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_scale_covariance(self, rng):
        for _ in range(25):
            dim = int(rng.integers(2, 5))
            h = random_hermitian(rng, dim)
            ops = tuple(random_complex_matrix(rng, dim) for _ in range(2))
            psi = random_state(rng, dim)
            lam = 10.0 ** rng.uniform(-2, 2)
            q1 = qsl.compute_quantities(LindbladModel(h, ops), psi)
            q2 = qsl.compute_quantities(
                LindbladModel(lam * h, tuple(math.sqrt(lam) * op for op in ops)), psi
            )
            assert q2.v_coeff == pytest.approx(lam * q1.v_coeff, rel=1e-10, abs=0.0)
            assert q2.e_term == pytest.approx(lam * q1.e_term, rel=1e-10, abs=0.0)
            theta = rng.uniform(0.1, 1.5)
            assert qsl.t_qsl(q2, theta) == pytest.approx(
                qsl.t_qsl(q1, theta) / lam, rel=1e-10, abs=0.0
            )


class TestStrongDecoherenceLimit:
    def test_spot_value_and_agreement(self):
        q = make_q(1.0, 100.0)
        approx = qsl.t_qsl_strong_decoherence(q, np.pi / 4)
        assert approx == pytest.approx(0.005, abs=1e-15)
        assert abs(qsl.t_qsl(q, np.pi / 4) - approx) / qsl.t_qsl(q, np.pi / 4) < 0.01

    def test_unit_case(self):
        assert qsl.t_qsl_strong_decoherence(make_q(1.0, 1.0), np.pi / 2) == pytest.approx(1.0)

    def test_extreme_fluctuation_gap(self):
        q = make_q(1.0, 1e6)
        full = qsl.t_qsl(q, 1.0)
        approx = qsl.t_qsl_strong_decoherence(q, 1.0)
        assert abs(full - approx) / full < 1e-5

    def test_requires_fluctuation(self):
        with pytest.raises(FrozenDynamicsError):
            qsl.t_qsl_strong_decoherence(QslQuantities.from_terms(1.0, 0.0, 0.0), 0.5)

    @pytest.mark.parametrize("ratio", [1e2, 1e4, 1e6])
    def test_relative_error_bounded_by_x(self, ratio):
        # |t - s^2/e| / t <= v s / e in the fluctuation-dominated regime
        q = make_q(1.0, ratio)
        for theta in (0.2, 0.7, 1.2, 1.5):
            s = math.sin(theta)
            full = qsl.t_qsl(q, theta)
            approx = qsl.t_qsl_strong_decoherence(q, theta)
            assert abs(full - approx) / full <= q.v_coeff * s / q.e_term


class TestFRatio:
    def test_spot_value(self):
        r = 2.0 * math.sqrt(2.0)
        expected = 2.0 * (math.sin(np.pi / 4) - math.log(3.0) / r)
        assert qsl.f_ratio(r, np.pi / 4) == pytest.approx(expected, abs=1e-12)
        assert qsl.f_ratio(r, np.pi / 4) == pytest.approx(
            2 * math.sqrt(2) * quad_bound_time(r, 1.0, np.pi / 4), rel=1e-9
        )

    def test_small_ratio_series(self):
        theta = 0.9
        r = 1e-9
        assert qsl.f_ratio(r, theta) == pytest.approx(
            r * math.sin(theta) ** 2, rel=1e-6, abs=0.0
        )

    def test_zero_angle(self):
        assert qsl.f_ratio(1.5, 0.0) == 0.0

    def test_rejects_nonpositive_ratio(self):
        with pytest.raises(ValueError):
            qsl.f_ratio(0.0, 0.5)

    @scalar_settings
    @given(
        v=st.floats(min_value=1e-3, max_value=1e3),
        e=st.floats(min_value=1e-3, max_value=1e3),
        theta=st.floats(min_value=1e-3, max_value=np.pi / 2),
    )
    def test_identity_with_t_qsl(self, v, e, theta):
        q = make_q(v, e)
        lhs = qsl.t_qsl(q, theta)
        rhs = qsl.f_ratio(v / e, theta) / v
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


class TestLowerBound:
    def test_emission_spot_value(self):
        q = qsl.compute_quantities(*spontaneous_emission_model(1.0))
        lo = qsl.qsl_lower_bound(q, np.pi / 4)
        assert lo == pytest.approx(0.25, abs=1e-12)
        assert lo <= qsl.t_qsl(q, np.pi / 4)

    def test_closed_system_reduction(self):
        q = QslQuantities.from_terms(0.5, 0.0, 0.0)
        theta = 0.8
        assert qsl.qsl_lower_bound(q, theta) == pytest.approx(
            math.sin(theta) / q.v_coeff, abs=1e-15
        )
        assert qsl.t_qsl(q, theta) == pytest.approx(
            2 * qsl.qsl_lower_bound(q, theta), abs=1e-15
        )

    def test_small_angle_quadratic(self):
        q = make_q(1.0, 100.0)
        for theta in (1e-3, 1e-4):
            assert qsl.qsl_lower_bound(q, theta) == pytest.approx(
                math.sin(theta) ** 2 / q.e_term, rel=1e-4
            )

    def test_frozen_error(self):
        with pytest.raises(FrozenDynamicsError):
            qsl.qsl_lower_bound(QslQuantities.from_terms(0.0, 0.0, 0.0), 0.5)

    @scalar_settings
    @given(
        v=st.floats(min_value=1e-3, max_value=1e3),
        e=st.floats(min_value=1e-3, max_value=1e3),
        theta=st.floats(min_value=1e-3, max_value=np.pi / 2),
    )
    def test_never_exceeds_t_qsl(self, v, e, theta):
        q = make_q(v, e)
        assert qsl.qsl_lower_bound(q, theta) <= qsl.t_qsl(q, theta) + 1e-12


class TestEvaluateBound:
    def test_emission_satisfied(self):
        model, psi0 = spontaneous_emission_model(1.0)
        report = qsl.evaluate_bound(model, psi0, np.pi / 4, horizon=2.0, dt=1e-3)
        assert report.satisfied
        assert report.t_first_passage == pytest.approx(math.log(2.0), abs=1e-6)
        assert report.t_qsl == pytest.approx(1.0 - math.log(2.0), abs=1e-9)
        assert report.t_lower <= report.t_qsl

    def test_dephasing_unreachable_marker(self):
        model, psi0 = dephasing_model(
            DephasingQubitParams(omega=1.0, gamma=1.0, theta=np.pi / 4)
        )
        report = qsl.evaluate_bound(model, psi0, 1.5, horizon=20.0, dt=1e-3)
        assert report.t_first_passage is None
        assert report.satisfied
        assert report.t_qsl > 0.0

    def test_closed_rabi_near_full_flip(self):
        model = LindbladModel(hamiltonian=0.5 * SIGMA_X)
        psi0 = np.array([1.0, 0.0], dtype=complex)
        report = qsl.evaluate_bound(model, psi0, np.pi / 2 - 1e-5, horizon=4.0, dt=1e-4)
        assert report.satisfied
        assert report.t_first_passage == pytest.approx(np.pi, abs=1e-4)
        # Mandelstam-Tamm-style time: sin(theta)/delta_h0 ~ 2
        assert report.t_qsl == pytest.approx(2.0, abs=1e-4)
