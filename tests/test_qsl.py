import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from openqsl import linalg, qsl
from openqsl.dynamics import LindbladModel, adjoint_dissipator
from openqsl.errors import FrozenDynamicsError, SingularPointError
from openqsl.models import (
    SIGMA_X,
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

    def test_one_channel_g_is_bitwise_the_adjoint_dissipator_norm(self, rng):
        for dim in range(2, 7):
            op = random_complex_matrix(rng, dim)
            psi = linalg.pure_state(random_state(rng, dim))
            q = qsl.compute_quantities(LindbladModel(random_hermitian(rng, dim), (op,)), psi)
            want = linalg.frobenius_norm(adjoint_dissipator(op, linalg.projector(psi)))
            assert q.g_term == want

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

    def test_scalars_read_the_normalized_state(self):
        # pure_state accepts a norm of 1 +- 1e-12 and evolve integrates
        # psi0 / |psi0|; the scalars must describe that same state, so a
        # rescaled psi0 moves them only by the rounding of the division
        # (unnormalized, delta_h0, g and e moved by up to 2e-12 relative)
        from openqsl import verify

        scales = (1.0 - 9.99e-13, 1.0 + 9.99e-13)
        model, psi0 = verify.random_model(np.random.default_rng(3), 3)
        want = qsl.compute_quantities(model, psi0)
        for scale in scales:
            assert qsl.compute_quantities(model, scale * psi0) == want
        for seed in range(10):
            for dim in (2, 3, 4, 5, 6):
                model, psi0 = verify.random_model(np.random.default_rng(seed), dim)
                want = qsl.compute_quantities(model, psi0)
                for scale in scales:
                    got = qsl.compute_quantities(model, scale * psi0)
                    for name in ("delta_h0", "g_term", "e_term", "v_coeff"):
                        assert getattr(got, name) == pytest.approx(
                            getattr(want, name), rel=1e-14, abs=0.0
                        )

    def test_ratio_defined_only_with_fluctuation(self):
        closed = LindbladModel(hamiltonian=SIGMA_X)
        q = qsl.compute_quantities(closed, np.array([1, 0], dtype=complex))
        assert q.ratio_r is None
        q2 = qsl.compute_quantities(*spontaneous_emission_model(1.0))
        assert q2.ratio_r == pytest.approx(math.sqrt(2.0), abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_initial_fidelity_rate_is_minus_e(self, dim):
        # c1 = Re<rho0, A rho0> is the first Taylor overlap of the generator
        # that evolve integrates; for a pure rho0 it equals
        # sum_k |<L_k>|^2 - <L_k^dag L_k> = -e_term exactly. Rounding: with
        # v = vec(rho0), |v| = 1, c1 is a d^2-term dot product of v with A v,
        # each entry a d^2-term sum, so it rounds within about
        # 2 d^2 u |v|^T |A| |v| (Higham, Accuracy and Stability, sec. 3.1);
        # e_term sums |(L - <L>) psi|^2, d-term inner products, within about
        # (2d + 4) u sum_k |L_k psi|^2. Below, tol takes both scales with the
        # larger factor, 2d^2 + 2d + 8 (a few more roundings build A's
        # entries); over 3000 seeded models the error was at most 2.4 u times
        # that scale, and 1.2e-13 relative to e_term.
        from openqsl import dynamics, verify

        u = np.finfo(float).eps / 2
        rng = np.random.default_rng([dim, 11])
        for _ in range(40):
            model, psi0 = verify.random_model(rng, dim)
            psi = linalg.pure_state(psi0)
            v = linalg.projector(psi).reshape(1, -1)
            c1 = float(np.real(np.vdot(v[0], dynamics._taylor_terms(model, v)[1, 0])))
            q = qsl.compute_quantities(model, psi0)
            scale = float(np.abs(v[0]) @ np.abs(model.liouvillian) @ np.abs(v[0]))
            scale += sum(np.linalg.norm(op @ psi) ** 2 for op in model.lindblad_ops)
            tol = (2 * dim * dim + 2 * dim + 8) * u * scale
            assert c1 == pytest.approx(-q.e_term, rel=tol / q.e_term, abs=0.0)


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


BOUND_HELPERS = [
    lambda theta: qsl.qsl_lower_bound(make_q(1.0, 1.0), theta),
    lambda theta: qsl.t_qsl_strong_decoherence(make_q(1.0, 1.0), theta),
    lambda theta: qsl.f_ratio(2.0, theta),
]


class TestBoundHelperTargetDomain:
    # the helpers accept [0, pi/2], t_qsl's domain with theta = 0 added
    @pytest.mark.parametrize("helper", BOUND_HELPERS)
    @pytest.mark.parametrize(
        "theta",
        [math.nan, -0.3, -1e-300, -math.inf, np.nextafter(np.pi / 2, 4.0), 2.0, 3.0, 7.0, math.inf],
    )
    def test_rejects_target_outside_domain(self, helper, theta):
        with pytest.raises(ValueError, match=r"outside \[0, pi/2\]"):
            helper(theta)

    @pytest.mark.parametrize("helper", BOUND_HELPERS)
    def test_accepts_domain_ends(self, helper):
        assert helper(0.0) == 0.0
        assert helper(np.pi / 2) > 0.0
