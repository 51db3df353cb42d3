import functools
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from openqsl import dynamics, fisher, linalg, verify
from openqsl.dynamics import (
    LindbladModel,
    adjoint_dissipator,
    dissipator,
    evolve,
    first_passage_time,
    lindblad_rhs,
    liouvillian_matrix,
    theta_dot_exact,
)
from openqsl.errors import (
    DimensionMismatchError,
    IntegrationQualityError,
    NonHermitianError,
    ResourceLimitError,
    SingularPointError,
    UnreachableTargetError,
)
from openqsl.models import (
    IDENTITY_2,
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DephasingQubitParams,
    ProductModelParams,
    dephasing_model,
    product_model_dense,
    spontaneous_emission_model,
)
from openqsl.qsl import compute_quantities, t_qsl

from conftest import four_stage_step, random_complex_matrix, random_hermitian, random_state

EXCITED = np.array([1.0, 0.0], dtype=complex)
RHO_EXCITED = np.array([[1, 0], [0, 0]], dtype=complex)
RHO_PLUS = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)


class TestDissipator:
    def test_decay_channel_on_excited_state(self):
        # hand computation: L|0> = sqrt(g)|1>, L^dag L = g|0><0|
        gamma = 1.7
        L = np.sqrt(gamma) * SIGMA_MINUS
        expected = gamma * np.array([[-1, 0], [0, 1]], dtype=complex)
        np.testing.assert_allclose(dissipator(L, RHO_EXCITED), expected, atol=1e-14)

    def test_identity_lindblad_is_trivial(self, rng):
        rho = linalg.projector(random_state(rng, 2))
        np.testing.assert_allclose(
            dissipator(IDENTITY_2, rho), np.zeros((2, 2)), atol=1e-15
        )

    def test_dephasing_kills_coherences(self):
        # sigma_z^2 = I, so D[L]rho = gamma (sigma_z rho sigma_z - rho)
        gamma = 0.6
        L = np.sqrt(gamma) * SIGMA_Z
        expected = gamma * (SIGMA_Z @ RHO_PLUS @ SIGMA_Z - RHO_PLUS)
        got = dissipator(L, RHO_PLUS)
        np.testing.assert_allclose(got, expected, atol=1e-14)
        # equals -2 gamma times the off-diagonal part
        offdiag = RHO_PLUS - np.diag(np.diag(RHO_PLUS))
        np.testing.assert_allclose(got, -2.0 * gamma * offdiag, atol=1e-14)

    def test_traceless(self, rng):
        for dim in (2, 3, 5):
            L = random_complex_matrix(rng, dim)
            rho = linalg.projector(random_state(rng, dim))
            out = dissipator(L, rho)
            assert abs(np.trace(out)) <= 1e-12 * max(linalg.frobenius_norm(rho), 1.0) * (
                linalg.frobenius_norm(L) ** 2 + 1.0
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            dissipator(SIGMA_X, np.eye(3, dtype=complex))


class TestAdjointDissipator:
    def test_decay_channel_on_excited_projector(self):
        gamma = 2.3
        L = np.sqrt(gamma) * SIGMA_MINUS
        np.testing.assert_allclose(
            adjoint_dissipator(L, RHO_EXCITED), -gamma * RHO_EXCITED, atol=1e-14
        )

    def test_identity_is_trivial(self, rng):
        a = random_hermitian(rng, 2)
        np.testing.assert_allclose(
            adjoint_dissipator(IDENTITY_2, a), np.zeros((2, 2)), atol=1e-14
        )

    def test_duality_spot_value(self, rng):
        L = random_complex_matrix(rng, 3)
        a = random_hermitian(rng, 3)
        rho = linalg.projector(random_state(rng, 3))
        lhs = linalg.trace_product(a, dissipator(L, rho))
        rhs = linalg.trace_product(rho, adjoint_dissipator(L, a))
        assert lhs == pytest.approx(rhs, abs=1e-11)

    def test_duality_random_triples(self, rng):
        for _ in range(200):
            dim = int(rng.integers(2, 7))
            L = random_complex_matrix(rng, dim)
            a = random_complex_matrix(rng, dim)
            rho = random_complex_matrix(rng, dim)
            lhs = linalg.trace_product(a, dissipator(L, rho))
            rhs = linalg.trace_product(rho, adjoint_dissipator(L, a))
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestLindbladRhs:
    def test_zero_generator(self, rng):
        model = LindbladModel(hamiltonian=np.zeros((2, 2), dtype=complex))
        rho = linalg.projector(random_state(rng, 2))
        np.testing.assert_allclose(lindblad_rhs(model, rho), np.zeros((2, 2)), atol=1e-15)

    def test_pure_hamiltonian_term(self):
        omega = 1.3
        model = LindbladModel(hamiltonian=0.5 * omega * SIGMA_X)
        expected = -1j * 0.5 * omega * (SIGMA_X @ RHO_EXCITED - RHO_EXCITED @ SIGMA_X)
        np.testing.assert_allclose(lindblad_rhs(model, RHO_EXCITED), expected, atol=1e-14)

    def test_emission_model_at_excited_state(self):
        gamma = 1.0
        model, _ = spontaneous_emission_model(gamma)
        expected = gamma * np.array([[-1, 0], [0, 1]], dtype=complex)
        np.testing.assert_allclose(lindblad_rhs(model, RHO_EXCITED), expected, atol=1e-14)

    def test_hermiticity_preserving_and_traceless(self, rng):
        for _ in range(10):
            dim = int(rng.integers(2, 5))
            model = LindbladModel(
                hamiltonian=random_hermitian(rng, dim),
                lindblad_ops=(random_complex_matrix(rng, dim),),
            )
            rho = random_hermitian(rng, dim)
            out = lindblad_rhs(model, rho)
            assert linalg.hermiticity_deviation(out) < 1e-12 * max(
                1.0, linalg.frobenius_norm(out)
            )
            assert abs(np.trace(out)) < 1e-12 * max(1.0, linalg.frobenius_norm(rho))

    def test_bitwise_equal_to_summed_dissipators(self, rng):
        # With at most one jump operator the cached K = sum L^dag L / 2
        # changes no bit of the result; with more it sums the L^dag L first,
        # which the K form written out here repeats bit for bit.
        for dim in range(2, 7):
            for n_ops in range(4):
                model = LindbladModel(
                    hamiltonian=random_hermitian(rng, dim),
                    lindblad_ops=tuple(random_complex_matrix(rng, dim) for _ in range(n_ops)),
                )
                rho = random_complex_matrix(rng, dim)
                got = lindblad_rhs(model, rho)
                summed = -1j * linalg.commutator(model.hamiltonian, rho)
                for op in model.lindblad_ops:
                    summed += dissipator(op, rho)
                if n_ops <= 1:
                    assert got.tobytes() == summed.tobytes()
                else:
                    h, ops = model.hamiltonian, model.lindblad_ops
                    k = 0.5 * functools.reduce(np.add, [op.conj().T @ op for op in ops])
                    want = -1j * (h @ rho - rho @ h)
                    dissipative = -(k @ rho + rho @ k)
                    for op in ops:
                        dissipative += op @ rho @ op.conj().T
                    want += dissipative
                    assert got.tobytes() == want.tobytes()
                    assert np.abs(got - summed).max() <= 1e-14 * np.abs(summed).max()
                assert model._jumps is model._jumps

    @pytest.mark.parametrize("n_ops", range(4))
    def test_products_per_call(self, rng, n_ops):
        # the commutator's 2, then K rho and rho K and 2 per jump operator
        model = LindbladModel(
            hamiltonian=random_hermitian(rng, 4),
            lindblad_ops=tuple(random_complex_matrix(rng, 4) for _ in range(n_ops)),
        )
        model._jumps  # built once, outside the count
        products = []

        class Counting(np.ndarray):
            # Records every matrix product taken with a Counting operand;
            # the results are Counting too, so chained products count.
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    products.append(method)

                def plain(arrays):
                    return tuple(a.view(np.ndarray) if isinstance(a, Counting) else a for a in arrays)

                if "out" in kwargs:
                    kwargs["out"] = plain(kwargs["out"])
                return getattr(ufunc, method)(*plain(inputs), **kwargs).view(Counting)

        lindblad_rhs(model, random_complex_matrix(rng, 4).view(Counting))
        assert len(products) == (4 + 2 * n_ops if n_ops else 2)


class TestModelValidation:
    def test_rejects_non_hermitian_hamiltonian(self):
        with pytest.raises(NonHermitianError):
            LindbladModel(hamiltonian=np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_mismatched_operator(self):
        with pytest.raises(DimensionMismatchError):
            LindbladModel(
                hamiltonian=np.zeros((2, 2), dtype=complex),
                lindblad_ops=(np.eye(3, dtype=complex),),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 0)])
    def test_rejects_non_finite_operands(self, bad, where):
        # NaN compares false against the hermiticity tolerance, and an inf
        # entry would make h - h^H warn; each operand is named
        m = np.zeros((2, 2), dtype=complex)
        m[where] = bad
        with pytest.raises(ValueError, match="^hamiltonian has a non-finite entry$"):
            LindbladModel(hamiltonian=m)
        with pytest.raises(ValueError, match="^lindblad operator 1 has a non-finite entry$"):
            LindbladModel(hamiltonian=SIGMA_Z, lindblad_ops=(SIGMA_MINUS, m))

    def test_model_arrays_are_immutable(self):
        model, _ = spontaneous_emission_model(1.0)
        with pytest.raises(ValueError):
            model.hamiltonian[0, 0] = 5.0


class TestLiouvillianMatrix:
    def test_matches_direct_rhs(self, rng):
        for _ in range(10):
            dim = int(rng.integers(2, 5))
            model = LindbladModel(
                hamiltonian=random_hermitian(rng, dim),
                lindblad_ops=tuple(
                    random_complex_matrix(rng, dim) for _ in range(int(rng.integers(0, 3)))
                ),
            )
            rho = random_complex_matrix(rng, dim)
            via_matrix = (liouvillian_matrix(model) @ rho.reshape(-1)).reshape(dim, dim)
            np.testing.assert_allclose(via_matrix, lindblad_rhs(model, rho), atol=1e-12)

    def test_propagator_equals_four_stage_step(self, rng):
        model = LindbladModel(
            hamiltonian=random_hermitian(rng, 3),
            lindblad_ops=(random_complex_matrix(rng, 3),),
        )
        rho = linalg.projector(random_state(rng, 3))
        h = 0.01
        # the step map of _propagate, P^T: the Taylor step of the basis rows
        step = dynamics._partial_steps(dynamics._taylor_terms(model, np.eye(9, dtype=complex)), h)
        via_prop = (rho.reshape(-1) @ step).reshape(3, 3)
        via_stages = four_stage_step(model, rho, h)
        np.testing.assert_allclose(via_prop, via_stages, atol=1e-14)

    def test_superoperator_step_is_the_taylor_step(self):
        # One step of _propagate, the row v times its step map P^T, against
        # the Taylor step of v itself: the same polynomial
        # sum_k h^k v (A^T)^k / k!, so they differ by rounding alone. A
        # product over n = d^2 complex terms errs by <= (n + 2) u |x| |Y|
        # (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
        # sec. 3.1 and 3.6); T_k takes k products and k scalings by the
        # rounded 1/k, <= k (n + 4) u |v| |A^T|^k / k!, and Horner's sum adds
        # <= 8 u sum_k h^k |T_k| (sec. 5.1). With
        # M = sum_k (h |A^T|)^k / k!, each path errs by <= (4 n + 24) u |v| M
        # to first order, P^T's entries by the same with |v| = I, and the
        # product v P^T adds (n + 2) u |v| M: (9 n + 50) u |v| M in all.
        rng = np.random.default_rng(23)
        u = np.finfo(float).eps / 2
        for _ in range(200):
            dim = int(rng.integers(2, 7))
            model, psi0 = verify.random_model(rng, dim)
            h = float(rng.uniform(1e-4, 0.1))
            states = dynamics._propagate(model, linalg.projector(psi0), 1, h)[0]
            flat = states.reshape(2, -1)
            want = dynamics._partial_steps(dynamics._taylor_terms(model, flat[:1]), h)[0]
            ha = h * np.abs(model.liouvillian.T)
            power, series = np.eye(dim * dim), np.eye(dim * dim)
            for k in range(1, 5):
                power = power @ ha / k
                series += power
            bound = (9 * dim**2 + 50) * u * (np.abs(flat[0]) @ series)
            assert np.all(np.abs(flat[1] - want) <= bound)

    def test_bitwise_equal_to_kron_reference(self, rng):
        def kron_reference(model):
            # the K form: (-iH - K) rho + rho (iH - K) + sum L rho L^dag
            h = model.hamiltonian
            eye = np.eye(model.dim, dtype=complex)
            ldl = [op.conj().T @ op for op in model.lindblad_ops] or [np.zeros_like(h)]
            k = 0.5 * functools.reduce(np.add, ldl)
            a = np.kron(-1j * h - k, eye)
            a += np.kron(eye, (1j * h - k).T)
            for op in model.lindblad_ops:
                a += np.kron(op, op.conj())
            return a

        for dim in range(2, 9):
            for n_ops in range(4):
                model = LindbladModel(
                    hamiltonian=random_hermitian(rng, dim),
                    lindblad_ops=tuple(random_complex_matrix(rng, dim) for _ in range(n_ops)),
                )
                got = liouvillian_matrix(model)
                want = kron_reference(model)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_dimension_over_kron_cap_raises_before_allocating(self):
        # d = 65 gives d^2 = 4225 > KRON_DIM_CAP: the first Kronecker factor
        # is refused instead of allocating 285 MB.
        model = LindbladModel(hamiltonian=np.eye(65, dtype=complex))
        with pytest.raises(ResourceLimitError):
            liouvillian_matrix(model)

    def test_cached_on_model_and_read_only(self, rng):
        model = LindbladModel(
            hamiltonian=random_hermitian(rng, 3),
            lindblad_ops=(random_complex_matrix(rng, 3),),
        )
        assert model.liouvillian is model.liouvillian
        np.testing.assert_array_equal(model.liouvillian, liouvillian_matrix(model))
        with pytest.raises(ValueError):
            model.liouvillian[0, 0] = 1.0


class TestBlockedPropagation:
    @staticmethod
    def _model_and_start(rng, dim):
        model = LindbladModel(
            hamiltonian=random_hermitian(rng, dim),
            lindblad_ops=(0.5 * random_complex_matrix(rng, dim),),
        )
        return model, linalg.projector(random_state(rng, dim))

    def test_chunk_steps_rule(self):
        rule = dynamics._chunk_steps
        for dim in range(1, dynamics.SUPEROP_DIM_LIMIT + 1):
            for n in (1, 2, 31, 100, 1000, 12_000, 10**7):
                b = rule(dim, n)
                assert b & (b - 1) == 0
                assert 1 <= b <= max(1, min(n, dynamics.SPAN))
                assert b == 1 or b * dim * dim <= dynamics.CHUNK_ENTRIES
        # doubling pays on long small-dimension runs, not on short wide ones
        assert rule(2, 12_000) == dynamics.SPAN
        assert rule(24, 100) == 1

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_matches_per_step_reference(self, rng, monkeypatch, dim):
        # doubling as the rule says, stopped at 1, 2, 4 and never; n on both
        # sides of each doubling up to 512 steps and, with SPAN = 64, across
        # span boundaries
        model, rho0 = self._model_and_start(rng, dim)
        h = 1e-3
        ref = [rho0]
        for _ in range(773):
            ref.append(four_stage_step(model, ref[-1], h))
        ref = np.array(ref)
        rule = dynamics._chunk_steps
        lengths = (1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 53, 63, 64, 65, 101, 127, 128, 129)
        lengths += (197, 200, 255, 256, 257, 511, 512, 513, 773)
        for span in (dynamics.SPAN, 64):
            monkeypatch.setattr(dynamics, "SPAN", span)
            for limit in (None, 1, 2, 4, 10**9):
                monkeypatch.setattr(
                    dynamics, "_chunk_steps", rule if limit is None else lambda d, n, b=limit: b
                )
                for n in lengths:
                    states, trace_errors, n_renorm = dynamics._propagate(model, rho0, n, h)
                    assert states.shape == (n + 1, dim, dim)
                    np.testing.assert_allclose(states, ref[: n + 1], rtol=0.0, atol=1e-12)
                    assert n_renorm == 0
                    assert trace_errors.max() <= dynamics.RENORM_THRESHOLD

    @pytest.mark.parametrize("dim", [2, 4, 6])
    @pytest.mark.parametrize("path", ["superoperator", "four_stage"])
    def test_renormalization_count(self, rng, monkeypatch, dim, path):
        # only the start is off; the dynamics preserve the trace, so one
        # rescale fixes every later state, rescaled chunks and others alike
        if path == "four_stage":
            monkeypatch.setattr(dynamics, "SUPEROP_DIM_LIMIT", 0)
        n = {2: 773, 4: 101, 6: 53}[dim]
        model, rho0 = self._model_and_start(rng, dim)
        rho0 = (1.0 + 1e-9) * rho0
        for span in (dynamics.SPAN, 64, 16):
            monkeypatch.setattr(dynamics, "SPAN", span)
            states, trace_errors, n_renorm = dynamics._propagate(model, rho0, n, 1e-3)
            assert n_renorm == 1
            assert trace_errors[0] == pytest.approx(1e-9, rel=1e-6)
            assert trace_errors[1:].max() <= dynamics.RENORM_THRESHOLD
            traces = np.trace(states, axis1=1, axis2=2).real
            assert np.abs(traces - 1.0).max() <= dynamics.RENORM_THRESHOLD

    @pytest.mark.parametrize("path", ["superoperator", "four_stage"])
    def test_start_below_the_threshold_is_rescaled(self, rng, monkeypatch, path):
        # a start off by 5e-13 is not counted, but it is rescaled before it
        # is advanced, so no later state inherits its error
        if path == "four_stage":
            monkeypatch.setattr(dynamics, "SUPEROP_DIM_LIMIT", 0)
        model, rho0 = self._model_and_start(rng, 4)
        rho0 = (1.0 + 5e-13) * rho0
        states, trace_errors, n_renorm = dynamics._propagate(model, rho0, 101, 1e-3)
        assert n_renorm == 0
        assert trace_errors[0] == pytest.approx(5e-13, rel=1e-2, abs=0.0)
        assert trace_errors[1:].max() < 1e-13

    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_every_drifting_state_is_rescaled(self, rng, monkeypatch, dim):
        # a step map that gains 1e-10 of trace per step: every state after
        # the first drifts past the threshold, rescaled chunks and others
        # alike, and must come back to the rescaled exact chain; each is
        # rescaled before it is advanced, so an error is the drift over the
        # b steps from its source
        model, rho0 = self._model_and_start(rng, dim)
        h = 1e-3
        n = {2: 773, 4: 101, 6: 53}[dim]
        ref = [rho0]
        for _ in range(n):
            ref.append(four_stage_step(model, ref[-1], h))
        ref = np.array(ref)
        ref /= np.trace(ref, axis1=1, axis2=2)[:, None, None]
        for path in ("superoperator", "four_stage"):
            monkeypatch.undo()
            if path == "four_stage":
                monkeypatch.setattr(dynamics, "SUPEROP_DIM_LIMIT", 0)
            original = dynamics._partial_steps
            monkeypatch.setattr(
                dynamics, "_partial_steps", lambda t, taus: (1.0 + 1e-10) * original(t, taus)
            )
            for span in (dynamics.SPAN, 64, 16):
                monkeypatch.setattr(dynamics, "SPAN", span)
                states, trace_errors, n_renorm = dynamics._propagate(model, rho0, n, h)
                assert n_renorm == n
                assert trace_errors[1:].min() > dynamics.RENORM_THRESHOLD
                b = dynamics._chunk_steps(dim, n) if path == "superoperator" else 1
                assert trace_errors.max() == pytest.approx(b * 1e-10, rel=1e-4, abs=0.0)
                np.testing.assert_allclose(states, ref, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 6])
    @pytest.mark.parametrize("path", ["superoperator", "four_stage"])
    def test_span_caps_drift_below_the_threshold(self, rng, monkeypatch, dim, path):
        # a step map that gains 1e-13 of trace per step would pass the
        # threshold after 10 steps; no span is longer than SPAN = 8 steps, so
        # no state drifts further than 8e-13
        model, rho0 = self._model_and_start(rng, dim)
        monkeypatch.setattr(dynamics, "SPAN", 8)
        if path == "four_stage":
            monkeypatch.setattr(dynamics, "SUPEROP_DIM_LIMIT", 0)
        original = dynamics._partial_steps
        monkeypatch.setattr(
            dynamics, "_partial_steps", lambda t, taus: (1.0 + 1e-13) * original(t, taus)
        )
        states, trace_errors, n_renorm = dynamics._propagate(model, rho0, 773, 1e-3)
        assert n_renorm == 0
        assert trace_errors.max() == pytest.approx(8e-13, rel=1e-2, abs=0.0)

    @pytest.mark.parametrize("path", ["superoperator", "four_stage"])
    def test_small_drift_is_rescaled_before_it_is_advanced(self, rng, monkeypatch, path):
        # one step at a time, a step map that gains 2e-15 of trace per step:
        # each state whose drift passes the threshold is rescaled before the
        # next step is taken from it, so the drift starts again from there
        # and crosses the threshold once per 501 steps
        model, rho0 = self._model_and_start(rng, 3)
        monkeypatch.setattr(dynamics, "_chunk_steps", lambda d, n: 1)
        if path == "four_stage":
            monkeypatch.setattr(dynamics, "SUPEROP_DIM_LIMIT", 0)
        original = dynamics._partial_steps
        monkeypatch.setattr(
            dynamics, "_partial_steps", lambda t, taus: (1.0 + 2e-15) * original(t, taus)
        )
        states, trace_errors, n_renorm = dynamics._propagate(model, rho0, 1800, 1e-3)
        assert n_renorm == 3
        assert trace_errors.max() < dynamics.RENORM_THRESHOLD + 1e-14
        traces = np.trace(states, axis1=1, axis2=2).real
        assert np.abs(traces - 1.0).max() <= dynamics.RENORM_THRESHOLD

    @pytest.mark.parametrize("dim, n", [(2, 12_000), (3, 1000), (6, 12_000), (12, 100)])
    def test_products_per_trajectory(self, rng, monkeypatch, dim, n):
        # 4 products of the d^2 basis rows build the step map, then log2(b)
        # doubling products and one per chunk of b states
        rows = []
        original = np.matmul

        def counting(*args, **kwargs):
            rows.append(len(args[0]))
            return original(*args, **kwargs)

        model, rho0 = self._model_and_start(rng, dim)
        monkeypatch.setattr(np, "matmul", counting)
        dynamics._propagate(model, rho0, n, 1e-3)
        b = dynamics._chunk_steps(dim, n)
        assert len(rows) == 4 + b.bit_length() - 1 + -(-(n + 1 - b) // b)
        assert sum(rows) == n + 4 * dim**2 and max(rows) <= max(b, dim**2)
        if dim == 2:
            assert b == dynamics.SPAN and len(rows) == 20

    def test_long_random_runs_need_no_renormalization(self):
        # the first 60 bound_dominance trajectories: no span is long enough
        # for the rounding of the squared step map to reach RENORM_THRESHOLD
        rng = np.random.default_rng(0)
        for _ in range(60):
            dim = int(rng.choice(verify.BOUND_DIMS))
            model, psi0 = verify.random_model(rng, dim)
            traj = evolve(model, psi0, 12.0, 1e-3)
            assert traj.renormalizations == 0
            assert traj.trace_drift <= dynamics.RENORM_THRESHOLD

    def test_liouvillian_built_once_per_fisher_check(self, rng, monkeypatch):
        from openqsl.fisher import verify_fisher_tradeoff

        calls = []
        original = dynamics.liouvillian_matrix

        def counting(model):
            calls.append(model)
            return original(model)

        monkeypatch.setattr(dynamics, "liouvillian_matrix", counting)
        models = [self._model_and_start(rng, 3)[0] for _ in range(2)]
        psi0 = random_state(rng, 3)
        for model in models:
            verify_fisher_tradeoff(model, psi0, [1e-3, 1e-2, 3e-2, 1e-1], 1e-3)
        assert [id(m) for m in calls] == [id(m) for m in models]


# (lowest eigenvalue, certified): certified down to just above
# -c = -0.999999e-5
CERTIFICATE_EDGE = [
    (0.0, True),
    (-0.99999e-5, True),
    (-0.999998e-5, True),
    (-0.9999995e-5, False),
    (-1e-5, False),
    (-1.0000001e-5, False),
]


def _rotated_states(rng, dim, lowest):
    """Random U diag(p) U^dag with min(p) = lowest and sum(p) = 1."""
    u, _ = np.linalg.qr(random_complex_matrix(rng, dim))
    p = rng.uniform(0.1, 1.0, dim)
    p[0] = 0.0
    p *= (1.0 - lowest) / p.sum()
    p[0] = lowest
    return (u * p) @ u.conj().T


class TestPositivityGate:
    @staticmethod
    def _evolve_on(monkeypatch, states, trace_errors=None):
        """Run evolve's checks on a given state stack in place of integration."""
        n = len(states) - 1
        errors = np.zeros(n + 1) if trace_errors is None else trace_errors
        monkeypatch.setattr(dynamics, "_propagate", lambda model, rho0, n_steps, h: (states, errors, 0))
        dim = states.shape[1]
        model = LindbladModel(hamiltonian=np.zeros((dim, dim), dtype=complex))
        psi0 = np.zeros(dim, dtype=complex)
        psi0[0] = 1.0
        return evolve(model, psi0, 0.1 * n, 0.1)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize(
        "lowest", [-1.0000001e-5, -1e-5, -0.9999995e-5, -0.999998e-5, -0.99999e-5, 0.0]
    )
    def test_decision_matches_exact_eigvalsh_rule(self, rng, monkeypatch, dim, lowest):
        # every state well inside the cone except the last, which sits at the
        # edge; small chunks put it in a chunk of its own
        monkeypatch.setattr(dynamics, "STATE_CHUNK", 4)
        for _ in range(5):
            states = np.array(
                [_rotated_states(rng, dim, 0.01) for _ in range(8)]
                + [_rotated_states(rng, dim, lowest)]
            )
            passes = bool(np.linalg.eigvalsh(states).min() >= dynamics.MIN_EIG_LIMIT)
            if passes:
                traj = self._evolve_on(monkeypatch, states)
                assert traj.min_eig >= dynamics.MIN_EIG_LIMIT
            else:
                with pytest.raises(IntegrationQualityError, match="min eigenvalue"):
                    self._evolve_on(monkeypatch, states)

    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_certificate_is_sound_and_tight(self, rng, monkeypatch, dim):
        # certified down to just above -c = -0.999999e-5; below that the
        # exact eigenvalues decide, even where they still pass (-0.9999995e-5);
        # the same for the stacked sweep and for LAPACK
        for min_states in (0, 10**9):
            monkeypatch.setattr(dynamics, "SWEEP_MIN_STATES", min_states)
            for lowest, certified in CERTIFICATE_EDGE:
                states = np.array([_rotated_states(rng, dim, lowest) for _ in range(6)])
                assert dynamics._certified(states) is certified
                if certified:
                    assert np.linalg.eigvalsh(states).min() >= dynamics.MIN_EIG_LIMIT

    @pytest.mark.parametrize("chunk", [4, 7])
    @pytest.mark.parametrize("dim", range(2, dynamics.SWEEP_DIM_LIMIT + 2))
    def test_sweep_decides_as_lapack_cholesky(self, rng, monkeypatch, dim, chunk):
        # the edge state first, in the middle, and alone in a one-state last chunk
        monkeypatch.setattr(dynamics, "STATE_CHUNK", chunk)
        monkeypatch.setattr(dynamics, "SWEEP_MIN_STATES", 0)
        shift = dynamics._POSITIVITY_SHIFT * np.eye(dim)
        for lowest, _ in CERTIFICATE_EDGE:
            for where in (0, chunk // 2, 2 * chunk):
                states = np.array([_rotated_states(rng, dim, 0.01) for _ in range(2 * chunk + 1)])
                states[where] = _rotated_states(rng, dim, lowest)
                try:
                    np.linalg.cholesky(states + shift)
                    want = True
                except np.linalg.LinAlgError:
                    want = False
                assert dynamics._certified(states) is want
        # a pivot of exactly 0 fails, as in LAPACK
        c = dynamics._POSITIVITY_SHIFT
        states = np.array([_rotated_states(rng, dim, 0.01) for _ in range(2 * chunk + 1)])
        states[-1] = np.diag([-c] + [(1.0 + c) / (dim - 1)] * (dim - 1))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(states + shift)
        assert dynamics._certified(states) is False

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_sweep_bitwise_equal_to_full_block_reference(self, rng, dim):
        # the reference updates the whole trailing block at every column; the
        # sweep updates its lower triangle, the only part any column reads
        def full_block_reference(a):
            d = a.shape[0]
            a.reshape(d * d, -1)[:: d + 1] += dynamics._POSITIVITY_SHIFT
            for j in range(d):
                pivot = a[j, j].real
                if not pivot.min() > 0.0:
                    return False
                if j + 1 < d:
                    col = a[j + 1 :, j]
                    col *= 1.0 / np.sqrt(pivot)
                    a[j + 1 :, j + 1 :] -= col[:, None] * col[None].conj()
            return True

        lower = np.tril_indices(dim)
        for m in (1, 2, 7, 300):
            for lowest in (0.01, -1e-3):
                states = np.array([_rotated_states(rng, dim, 0.01) for _ in range(m)])
                states[m // 2] = _rotated_states(rng, dim, lowest)
                got = states.transpose(1, 2, 0).copy()
                want = got.copy()
                assert dynamics._cholesky_sweep(got) is full_block_reference(want) is (lowest > 0)
                if m > 1:
                    assert got[lower].tobytes() == want[lower].tobytes()
                else:
                    # numpy's loops then run along the rows, whose lengths
                    # differ, and may round a product in another way (a
                    # fused multiply-add); the certificate's bound covers both
                    np.testing.assert_allclose(got[lower], want[lower], rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_herm_drift_bitwise_equal_to_both_triangle_max(self, rng, monkeypatch, dim):
        # oracle: the largest |A - A^H| entry over both triangles of every
        # state, read from the trajectory in chunks of 97 states
        monkeypatch.setattr(dynamics, "STATE_CHUNK", 97)
        model = LindbladModel(
            hamiltonian=random_hermitian(rng, dim),
            lindblad_ops=(0.5 * random_complex_matrix(rng, dim),),
        )
        traj = evolve(model, random_state(rng, dim), 0.3, 1e-3)
        assert len(traj.states) >= dynamics.SWEEP_MIN_STATES
        assert "herm_drift" not in traj.__dict__
        want = np.abs(traj.states - traj.states.conj().transpose(0, 2, 1)).max()
        assert np.float64(traj.herm_drift).tobytes() == want.tobytes()
        skewed = traj.states + 1e-9 * random_complex_matrix(rng, dim)
        want = np.abs(skewed - skewed.conj().transpose(0, 2, 1)).max()
        for min_states in (0, 10**9):
            monkeypatch.setattr(dynamics, "SWEEP_MIN_STATES", min_states)
            traj = self._evolve_on(monkeypatch, skewed)
            assert "herm_drift" not in traj.__dict__
            assert np.float64(traj.herm_drift).tobytes() == want.tobytes()
            assert traj.herm_drift is traj.herm_drift

    def test_successful_evolve_makes_no_eigvalsh_call(self, monkeypatch):
        calls = []
        original = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        model, psi0 = spontaneous_emission_model(1.0)
        traj = evolve(model, psi0, 1.0, 1e-3)
        assert calls == []
        traj.min_eigs
        traj.min_eig
        traj.min_eigs
        assert len(calls) == 1

    def test_min_eigs_bitwise_equal_to_eigvalsh(self, rng, monkeypatch):
        monkeypatch.setattr(dynamics, "STATE_CHUNK", 7)
        model = LindbladModel(
            hamiltonian=random_hermitian(rng, 3),
            lindblad_ops=(0.5 * random_complex_matrix(rng, 3),),
        )
        traj = evolve(model, random_state(rng, 3), 0.1, 1e-3)
        want = np.linalg.eigvalsh(traj.states)[:, 0].real
        assert traj.min_eigs.dtype == want.dtype
        assert traj.min_eigs.tobytes() == want.tobytes()
        assert traj.min_eig == float(want.min())
        with pytest.raises(ValueError):
            traj.min_eigs[0] = 1.0

    def test_trace_failure_reports_exact_min_eig(self, rng, monkeypatch):
        states = np.array([_rotated_states(rng, 3, 0.01) for _ in range(5)])
        errors = np.zeros(5)
        errors[2] = 2e-6
        want = np.linalg.eigvalsh(states)[:, 0].min()
        with pytest.raises(IntegrationQualityError) as info:
            self._evolve_on(monkeypatch, states, errors)
        assert str(info.value) == (
            f"integration quality failure: trace drift {2e-6:.3e}, "
            f"min eigenvalue {want:.3e}; retry with a smaller dt"
        )

    def test_non_finite_trajectory_rejected(self):
        # the step overflows: every state after the first is NaN, and NaN
        # compares false against both limits
        model = LindbladModel(
            hamiltonian=np.diag([1e100, -1e100]).astype(complex),
            lindblad_ops=(1e90 * SIGMA_MINUS,),
        )
        with np.errstate(all="ignore"):
            with pytest.raises(IntegrationQualityError, match="non-finite state at t = 0.2 "):
                evolve(model, np.array([1.0, 1.0]) / np.sqrt(2.0), 1.0, 0.2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, -np.inf)])
    @pytest.mark.parametrize("where", [(0, 0), (1, 1), (0, 2), (2, 0)])
    def test_herm_drift_is_non_finite_with_any_non_finite_entry(
        self, rng, monkeypatch, bad, where
    ):
        # a non-finite entry, diagonal or not, in either triangle, fails the
        # certificate under either kernel, and the gate then names its state
        states = np.array([_rotated_states(rng, 3, 0.01) for _ in range(4)])
        for min_states in (0, 10**9):
            monkeypatch.setattr(dynamics, "SWEEP_MIN_STATES", min_states)
            assert dynamics._certified(states) is True
        states[2][where] = bad
        for min_states in (0, 10**9):
            monkeypatch.setattr(dynamics, "SWEEP_MIN_STATES", min_states)
            assert dynamics._certified(states) is False
            with pytest.raises(IntegrationQualityError, match=r"non-finite state .*\(step 2\)"):
                self._evolve_on(monkeypatch, states)

    @pytest.mark.parametrize("n", [1, 9])
    def test_gate_never_writes_to_the_states(self, rng, monkeypatch, n):
        # chunks of 4 leave one state alone in the last chunk of 9, and a
        # stack of one state is a single one-state chunk; evolve stores at
        # least two states
        monkeypatch.setattr(dynamics, "STATE_CHUNK", 4)
        monkeypatch.setattr(dynamics, "SWEEP_MIN_STATES", 0)
        states = np.array([_rotated_states(rng, 3, 0.01) for _ in range(n)])
        before = states.copy()
        dynamics._quality_gate(states, np.zeros(n), np.arange(n), np.arange(n))
        assert states.tobytes() == before.tobytes()
        if n == 1:
            return
        traj = self._evolve_on(monkeypatch, states)
        assert traj.states is states
        assert states.tobytes() == before.tobytes()

    def test_successful_evolve_makes_no_cholesky_call(self, monkeypatch):
        calls = []
        original = np.linalg.cholesky

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        model, psi0 = spontaneous_emission_model(1.0)
        evolve(model, psi0, 1.0, 1e-3)
        assert calls == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_entry_anywhere_rejected(self, rng, monkeypatch, bad):
        # eigvalsh and Cholesky read only the lower triangle; the finiteness
        # check reads every entry
        monkeypatch.setattr(dynamics, "STATE_CHUNK", 4)
        states = np.array([_rotated_states(rng, 3, 0.01) for _ in range(9)])
        states[7, 0, 2] = bad
        with pytest.raises(IntegrationQualityError, match=r"\(step 7\)"):
            self._evolve_on(monkeypatch, states)


class TestEvolve:
    def test_emission_angle_vs_fine_reference(self):
        # oracle: the same generator integrated at dt = 1e-6
        model, psi0 = spontaneous_emission_model(1.0)
        coarse = evolve(model, psi0, 1.0, 1e-4)
        fine = evolve(model, psi0, 1.0, 1e-6)
        assert abs(coarse.bures_angles[-1] - fine.bures_angles[-1]) < 1e-5
        # and against the analytic angle arccos(e^{-gamma t / 2})
        assert coarse.bures_angles[-1] == pytest.approx(
            np.arccos(np.exp(-0.5)), abs=1e-9
        )

    def test_full_rabi_flip(self):
        omega = 1.0
        model = LindbladModel(hamiltonian=0.5 * omega * SIGMA_X)
        traj = evolve(model, EXCITED, np.pi / omega, 1e-4)
        expected = np.array([[0, 0], [0, 1]], dtype=complex)
        assert linalg.frobenius_norm(traj.states[-1] - expected) < 1e-6

    def test_zero_generator_is_static(self):
        model = LindbladModel(hamiltonian=np.zeros((2, 2), dtype=complex))
        traj = evolve(model, EXCITED, 1.0, 1e-2)
        assert np.abs(traj.bures_angles).max() == 0.0
        for state in traj.states:
            np.testing.assert_allclose(state, RHO_EXCITED, atol=1e-15)

    def test_initial_angle_is_zero(self, rng):
        model = LindbladModel(
            hamiltonian=random_hermitian(rng, 3),
            lindblad_ops=(random_complex_matrix(rng, 3),),
        )
        traj = evolve(model, random_state(rng, 3), 0.5, 1e-3)
        assert abs(traj.bures_angles[0]) < 1e-9

    def test_grid_shape_and_monotonicity(self):
        model, psi0 = spontaneous_emission_model(1.0)
        traj = evolve(model, psi0, 1.0, 1e-2)
        assert len(traj.times) == len(traj.states) == len(traj.bures_angles) == 101
        assert np.all(np.diff(traj.times) > 0)

    def test_fourth_order_convergence(self):
        model, psi0 = spontaneous_emission_model(1.0)
        ref = evolve(model, psi0, 2.0, 0.02 / 16)
        errs = []
        for dt in (0.02, 0.01):
            traj = evolve(model, psi0, 2.0, dt)
            stride = len(ref.times[::1]) // len(traj.times[::1])
            stride = (len(ref.times) - 1) // (len(traj.times) - 1)
            diff = traj.states - ref.states[::stride]
            errs.append(np.sqrt((np.abs(diff) ** 2).sum(axis=(1, 2))).max())
        ratio = errs[0] / errs[1]
        assert 12.0 <= ratio <= 20.0

    def test_validation_errors(self):
        model, psi0 = spontaneous_emission_model(1.0)
        with pytest.raises(ValueError):
            evolve(model, psi0, -1.0, 1e-3)
        with pytest.raises(ValueError):
            evolve(model, psi0, 1.0, 2.0)
        with pytest.raises(ValueError):
            evolve(model, np.array([1.0, 1.0]), 1.0, 1e-3)
        with pytest.raises(DimensionMismatchError):
            evolve(model, np.array([1.0, 0.0, 0.0]), 1.0, 1e-3)

    def test_non_finite_times_rejected(self):
        model, psi0 = spontaneous_emission_model(1.0)
        message = "^t_end and dt must be positive and finite$"
        with pytest.raises(ValueError, match=message):
            evolve(model, psi0, np.inf, 1e-3)
        with pytest.raises(ValueError, match=message):
            evolve(model, psi0, np.inf, np.inf)
        with pytest.raises(ValueError, match=message):
            fisher.verify_fisher_tradeoff(model, psi0, [1e-3, np.inf], 1e-3)

    def test_unstable_step_raises_quality_error(self):
        # step size puts the decay mode at h*lambda = -4, outside the RK4
        # stability interval, so the population mode grows ~5x per step
        model, psi0 = spontaneous_emission_model(1.0)
        with pytest.raises(IntegrationQualityError):
            evolve(model, psi0, 40.0, 4.0)

    def test_diverging_run_raises_only_the_typed_error(self):
        # the step puts the dephasing mode far outside the RK4 stability
        # region; the overflow on the way must not surface as a warning
        model, psi0 = dephasing_model(DephasingQubitParams(omega=1.0, gamma=100.0, theta=np.pi / 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationQualityError, match="non-finite state"):
                evolve(model, psi0, 1.0, 0.1)

    def test_memory_budget_is_checked_before_allocating(self, monkeypatch):
        # 101 states of d = 2 take 101 * 4 * 16 = 6464 bytes
        def unreachable(*args):
            raise AssertionError("_propagate reached")

        monkeypatch.setattr(dynamics, "TRAJECTORY_BYTE_CAP", 6463)
        monkeypatch.setattr(dynamics, "_propagate", unreachable)
        model, psi0 = spontaneous_emission_model(1.0)
        with pytest.raises(ResourceLimitError, match="100 steps at d = 2 needs 6464 bytes"):
            evolve(model, psi0, 1.0, 1e-2)
        monkeypatch.setattr(dynamics, "TRAJECTORY_BYTE_CAP", 6464)
        with pytest.raises(AssertionError, match="_propagate reached"):
            evolve(model, psi0, 1.0, 1e-2)
        # a step count past the float range, which int() cannot take
        with pytest.raises(ResourceLimitError, match="^trajectory of t_end / dt = inf steps"):
            evolve(model, psi0, 1e300, 1e-10)

    def test_renormalization_counter_stays_quiet(self):
        model, psi0 = spontaneous_emission_model(1.0)
        traj = evolve(model, psi0, 1.0, 1e-3)
        assert traj.renormalizations <= 2
        assert traj.trace_drift < 1e-12


class TestTrajectoryMinEigs:
    def test_half_identity(self):
        states = np.array([0.5 * np.eye(2, dtype=complex)])
        assert dynamics._min_eigs(states)[0] == pytest.approx(0.5, abs=1e-15)

    def test_static_projector(self):
        model = LindbladModel(hamiltonian=np.zeros((2, 2), dtype=complex))
        traj = evolve(model, EXCITED, 1.0, 1e-1)
        assert np.abs(traj.min_eigs).max() <= 1e-15
        assert traj.min_eig == pytest.approx(0.0, abs=1e-15)

    def test_emission_reads_the_smaller_population(self):
        # amplitude damping keeps the state diagonal: diag(e^{-t}, 1 - e^{-t})
        model, psi0 = spontaneous_emission_model(1.0)
        traj = evolve(model, psi0, 2.0, 1e-3)
        excited = np.exp(-traj.times)
        np.testing.assert_allclose(
            traj.min_eigs, np.minimum(excited, 1.0 - excited), rtol=0.0, atol=1e-12
        )
        assert traj.min_eig == pytest.approx(0.0, abs=1e-15)

    def test_matches_characteristic_roots(self, rng):
        # 2x2 Hermitian eigenvalues from the quadratic formula
        states = np.array([random_hermitian(rng, 2) for _ in range(20)])
        tr = np.trace(states, axis1=1, axis2=2).real
        det = np.linalg.det(states).real
        lo = 0.5 * (tr - np.sqrt(tr * tr - 4.0 * det))
        np.testing.assert_allclose(dynamics._min_eigs(states), lo, rtol=0.0, atol=1e-10)


class TestBuresAngles:
    def test_computed_on_first_read_and_cached(self, rng):
        model = LindbladModel(
            hamiltonian=random_hermitian(rng, 3),
            lindblad_ops=(0.5 * random_complex_matrix(rng, 3),),
        )
        # a start whose Tr(rho0^2) rounds below 1, so the pinned k = 0 overlap shows
        for _ in range(100):
            traj = evolve(model, random_state(rng, 3), 1.0, 1e-3)
            overlaps = np.real(
                traj.states.reshape(len(traj.times), -1) @ traj.rho0.reshape(-1).conj()
            )
            if overlaps[0] < 1.0:
                break
        else:
            pytest.fail("every start gave Tr(rho0^2) = 1 exactly")
        assert "bures_angles" not in traj.__dict__
        overlaps[0] = 1.0
        want = np.arccos(np.sqrt(np.clip(overlaps, 0.0, 1.0)))
        angles = traj.bures_angles
        assert "bures_angles" in traj.__dict__
        assert traj.bures_angles is angles
        assert angles[0] == 0.0
        assert angles.dtype == want.dtype
        assert angles.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            angles[1] = 0.0

    def test_fisher_check_never_reads_the_angles(self, rng, monkeypatch):
        runs = []

        def recording(*args):
            runs.append(evolve(*args))
            return runs[-1]

        monkeypatch.setattr(fisher, "evolve", recording)
        model = LindbladModel(
            hamiltonian=random_hermitian(rng, 2),
            lindblad_ops=(0.5 * random_complex_matrix(rng, 2),),
        )
        fisher.verify_fisher_tradeoff(model, random_state(rng, 2), [1e-3, 1e-2], 1e-3)
        assert len(runs) == 1
        assert "bures_angles" not in runs[0].__dict__

    def test_emission_angle_on_every_grid_point(self):
        # oracle: arccos(sqrt(Tr(rho0 rho_t))) = arccos(e^{-gamma t / 2})
        model, psi0 = spontaneous_emission_model(1.0)
        traj = evolve(model, psi0, 2.0, 1e-3)
        np.testing.assert_allclose(
            traj.bures_angles, np.arccos(np.exp(-0.5 * traj.times)), rtol=0.0, atol=1e-9
        )

    def test_rabi_angle_is_half_the_rotation(self):
        # closed Rabi drive: overlap cos^2(omega t / 2), so the angle is omega t / 2
        omega = 1.0
        model = LindbladModel(hamiltonian=0.5 * omega * SIGMA_X)
        traj = evolve(model, EXCITED, 3.0, 1e-3)
        inner = (traj.times > 0.2) & (traj.times < 2.9)
        np.testing.assert_allclose(
            traj.bures_angles[inner], 0.5 * omega * traj.times[inner], rtol=0.0, atol=1e-9
        )

    def test_depolarized_angle_tends_to_pi_over_4(self):
        # Bloch vector decays as e^{-4 gamma t}: the state tends to I/2,
        # whose angle to any pure state is arccos(sqrt(1/2))
        ops = tuple(np.sqrt(0.5) * s for s in (SIGMA_X, SIGMA_Y, SIGMA_Z))
        model = LindbladModel(hamiltonian=np.zeros((2, 2), dtype=complex), lindblad_ops=ops)
        traj = evolve(model, EXCITED, 12.0, 1e-2)
        assert np.all(np.diff(traj.bures_angles) >= 0.0)
        assert traj.bures_angles[-1] == pytest.approx(np.pi / 4, abs=1e-9)

    def test_partial_step_angle_matches_the_grid(self, rng):
        # a grid angle is first reached at its grid time; a target between two
        # grid angles is reached where the four-stage step from the earlier
        # state reaches it
        model = LindbladModel(
            hamiltonian=random_hermitian(rng, 3),
            lindblad_ops=(0.5 * random_complex_matrix(rng, 3),),
        )
        traj = evolve(model, random_state(rng, 3), 0.5, 1e-2)
        angles = traj.bures_angles
        rho0_flat = traj.rho0.reshape(-1).conj()
        for k in (0, 10, 40):
            assert np.all(np.diff(angles[: k + 2]) > 0.0)
            assert first_passage_time(traj, angles[k + 1]) == pytest.approx(
                traj.times[k + 1], rel=0.0, abs=dynamics.FIRST_PASSAGE_RESOLUTION
            )
            target = 0.5 * (angles[k] + angles[k + 1])
            t = first_passage_time(traj, target)
            assert traj.times[k] < t < traj.times[k + 1]
            rho = four_stage_step(model, traj.states[k], t - traj.times[k])
            angle = np.arccos(np.sqrt(np.real(rho.reshape(-1) @ rho0_flat)))
            assert angle == pytest.approx(target, rel=0.0, abs=1e-7)


def _four_stage_first_passage(traj, target):
    """first_passage_time's scan, borderline rule and bisection, with every
    bisection step a four-stage RK4 step from the bracketing state; None when
    the target is never reached."""
    above = traj.bures_angles >= target
    if not above.any():
        return None
    idx = int(np.argmax(above))
    if idx == 0:
        return 0.0
    rho_start = traj.states[idx - 1]
    rho0_flat = traj.rho0.reshape(-1).conj()

    def angle(tau):
        rho = four_stage_step(traj.model, rho_start, tau)
        f = float(np.real(rho.reshape(-1) @ rho0_flat))
        return float(np.arccos(np.sqrt(min(max(f, 0.0), 1.0))))

    h = float(traj.times[idx] - traj.times[idx - 1])
    if angle(h) < target:
        return float(traj.times[idx])
    lo, hi = 0.0, h
    while hi - lo > dynamics.FIRST_PASSAGE_RESOLUTION:
        mid = 0.5 * (lo + hi)
        if angle(mid) >= target:
            hi = mid
        else:
            lo = mid
    return float(traj.times[idx - 1] + 0.5 * (lo + hi))


def _count_generator_products(model):
    """Swap the model's cached Liouvillian for a view that records every
    matrix product taken with it (or with its transpose); returns the record."""
    products = []

    class Counting(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                products.append(method)

            def plain(arrays):
                return tuple(a.view(np.ndarray) if isinstance(a, Counting) else a for a in arrays)

            if "out" in kwargs:
                kwargs["out"] = plain(kwargs["out"])
            return getattr(ufunc, method)(*plain(inputs), **kwargs)

    model.__dict__["liouvillian"] = model.liouvillian.view(Counting)
    return products


def _count_rhs_calls(monkeypatch):
    """Record every lindblad_rhs call the integrator makes from now on."""
    calls = []
    original = dynamics.lindblad_rhs

    def counting(model, rho):
        calls.append(rho.shape)
        return original(model, rho)

    monkeypatch.setattr(dynamics, "lindblad_rhs", counting)
    return calls


class TestTaylorTerms:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 25])
    def test_partial_steps_match_four_stage_form(self, dim):
        rng = np.random.default_rng(dim)
        model, _ = verify.random_model(rng, dim)
        states = np.array([linalg.projector(random_state(rng, dim)) for _ in range(4)])
        taus = np.array([1e-4, 3.7e-3, 0.02, 0.11])
        terms = dynamics._taylor_terms(model, states.reshape(4, -1))
        assert terms.shape == (5, 4, dim * dim)
        got = dynamics._partial_steps(terms, taus[:, None]).reshape(4, dim, dim)
        for g, rho, tau in zip(got, states, taus):
            want = four_stage_step(model, rho, tau)
            assert np.abs(g - want).max() <= 1e-13 * np.abs(want).max()
        # above the limit the generator is applied by lindblad_rhs, and the
        # d^2 x d^2 superoperator is never built
        assert ("liouvillian" in model.__dict__) == (dim <= dynamics.SUPEROP_DIM_LIMIT)

    def test_propagation_above_the_limit_matches_four_stage_chain(self, rng, monkeypatch):
        monkeypatch.setattr(dynamics, "SUPEROP_DIM_LIMIT", 0)
        model, psi0 = verify.random_model(rng, 3)
        rho0 = linalg.projector(psi0)
        states, _, _ = dynamics._propagate(model, rho0, 20, 1e-2)
        ref = [rho0]
        for _ in range(20):
            ref.append(four_stage_step(model, ref[-1], 1e-2))
        np.testing.assert_allclose(states, np.array(ref), rtol=0.0, atol=1e-13)

    def test_first_passage_matches_four_stage_bisection(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(50):
            model, psi0 = verify.random_model(rng, int(rng.choice(verify.BOUND_DIMS)))
            traj = evolve(model, psi0, 4.0, 2e-3)
            for target in verify.TARGETS:
                want = _four_stage_first_passage(traj, target)
                if want is None:
                    with pytest.raises(UnreachableTargetError):
                        first_passage_time(traj, target)
                    continue
                assert abs(first_passage_time(traj, target) - want) <= 1e-9
                checked += 1
        assert checked >= 100


class TestGeneratorApplications:
    # Partial steps are taken from four generator applications per state,
    # however many steps are then read off them; per-step integration would
    # multiply these counts by the bisection depth or the grid size.
    GRID = np.array([4e-4, 1e-3, 2.7e-3, 1e-2, 3.16e-2, 0.1, 0.137])

    def test_first_passage_makes_four_products(self, monkeypatch):
        model, psi0 = verify.random_model(np.random.default_rng(3), 3)
        traj = evolve(model, psi0, 6.0, 1e-2)
        products = _count_generator_products(model)
        rhs = _count_rhs_calls(monkeypatch)
        for target in (0.2, 0.5, 0.8):
            del products[:]
            first_passage_time(traj, target)
            assert products == ["__call__"] * 4
        assert rhs == []

    def test_states_at_makes_four_products_for_the_whole_grid(self, monkeypatch):
        model, psi0 = verify.random_model(np.random.default_rng(4), 4)
        traj = evolve(model, psi0, self.GRID[-1], 1e-3)
        products = _count_generator_products(model)
        rhs = _count_rhs_calls(monkeypatch)
        dynamics._states_at(traj, self.GRID)
        assert products == ["__call__"] * 4
        assert rhs == []

    def test_four_rhs_calls_per_state_above_the_limit(self, monkeypatch):
        monkeypatch.setattr(dynamics, "SUPEROP_DIM_LIMIT", 0)
        model, psi0 = verify.random_model(np.random.default_rng(5), 2)
        traj = evolve(model, psi0, 6.0, 1e-2)
        rhs = _count_rhs_calls(monkeypatch)
        for target in (0.2, 0.5):
            del rhs[:]
            first_passage_time(traj, target)
            assert len(rhs) == 4
        del rhs[:]
        samples = dynamics._states_at(traj, self.GRID)
        off_lattice = int(np.sum(np.abs(self.GRID / traj.dt - np.round(self.GRID / traj.dt)) > 1e-9))
        assert len(rhs) == 4 * off_lattice
        assert "liouvillian" not in model.__dict__
        assert samples.shape == (len(self.GRID), 2, 2)


class TestFirstPassage:
    def test_emission_matches_closed_form(self):
        model, psi0 = spontaneous_emission_model(1.0)
        traj = evolve(model, psi0, 2.0, 1e-3)
        target = np.pi / 4
        expected = -np.log(np.cos(target) ** 2)
        t = first_passage_time(traj, target)
        assert t == pytest.approx(expected, abs=1e-7)
        assert t >= t_qsl(compute_quantities(model, psi0), target) - 1e-9

    def test_target_inside_first_step(self):
        model, psi0 = spontaneous_emission_model(1.0)
        traj = evolve(model, psi0, 1.0, 1e-2)
        # angle halfway through the first step, from the analytic inverse
        target = np.arccos(np.exp(-0.5 * 0.004))
        t = first_passage_time(traj, target)
        assert 0.0 < t < traj.times[1]
        assert t == pytest.approx(0.004, abs=1e-7)

    def test_rabi_first_crossing_is_earliest(self):
        # analytic Rabi oracle: Theta(t) = arccos(|cos(omega t / 2)|), so the
        # first crossing of target is at t = 2 arcsin(sin(target)) / omega
        omega = 1.0
        model = LindbladModel(hamiltonian=0.5 * omega * SIGMA_X)
        traj = evolve(model, EXCITED, 10.0, 1e-3)
        target = 0.3
        expected = 2.0 * np.arcsin(np.sin(target)) / omega
        assert first_passage_time(traj, target) == pytest.approx(expected, abs=1e-7)

    def test_near_orthogonal_rabi_target(self):
        # analytic flip time: |cos(t/2)| = cos(target) gives t = pi - 2e-5
        omega = 1.0
        model = LindbladModel(hamiltonian=0.5 * omega * SIGMA_X)
        traj = evolve(model, EXCITED, 4.0, 1e-4)
        target = np.pi / 2 - 1e-5
        t = first_passage_time(traj, target)
        assert t == pytest.approx(np.pi - 2e-5, abs=1e-6)
        assert t >= t_qsl(compute_quantities(model, EXCITED), target) - 1e-9

    def test_unreachable_target(self):
        # dephasing saturates the angle at pi/4 for the theta = pi/4 state
        from openqsl.models import DephasingQubitParams, dephasing_model

        model, psi0 = dephasing_model(DephasingQubitParams(omega=1.0, gamma=1.0, theta=np.pi / 4))
        traj = evolve(model, psi0, 20.0, 1e-3)
        with pytest.raises(UnreachableTargetError):
            first_passage_time(traj, 1.5)

    def test_step_without_floats_between_bisection_ends(self):
        # Near a step of 1e9 floats lie 1.2e-7 apart, so bisection ends 1e-8
        # apart never meet; it stops at adjacent floats. A child process with
        # a timeout turns a hang into a failure.
        code = (
            "from openqsl import evolve, first_passage_time, spontaneous_emission_model\n"
            "traj = evolve(*spontaneous_emission_model(1e-13), 1e14, 1e9)\n"
            "print(repr(first_passage_time(traj, 0.5)))\n"
        )
        src = os.path.dirname(os.path.dirname(dynamics.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=10
        )
        assert out.returncode == 0, out.stderr
        # the closed form -ln(cos^2 Theta)/gamma, to the resolution of the grid
        assert float(out.stdout) * 1e-13 == pytest.approx(-np.log(np.cos(0.5) ** 2), abs=1e-7)

    def test_domain_validation(self):
        model, psi0 = spontaneous_emission_model(1.0)
        traj = evolve(model, psi0, 1.0, 1e-2)
        with pytest.raises(ValueError):
            first_passage_time(traj, 0.0)
        with pytest.raises(ValueError):
            first_passage_time(traj, np.pi / 2)


class TestThetaDotExact:
    def test_matches_finite_difference_on_emission(self):
        model, psi0 = spontaneous_emission_model(1.0)
        traj = evolve(model, psi0, 1.0, 1e-4)
        k = 1000  # t = 0.1
        fd = (traj.bures_angles[k + 1] - traj.bures_angles[k - 1]) / (2 * traj.dt)
        exact = theta_dot_exact(model, traj.rho0, traj.states[k], traj.bures_angles[k])
        assert exact == pytest.approx(fd, abs=1e-5)

    def test_matches_finite_difference_along_presets(self):
        from openqsl.models import DephasingQubitParams, dephasing_model

        presets = [
            spontaneous_emission_model(1.0),
            dephasing_model(DephasingQubitParams(omega=1.0, gamma=1.0, theta=np.pi / 4)),
        ]
        for model, psi0 in presets:
            traj = evolve(model, psi0, 2.0, 1e-4)
            # stay clear of theta ~ 0, where theta grows like sqrt(t) and the
            # centered difference loses accuracy to the diverging derivatives
            interior = [
                k
                for k in range(1, len(traj.times) - 1)
                if 0.3 < traj.bures_angles[k] < np.pi / 2 - 0.05
            ]
            assert len(interior) >= 50
            step = max(1, len(interior) // 50)
            for k in interior[::step][:50]:
                fd = (traj.bures_angles[k + 1] - traj.bures_angles[k - 1]) / (2 * traj.dt)
                exact = theta_dot_exact(
                    model, traj.rho0, traj.states[k], traj.bures_angles[k]
                )
                assert exact == pytest.approx(fd, abs=1e-5)

    def test_closed_system_reduction(self, rng):
        # without jump operators only the commutator term contributes
        h = random_hermitian(rng, 2)
        model = LindbladModel(hamiltonian=h)
        psi = random_state(rng, 2)
        traj = evolve(model, psi, 1.0, 1e-3)
        k = 500
        theta = traj.bures_angles[k]
        if not (1e-6 < theta < np.pi / 2 - 1e-6):
            pytest.skip("random draw sat on a singular point")
        expected = float(
            np.real(
                linalg.trace_product(
                    1j * linalg.commutator(traj.rho0, h), traj.states[k]
                )
            )
        ) / np.sin(2 * theta)
        got = theta_dot_exact(model, traj.rho0, traj.states[k], theta)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_one_channel_is_bitwise_the_adjoint_dissipator_form(self, rng):
        for dim in range(2, 7):
            op = random_complex_matrix(rng, dim)
            model = LindbladModel(hamiltonian=random_hermitian(rng, dim), lindblad_ops=(op,))
            rho0 = linalg.projector(random_state(rng, dim))
            states = np.array([linalg.projector(random_state(rng, dim)) for _ in range(5)])
            thetas = np.linspace(0.2, 1.2, 5)
            w = 1j * linalg.commutator(rho0, model.hamiltonian) - adjoint_dissipator(op, rho0)
            want = (states.reshape(5, -1) @ w.T.reshape(-1)).real / np.sin(2.0 * thetas)
            assert theta_dot_exact(model, rho0, states, thetas).tobytes() == want.tobytes()

    def test_singular_points_rejected(self):
        model, psi0 = spontaneous_emission_model(1.0)
        rho0 = linalg.projector(psi0)
        with pytest.raises(SingularPointError):
            theta_dot_exact(model, rho0, rho0, 1e-9)
        with pytest.raises(SingularPointError):
            theta_dot_exact(model, rho0, rho0, np.pi / 2 - 1e-9)

    @staticmethod
    def _preset_window(model, psi0, dt, t_end):
        traj = evolve(model, psi0, t_end, dt)
        ks = [k for k in range(1, len(traj.times)) if 0.05 < traj.bures_angles[k] < 1.5]
        return traj, ks

    @pytest.mark.parametrize("preset", ["emission", "dephasing", "product"])
    def test_stack_matches_per_state_calls(self, preset):
        model, psi0 = {
            "emission": lambda: spontaneous_emission_model(1.0),
            "dephasing": lambda: dephasing_model(
                DephasingQubitParams(omega=1.0, gamma=1.0, theta=np.pi / 4)
            ),
            "product": lambda: product_model_dense(
                ProductModelParams(n=3, omega=1.0, gamma=1.0, theta=np.pi / 4)
            ),
        }[preset]()
        traj, ks = self._preset_window(model, psi0, 1e-2, 4.0)
        assert len(ks) >= 50
        stacked = theta_dot_exact(model, traj.rho0, traj.states[ks], traj.bures_angles[ks])
        single = [theta_dot_exact(model, traj.rho0, traj.states[k], traj.bures_angles[k]) for k in ks]
        assert all(isinstance(rate, float) for rate in single)
        single = np.array(single)
        assert stacked.shape == (len(ks),)
        if preset == "emission":
            # W is diagonal there, so both sums add the same two products.
            assert stacked.tobytes() == single.tobytes()
        np.testing.assert_allclose(stacked, single, rtol=1e-14, atol=0.0)

    def test_singular_angle_in_stack_is_named(self):
        model, psi0 = spontaneous_emission_model(1.0)
        traj, ks = self._preset_window(model, psi0, 1e-2, 2.0)
        thetas = traj.bures_angles[ks].copy()
        for bad in (1e-9, np.pi / 2 - 1e-9, np.nan):
            thetas[7] = bad
            with pytest.raises(SingularPointError, match=re.escape(f"theta = {bad:.3e} ")):
                theta_dot_exact(model, traj.rho0, traj.states[ks], thetas)

    def test_empty_stack_gives_no_rates(self):
        # a trajectory with no angle inside verify's window
        model, psi0 = spontaneous_emission_model(1.0)
        traj = evolve(model, psi0, 0.1, 1e-2)
        rates = theta_dot_exact(model, traj.rho0, traj.states[:0], traj.bures_angles[:0])
        assert rates.shape == (0,)

    def test_stack_length_must_match_angles(self):
        model, psi0 = spontaneous_emission_model(1.0)
        traj, ks = self._preset_window(model, psi0, 1e-2, 2.0)
        with pytest.raises(DimensionMismatchError):
            theta_dot_exact(model, traj.rho0, traj.states[ks], traj.bures_angles[ks][:-1])
        with pytest.raises(DimensionMismatchError):
            theta_dot_exact(model, traj.rho0, traj.states[ks], float(traj.bures_angles[ks[0]]))
