import numpy as np
import pytest

from openqsl import linalg
from openqsl.errors import DimensionMismatchError, ResourceLimitError
from openqsl.models import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z

from conftest import random_complex_matrix, random_hermitian


class TestFrobeniusNorm:
    def test_zero_matrix(self):
        assert linalg.frobenius_norm(np.zeros((2, 2), dtype=complex)) == 0.0

    @pytest.mark.parametrize("dim", [1, 2, 3, 7])
    def test_identity(self, dim):
        assert linalg.frobenius_norm(np.eye(dim, dtype=complex)) == pytest.approx(
            np.sqrt(dim), abs=1e-14
        )

    def test_offdiagonal_flip_difference(self):
        # entrywise: two entries of magnitude sin(pi/2) = 1 -> sqrt(2)
        theta = np.pi / 2
        m = np.array([[0.0, -np.sin(theta)], [-np.sin(theta), 0.0]], dtype=complex)
        expected = np.sqrt(sum(abs(x) ** 2 for x in m.reshape(-1)))
        assert linalg.frobenius_norm(m) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(np.sqrt(2.0), abs=1e-15)


class TestTraceProduct:
    def test_identity_pair(self):
        eye = np.eye(2, dtype=complex)
        assert linalg.trace_product(eye, eye) == pytest.approx(2.0)

    def test_pure_state_purity(self, rng):
        for dim in (2, 3, 5):
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi /= np.linalg.norm(psi)
            rho = linalg.projector(psi)
            assert linalg.trace_product(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_pauli_orthogonality(self):
        assert abs(linalg.trace_product(SIGMA_X, SIGMA_Y)) < 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            linalg.trace_product(np.eye(2, dtype=complex), np.eye(3, dtype=complex))

    def test_matches_full_product(self, rng):
        a = random_complex_matrix(rng, 4)
        b = random_complex_matrix(rng, 4)
        assert linalg.trace_product(a, b) == pytest.approx(np.trace(a @ b), abs=1e-12)


class TestCommutator:
    def test_self_commutator_vanishes(self):
        assert np.abs(linalg.commutator(SIGMA_X, SIGMA_X)).max() == 0.0

    def test_pauli_algebra(self):
        np.testing.assert_allclose(
            linalg.commutator(SIGMA_X, SIGMA_Y), 2j * SIGMA_Z, atol=1e-15
        )

    def test_hand_multiplied_projector(self):
        # H = sigma_x/2, rho = |0><0|: H rho = [[0,0],[1/2,0]], rho H = [[0,1/2],[0,0]]
        h = 0.5 * SIGMA_X
        rho = np.array([[1, 0], [0, 0]], dtype=complex)
        expected = np.array([[0.0, -0.5], [0.5, 0.0]], dtype=complex)
        np.testing.assert_allclose(linalg.commutator(h, rho), expected, atol=1e-15)

    def test_antisymmetry(self, rng):
        for dim in (2, 3, 4, 6):
            a = random_complex_matrix(rng, dim)
            b = random_complex_matrix(rng, dim)
            np.testing.assert_allclose(
                linalg.commutator(a, b), -linalg.commutator(b, a), atol=1e-12
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            linalg.commutator(SIGMA_X, np.eye(3, dtype=complex))


class TestKron:
    def test_identity_pair(self):
        np.testing.assert_array_equal(
            linalg.kron(IDENTITY_2, IDENTITY_2), np.eye(4, dtype=complex)
        )

    def test_sigma_z_with_identity(self):
        np.testing.assert_array_equal(
            linalg.kron(SIGMA_Z, IDENTITY_2), np.diag([1, 1, -1, -1]).astype(complex)
        )

    def test_involution(self):
        xx = linalg.kron(SIGMA_X, SIGMA_X)
        np.testing.assert_allclose(xx @ xx, np.eye(4, dtype=complex), atol=1e-15)

    def test_dimension_cap(self):
        big = np.eye(128, dtype=complex)
        with pytest.raises(ResourceLimitError):
            linalg.kron(big, np.eye(64, dtype=complex))
        # 64 * 64 = 4096 is exactly at the default cap and allowed
        out = linalg.kron(np.eye(64, dtype=complex), np.eye(64, dtype=complex))
        assert out.shape == (4096, 4096)

    def test_bitwise_equal_to_numpy_on_model_pairs(self, rng):
        # The pairs models._site_operator builds for up to 6 qubits:
        # 2^s x 2^s with a 2 x 2 site operator, then with 2^r x 2^r.
        for s in range(6):
            for r in range(6 - s):
                for a, b in (
                    (random_complex_matrix(rng, 2**s), random_complex_matrix(rng, 2)),
                    (random_complex_matrix(rng, 2 ** (s + 1)), random_complex_matrix(rng, 2**r)),
                ):
                    got, want = linalg.kron(a, b), np.kron(a, b)
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()

    def test_bitwise_equal_to_numpy_on_rectangular_pairs(self, rng):
        for _ in range(50):
            p, q, r, s = rng.integers(1, 9, size=4)
            a = rng.normal(size=(p, q)) + 1j * rng.normal(size=(p, q))
            b = rng.normal(size=(r, s))
            for x, y in ((a, b), (b, a)):
                got, want = linalg.kron(x, y), np.kron(x, y)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    def test_associativity(self, rng):
        a = random_complex_matrix(rng, 2)
        b = random_complex_matrix(rng, 3)
        c = random_complex_matrix(rng, 2)
        np.testing.assert_allclose(
            linalg.kron(linalg.kron(a, b), c),
            linalg.kron(a, linalg.kron(b, c)),
            atol=1e-12,
        )


class TestHermiticityDeviation:
    def test_hermitian_matrices_read_zero(self, rng):
        for dim in (1, 2, 3, 5):
            assert linalg.hermiticity_deviation(random_hermitian(rng, dim)) == 0.0

    def test_paulis_read_zero(self):
        for m in (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z):
            assert linalg.hermiticity_deviation(m) == 0.0

    def test_off_diagonal_asymmetry(self):
        raising = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        assert linalg.hermiticity_deviation(raising) == 1.0
        m = np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex)
        assert linalg.hermiticity_deviation(m) == pytest.approx(0.2, abs=1e-15)

    def test_imaginary_diagonal(self):
        m = np.diag([0.5j, 1.0]).astype(complex)
        assert linalg.hermiticity_deviation(m) == 1.0

    def test_stack_reads_the_largest_over_its_matrices(self, rng):
        for dim in (1, 2, 3, 5):
            stack = np.array([random_complex_matrix(rng, dim) for _ in range(7)])
            want = max(linalg.hermiticity_deviation(m) for m in stack)
            assert linalg.hermiticity_deviation(stack) == want
            assert linalg.hermiticity_deviation(stack.reshape(7, 1, dim, dim)) == want


class TestNormIdentities:
    def test_parallelogram_with_cross_term(self, rng):
        for dim in (2, 3, 4, 5, 6):
            a = random_complex_matrix(rng, dim)
            b = random_complex_matrix(rng, dim)
            lhs = linalg.frobenius_norm(a + b) ** 2
            cross = np.real(linalg.trace_product(a.conj().T, b))
            rhs = linalg.frobenius_norm(a) ** 2 + linalg.frobenius_norm(b) ** 2 + 2 * cross
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_cauchy_schwarz(self, rng):
        for dim in (2, 3, 4, 5, 6):
            for _ in range(20):
                a = random_complex_matrix(rng, dim)
                b = random_complex_matrix(rng, dim)
                lhs = abs(linalg.trace_product(a, b))
                assert lhs <= linalg.frobenius_norm(a) * linalg.frobenius_norm(b) + 1e-10


class TestStateValidation:
    def test_pure_state_accepts_normalized(self, rng):
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi /= np.linalg.norm(psi)
        out = linalg.pure_state(psi)
        assert out.dtype == complex

    def test_pure_state_returns_the_unit_vector(self, rng):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        for scale in (1.0 - 9.99e-13, 1.0 + 9.99e-13):
            out = linalg.pure_state(scale * psi)
            assert abs(np.linalg.norm(out) - 1.0) <= 4e-16
            np.testing.assert_allclose(out, psi, rtol=2e-15, atol=0.0)

    def test_pure_state_rejects_denormalized(self):
        with pytest.raises(ValueError):
            linalg.pure_state(np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    def test_pure_state_rejects_non_finite(self, bad):
        # abs(nan - 1) > tol is False, so the norm test alone lets NaN through
        for where in (0, 1):
            psi = np.array([1.0, 0.0], dtype=complex)
            psi[where] = bad
            with pytest.raises(ValueError, match="state vector has a non-finite entry"):
                linalg.pure_state(psi)

    def test_pure_state_rejects_empty(self):
        with pytest.raises(DimensionMismatchError):
            linalg.pure_state(np.array([], dtype=complex))

    def test_projector_is_a_pure_density_matrix(self, rng):
        for dim in (2, 3, 4, 6):
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            rho = linalg.projector(psi / np.linalg.norm(psi))
            assert linalg.hermiticity_deviation(rho) <= 1e-15
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
            np.testing.assert_allclose(rho @ rho, rho, atol=1e-14)
            eigs = np.linalg.eigvalsh(rho)
            np.testing.assert_allclose(eigs, [0.0] * (dim - 1) + [1.0], atol=1e-14)
