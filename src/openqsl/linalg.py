"""Dense complex matrix kernels used by every other module.

Operators and states are plain numpy arrays: small dense complex square
matrices (dim <= 4096) and state vectors. There is deliberately no sparse
path and no general-purpose decomposition layer; the handful of exact
operations below is the whole kernel surface.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NonHermitianError, ResourceLimitError

# Validation tolerances, shared package-wide.
HERM_TOL = 1e-10
# min_eigenvalue_hermitian symmetrizes its input, so it accepts a looser
# asymmetry than validate_density_matrix.
EIG_HERM_TOL = 1e-8
TRACE_TOL = 1e-10
POS_TOL = 1e-8
STATE_NORM_TOL = 1e-12
KRON_DIM_CAP = 4096


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex matrix, rejecting anything else."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    return m


def _check_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape} vs {b.shape}")


def frobenius_norm(m: np.ndarray) -> float:
    """sqrt(Tr(m^dag m)); zero iff m is the zero matrix."""
    return float(np.sqrt(np.sum(np.abs(m) ** 2)))


def trace_product(a: np.ndarray, b: np.ndarray) -> complex:
    """Tr(a b) without forming the product: sum over a[i, j] * b[j, i]."""
    _check_same_shape(a, b)
    return complex(np.einsum("ij,ji->", a, b))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b - b a; antisymmetric under argument swap."""
    _check_same_shape(a, b)
    return a @ b - b @ a


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, refusing results above KRON_DIM_CAP."""
    out_dim = a.shape[0] * b.shape[0]
    if out_dim > KRON_DIM_CAP:
        raise ResourceLimitError(
            f"kron result dimension {out_dim} exceeds dense cap {KRON_DIM_CAP}"
        )
    return np.kron(a, b)


def hermiticity_deviation(m: np.ndarray) -> float:
    """Largest entrywise deviation of m from its conjugate transpose."""
    return float(np.abs(m - m.conj().T).max())


def min_eigenvalue_hermitian(m: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part of m.

    The input must be Hermitian within ``EIG_HERM_TOL``; the eigenvalue is
    then computed from (m + m^dag)/2 so that float-level asymmetry cannot
    leak into the spectrum.
    """
    dev = hermiticity_deviation(m)
    if dev > EIG_HERM_TOL:
        raise NonHermitianError(
            f"matrix deviates from Hermitian by {dev:.3e} (tol {EIG_HERM_TOL:g})"
        )
    h = 0.5 * (m + m.conj().T)
    return float(np.linalg.eigvalsh(h)[0])


def pure_state(amplitudes) -> np.ndarray:
    """Validate a normalized state vector; returns it as a complex ndarray."""
    psi = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if psi.size < 1:
        raise DimensionMismatchError("state vector is empty")
    nrm = float(np.linalg.norm(psi))
    if abs(nrm - 1.0) > STATE_NORM_TOL:
        raise ValueError(f"state norm {nrm!r} differs from 1 beyond {STATE_NORM_TOL:g}")
    return psi


def projector(psi: np.ndarray) -> np.ndarray:
    """Rank-one density matrix |psi><psi|."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    return np.outer(psi, psi.conj())


def validate_density_matrix(rho) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity; return the array."""
    rho = as_matrix(rho)
    dev = hermiticity_deviation(rho)
    if dev > HERM_TOL:
        raise NonHermitianError(
            f"density matrix deviates from Hermitian by {dev:.3e} (tol {HERM_TOL:g})"
        )
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace {tr} differs from 1 beyond {TRACE_TOL:g}")
    lo = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    if lo < -POS_TOL:
        raise ValueError(f"density matrix eigenvalue {lo:.3e} below -{POS_TOL:g}")
    return rho
