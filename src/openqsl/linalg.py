"""Dense complex matrix kernels used by every other module.

Operators and states are plain numpy arrays: small dense complex square
matrices (dim <= 4096) and state vectors. There is deliberately no sparse
path and no general-purpose decomposition layer; the handful of exact
operations below is the whole kernel surface.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NonHermitianError, ResourceLimitError

# Validation tolerances, shared package-wide. Functions that consume them
# accept overrides, so callers can tighten or relax per use.
HERM_TOL = 1e-10
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


def kron(a: np.ndarray, b: np.ndarray, dim_cap: int = KRON_DIM_CAP) -> np.ndarray:
    """Kronecker product, refusing results above the dense-size cap."""
    out_dim = a.shape[0] * b.shape[0]
    if out_dim > dim_cap:
        raise ResourceLimitError(
            f"kron result dimension {out_dim} exceeds dense cap {dim_cap}"
        )
    return np.kron(a, b)


def hermiticity_deviation(m: np.ndarray) -> float:
    """Largest entrywise deviation of m from its conjugate transpose."""
    return float(np.abs(m - m.conj().T).max())


def min_eigenvalue_hermitian(m: np.ndarray, herm_tol: float = 1e-8) -> float:
    """Smallest eigenvalue of the Hermitian part of m.

    The input must be Hermitian within ``herm_tol``; the eigenvalue is then
    computed from (m + m^dag)/2 so that float-level asymmetry cannot leak
    into the spectrum.
    """
    dev = hermiticity_deviation(m)
    if dev > herm_tol:
        raise NonHermitianError(
            f"matrix deviates from Hermitian by {dev:.3e} (tol {herm_tol:g})"
        )
    h = 0.5 * (m + m.conj().T)
    return float(np.linalg.eigvalsh(h)[0])


def pure_state(amplitudes, norm_tol: float = STATE_NORM_TOL) -> np.ndarray:
    """Validate a normalized state vector; returns it as a complex ndarray."""
    psi = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if psi.size < 1:
        raise DimensionMismatchError("state vector is empty")
    nrm = float(np.linalg.norm(psi))
    if abs(nrm - 1.0) > norm_tol:
        raise ValueError(f"state norm {nrm!r} differs from 1 beyond {norm_tol:g}")
    return psi


def projector(psi: np.ndarray) -> np.ndarray:
    """Rank-one density matrix |psi><psi|."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    return np.outer(psi, psi.conj())


def validate_density_matrix(
    rho,
    herm_tol: float = HERM_TOL,
    trace_tol: float = TRACE_TOL,
    pos_tol: float = POS_TOL,
) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity; return the array."""
    rho = as_matrix(rho)
    dev = hermiticity_deviation(rho)
    if dev > herm_tol:
        raise NonHermitianError(
            f"density matrix deviates from Hermitian by {dev:.3e} (tol {herm_tol:g})"
        )
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"density matrix trace {tr} differs from 1 beyond {trace_tol:g}")
    lo = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    if lo < -pos_tol:
        raise ValueError(f"density matrix eigenvalue {lo:.3e} below -{pos_tol:g}")
    return rho
