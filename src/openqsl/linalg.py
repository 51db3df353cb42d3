"""Dense complex matrix kernels used by every other module.

Operators and states are plain numpy arrays: small dense complex square
matrices (dim <= 4096) and state vectors. The kernel surface is input
coercion and checks (``as_matrix``, ``pure_state``, shape agreement,
finiteness, ``hermiticity_deviation``), the products the generator and the
bound are built from (``commutator``, ``trace_product``, ``kron`` under
``KRON_DIM_CAP``, ``projector``), ``frobenius_norm`` and ``root_sum_squares``,
which keeps a norm of tiny entries from underflowing. There is
deliberately no sparse path and no decomposition layer: positivity of
integrated states is checked in ``dynamics``, where the states are.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DimensionMismatchError, ResourceLimitError

STATE_NORM_TOL = 1e-12
KRON_DIM_CAP = 4096
# A sum of squares below this may have lost entries to underflow (x^2 is 0
# for |x| under about 1.5e-162) or bits to subnormal squares.
TINY_SQUARE_SUM = sys.float_info.min / sys.float_info.epsilon


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex matrix, rejecting anything else."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    return m


def _check_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape} vs {b.shape}")


def root_sum_squares(total: float, x: np.ndarray) -> float:
    """sqrt(total), where ``total`` is the sum of |x_i|^2 as the caller
    summed it. A total under TINY_SQUARE_SUM while some x_i is nonzero is
    summed again on x divided by its largest |x_i|, and the root scaled back."""
    if total < TINY_SQUARE_SUM:
        scaled = np.abs(x)
        big = float(scaled.max(initial=0.0))
        if big > 0.0:
            scaled /= big
            return big * math.sqrt(float((scaled * scaled).sum()))
    return math.sqrt(total)


def frobenius_norm(m: np.ndarray) -> float:
    """sqrt(Tr(m^dag m)); zero iff m is the zero matrix, also for entries
    whose squares underflow."""
    return root_sum_squares(float((np.abs(m) ** 2).sum()), m)


def trace_product(a: np.ndarray, b: np.ndarray) -> complex:
    """Tr(a b) without forming the product: sum over a[i, j] * b[j, i]."""
    _check_same_shape(a, b)
    return complex(np.einsum("ij,ji->", a, b))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b - b a; antisymmetric under argument swap."""
    _check_same_shape(a, b)
    return a @ b - b @ a


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices, refusing results above KRON_DIM_CAP;
    one broadcast product of the same entries a[i, j] * b[k, l], bitwise np.kron."""
    (p, q), (r, s) = a.shape, b.shape
    if p * r > KRON_DIM_CAP:
        raise ResourceLimitError(f"kron result dimension {p * r} exceeds dense cap {KRON_DIM_CAP}")
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(p * r, q * s)


def _check_finite(a: np.ndarray, name: str) -> None:
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has a non-finite entry")


def hermiticity_deviation(m: np.ndarray) -> float:
    """Largest entrywise deviation of m from its conjugate transpose; for a
    stack of matrices (..., d, d), the largest over all of them."""
    return float(np.abs(m - m.conj().swapaxes(-1, -2)).max())


def pure_state(amplitudes) -> np.ndarray:
    """Validate a state vector of norm 1 within STATE_NORM_TOL; returns it
    divided by its norm, as a complex ndarray, so that every caller works
    on the same unit vector."""
    psi = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if psi.size < 1:
        raise DimensionMismatchError("state vector is empty")
    _check_finite(psi, "state vector")
    # numpy.linalg.norm's own formula for a complex vector, without its wrapper.
    nrm = math.sqrt(psi.real.dot(psi.real) + psi.imag.dot(psi.imag))
    if abs(nrm - 1.0) > STATE_NORM_TOL:
        raise ValueError(f"state norm {nrm!r} differs from 1 beyond {STATE_NORM_TOL:g}")
    return psi / nrm


def projector(psi: np.ndarray) -> np.ndarray:
    """Rank-one density matrix |psi><psi|."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    return psi[:, None] * psi.conj()
