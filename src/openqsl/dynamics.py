"""Lindblad generator and fixed-step RK4 trajectory integration.

The model caches K = sum_k L_k^dag L_k / 2 and the pairs (L_k, L_k^dag),
from which ``_dissipate`` alone writes the summed dissipator or its
adjoint; ``lindblad_rhs`` takes 4 + 2k matrix products for k jump
operators, 2 for a closed model. ``liouvillian_matrix`` writes the same
generator as a dense d^2 x d^2 matrix A from the same K.

A is time independent, so the classical RK4 step of size tau applied to
the linear master equation equals the degree-4 Taylor polynomial
sum_k (tau A)^k / k!. Every step is taken from the Taylor terms
T_k = A^k v / k! (k = 0..4) of the state v it starts from, as
sum_k tau^k T_k: ``_taylor_terms`` builds them for a stack of states with
four generator applications, and ``_partial_steps`` evaluates the sum in
Horner form. For small dimensions the integrator takes the step map P of
size h as the Taylor step of the d^2 basis states, so it is the same
polynomial by construction, and fills a trajectory of n steps by repeated
squaring, in O(log n + n/b) products of up to b states each
(``_propagate``). The steps of a trajectory above SUPEROP_DIM_LIMIT, the
states sampled between grid points, and the first-passage bisection, which
reads only the overlaps of the terms with the initial state, take the
Taylor step of their own states.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    IntegrationQualityError,
    NonHermitianError,
    ResourceLimitError,
    SingularPointError,
    UnreachableTargetError,
)

HAMILTONIAN_HERM_TOL = 1e-10
TRACE_DRIFT_LIMIT = 1e-6
MIN_EIG_LIMIT = -1e-5
RENORM_THRESHOLD = 1e-12
FIRST_PASSAGE_RESOLUTION = 1e-8
# Largest dimension whose d^2 x d^2 superoperator path, its d^6 build
# included, beats stepping by four lindblad_rhs calls on a 1000-step
# trajectory (measured). One-channel models set it: their call takes 6
# products with the cached K as it did with L^dag L, so the limit holds.
SUPEROP_DIM_LIMIT = 24
# Largest span of a state, the steps since its last rescaled ancestor; the
# trace rounding of P^m grows like m. On verify's 300 bound_dominance runs
# the largest trace error was 2.3e-13, 4.5e-13 and 8.4e-13 at 1024, 2048 and
# 4096, and at 1024 _propagate took 4-34% longer at d = 2..8 (measured).
SPAN = 2048
# Cost model of _chunk_steps, in complex multiply-adds (about 0.1 ns each).
# A product of m states with a d^2 x d^2 matrix costs CALL_COST (3 us) +
# (m + PACK_ROWS) d^4, as OpenBLAS copies the matrix on every call, and of
# one state GEMV_ROWS d^4. Measured at d = 12: 8.4 us for 1 state, 34 us for
# 4, 105 us for 32; at d = 24: 131 us, 382 us, 1.3 ms.
CALL_COST = 30_000
PACK_ROWS = 10
GEMV_ROWS = 3
# Cap on the entries b d^2 of a chunk (256 KiB), to stay in cache: within
# 10% of the best of 2^12 ... 2^17 at d = 2..8, n = 12 000; 2^17 was 8-42%
# slower (measured).
CHUNK_ENTRIES = 2**14
# Cap on the bytes of a trajectory's stored states, (n + 1) d^2 complex
# entries (1 GiB), checked before they are allocated.
TRAJECTORY_BYTE_CAP = 2**30


def _readonly(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LindbladModel:
    """Time-independent Markovian generator (hbar = 1).

    ``hamiltonian`` carries energy units; each entry of ``lindblad_ops``
    carries sqrt(rate) units. An empty operator list is a closed system.
    """

    hamiltonian: np.ndarray
    lindblad_ops: tuple = ()

    def __post_init__(self):
        h = linalg.as_matrix(self.hamiltonian)
        linalg._check_finite(h, "hamiltonian")
        dev = linalg.hermiticity_deviation(h)
        if dev > HAMILTONIAN_HERM_TOL:
            raise NonHermitianError(
                f"hamiltonian deviates from Hermitian by {dev:.3e} "
                f"(tol {HAMILTONIAN_HERM_TOL:g})"
            )
        ops = tuple(linalg.as_matrix(op) for op in self.lindblad_ops)
        for k, op in enumerate(ops):
            if op.shape != h.shape:
                raise DimensionMismatchError(
                    f"lindblad operator shape {op.shape} != hamiltonian {h.shape}"
                )
            linalg._check_finite(op, f"lindblad operator {k}")
        object.__setattr__(self, "hamiltonian", _readonly(h))
        object.__setattr__(self, "lindblad_ops", tuple(_readonly(op) for op in ops))

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @functools.cached_property
    def liouvillian(self) -> np.ndarray:
        """Read-only ``liouvillian_matrix(self)``, built on first use."""
        a = liouvillian_matrix(self)
        a.setflags(write=False)
        return a

    @functools.cached_property
    def _jumps(self) -> tuple:
        """(K, ((L, L^dag), ...)) with K = sum L^dag L / 2 over the jump
        operators, built on first use; K is zero for a closed model."""
        pairs = tuple((op, op.conj().T) for op in self.lindblad_ops)
        ldl = [l_dag @ l for l, l_dag in pairs] or [np.zeros_like(self.hamiltonian)]
        return 0.5 * functools.reduce(np.add, ldl), pairs


def _dissipate(k, pairs, x, adjoint=False):
    """sum a x b over the (a, b) pairs, or sum b x a when ``adjoint``,
    minus (k x + x k): the summed dissipators of the pairs' operators, or
    their adjoints, where k is half their summed L^dag L."""
    out = -(k @ x + x @ k)
    for a, b in pairs:
        out += b @ x @ a if adjoint else a @ x @ b
    return out


def dissipator(l: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """L rho L^dag - {L^dag L, rho}/2; traceless for any rho."""
    linalg._check_same_shape(l, rho)
    l_dag = l.conj().T
    return _dissipate(0.5 * (l_dag @ l), ((l, l_dag),), rho)


def adjoint_dissipator(l: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Heisenberg-picture adjoint: L^dag a L - {L^dag L, a}/2."""
    linalg._check_same_shape(l, a)
    l_dag = l.conj().T
    return _dissipate(0.5 * (l_dag @ l), ((l, l_dag),), a, adjoint=True)


def lindblad_rhs(model: LindbladModel, rho: np.ndarray) -> np.ndarray:
    """-i[H, rho] plus the summed dissipators of the model, from the cached
    K = sum L^dag L / 2: 4 + 2k matrix products for k jump operators, and
    the commutator's 2 for a closed model."""
    if rho.shape != model.hamiltonian.shape:
        raise DimensionMismatchError(
            f"state shape {rho.shape} != model dimension {model.hamiltonian.shape}"
        )
    out = -1j * linalg.commutator(model.hamiltonian, rho)
    if model.lindblad_ops:
        out += _dissipate(*model._jumps, rho)
    return out


def liouvillian_matrix(model: LindbladModel) -> np.ndarray:
    """Dense d^2 x d^2 superoperator acting on row-major vectorized states.

    Uses vec(A rho B) = (A kron B^T) vec(rho) for C-ordered flattening on
    the terms of ``lindblad_rhs``, from the model's cached K:
    (-iH - K) rho + rho (iH - K) + sum L rho L^dag, 2 + k Kronecker
    products for k jump operators. Above d = 64 raises
    ``ResourceLimitError`` (``KRON_DIM_CAP``) before allocating.
    """
    h = model.hamiltonian
    k, pairs = model._jumps
    eye = np.eye(model.dim, dtype=complex)
    a = linalg.kron(-1j * h - k, eye)
    a += linalg.kron(eye, (1j * h - k).T)
    for l, l_dag in pairs:
        a += linalg.kron(l, l_dag.T)
    return a


@dataclass(frozen=True)
class Trajectory:
    """One integration run of the master equation.

    ``states[k]`` is the density matrix at ``times[k]``. ``trace_errors``
    and ``min_eigs`` are per-state diagnostics; ``trace_drift`` / ``min_eig``
    are their worst values over the run. ``trace_errors[k]`` is |Tr - 1| of
    state k as computed, before any rescaling. A state whose error exceeds
    1e-12 is rescaled by its trace before any state is computed from it,
    and ``renormalizations`` counts those states, so a silently misbehaving
    integrator shows up in the report. An error is the drift of <= SPAN steps.

    ``min_eigs[k]`` is the lowest eigenvalue of state k from
    ``np.linalg.eigvalsh`` (lower triangle). ``evolve`` certifies positivity
    without it, so it is computed exactly on first read and then cached,
    read-only, like ``min_eig``. ``herm_drift``, the largest entry of
    |rho - rho^H| over both triangles of every state, which no check reads,
    and ``bures_angles[k]``, the Bures angle arccos(sqrt(Re<rho0, rho_k>))
    of state k to the initial state, are likewise computed on first read
    and cached, the angles read-only.
    """

    times: np.ndarray
    states: np.ndarray
    trace_errors: np.ndarray
    trace_drift: float
    renormalizations: int
    dt: float
    model: LindbladModel
    rho0: np.ndarray

    @functools.cached_property
    def min_eigs(self) -> np.ndarray:
        a = _min_eigs(self.states)
        a.setflags(write=False)
        return a

    @functools.cached_property
    def min_eig(self) -> float:
        return float(self.min_eigs.min())

    @functools.cached_property
    def herm_drift(self) -> float:
        return max(linalg.hermiticity_deviation(block) for _, block in _chunks(self.states))

    @functools.cached_property
    def bures_angles(self) -> np.ndarray:
        overlaps = np.real(self.states.reshape(len(self.times), -1) @ self.rho0.reshape(-1).conj())
        # The k=0 overlap is Tr(rho0^2) = 1 exactly for a pure start; pin it so
        # rounding in |psi|^4 cannot produce a spurious ~1e-8 initial angle.
        overlaps[0] = 1.0
        a = np.arccos(np.sqrt(np.clip(overlaps, 0.0, 1.0)))
        a.setflags(write=False)
        return a


def _taylor_terms(model: LindbladModel, flat: np.ndarray) -> np.ndarray:
    """Taylor terms T_k = A^k v / k!, k = 0..4, of every row v of ``flat``.

    ``flat`` is an (m, d^2) stack of row-major flattened states and the
    result has shape (5, m, d^2). A is applied four times to the whole
    stack: as the cached Liouvillian for d <= SUPEROP_DIM_LIMIT, and by
    ``lindblad_rhs`` on each state above it, 4 + 2k products of d x d
    matrices each for k jump operators. The terms of the d^2 x d^2
    identity are (A^T)^k / k!, from which ``_propagate`` takes its step map.
    """
    d = model.dim
    terms = np.empty((5,) + flat.shape, dtype=complex)
    terms[0] = flat
    # numpy divides a complex array by k as this product with 1/k, after
    # the extra work of a complex division; the values are the same.
    for k in range(1, 5):
        if d <= SUPEROP_DIM_LIMIT:
            np.matmul(terms[k - 1], model.liouvillian.T, out=terms[k])
            terms[k] *= 1.0 / k
        else:
            for term, prev in zip(terms[k], terms[k - 1]):
                rhs = lindblad_rhs(model, prev.reshape(d, d))
                np.multiply(rhs.reshape(-1), 1.0 / k, out=term)
    return terms


def _partial_steps(terms: np.ndarray, taus) -> np.ndarray:
    """sum_k tau^k T_k in Horner form: the RK4 step of size tau from each
    state of ``_taylor_terms``, or any linear reading of it from the same
    reading of the terms. ``taus`` is one float for every state, or an
    (m, 1) array with one per state."""
    out = taus * terms[4]
    for term in terms[3:0:-1]:
        out += term
        out *= taus
    out += terms[0]
    return out


def _chunk_steps(d: int, n_steps: int) -> int:
    """Chunk length b, a power of two, of least modeled cost for n_steps
    steps: log2(b) squarings of d^6 and products of 1, 2, ..., b/2 states,
    then one of b states per chunk; b = 1 is a matrix-vector product a step."""
    d4 = d**4
    gemv, square = CALL_COST + GEMV_ROWS * d4, CALL_COST + d4 * d * d
    best, least = 1, n_steps * gemv
    b, doubling = 2, gemv + square
    top = min(n_steps, SPAN, CHUNK_ENTRIES // (d * d))
    while b <= top:
        chunk = CALL_COST + (b + PACK_ROWS) * d4
        cost = doubling + -(-(n_steps + 1 - b) // b) * chunk
        if cost < least:
            best, least = b, cost
        doubling += chunk + square
        b *= 2
    return best


def _propagate(model: LindbladModel, rho0: np.ndarray, n_steps: int, h: float, checked=False):
    """March n_steps of size h; returns (states, trace_errors, n_renorm).

    States are rows; P^T is the Taylor step of the identity's rows. While
    ``_chunk_steps`` says it pays, the states [0, b) give [b, 2b) in one
    product with (P^b)^T, and P^2b = (P^b)^2; then each chunk of b states
    gives the next (b = 1 and the Taylor step above SUPEROP_DIM_LIMIT).
    State 0, and each chunk that would pass on a span over SPAN, is
    rescaled by its trace before it is advanced, from the traces of the
    pass that measures the states up to it; at the end the rest are
    measured. A measured state off by more than RENORM_THRESHOLD is
    rescaled once; ``trace_errors`` holds the errors before any rescaling
    and ``n_renorm`` counts those. If there are any, the march is taken
    again ``checked``: each source chunk is measured before it is advanced,
    so no state comes from a drifting one.
    """
    d = model.dim
    flat = np.empty((n_steps + 1, d * d), dtype=complex)
    real = flat.view(float)
    unit = np.eye(d, dtype=complex).reshape(-1).view(float)
    trace_errors = np.empty(n_steps + 1)
    measured = 0

    def measure(hi: int, forced: int | None = None) -> None:
        # Record the errors of [measured, hi), and rescale by its trace, once,
        # each drifting state there and every state from ``forced`` on.
        nonlocal measured
        forced = hi if forced is None else forced
        lo, cut = min(measured, forced), max(measured, forced)
        traces = real[lo:hi] @ unit
        trace_errors[measured:hi] = errs = np.abs(traces[measured - lo :] - 1.0)
        free = errs[: cut - measured]  # the measured states not forced
        if free.max(initial=0.0) > RENORM_THRESHOLD:
            drift = free > RENORM_THRESHOLD
            real[measured:cut][drift] *= (1.0 / traces[measured - lo : cut - lo][drift])[:, None]
        if forced < hi:
            real[forced:hi] *= (1.0 / traces[forced - lo :])[:, None]
        measured = hi

    superop = d <= SUPEROP_DIM_LIMIT
    limit = _chunk_steps(d, n_steps) if superop else 1
    step = (
        _partial_steps(_taylor_terms(model, np.eye(d * d, dtype=complex)), h) if superop else None
    )
    flat[0] = rho0.reshape(-1)
    measure(1, forced=0)
    # States [0, s) are filled; the newest chunk, [s - b, s), has spans <= span.
    b, span, s = 1, 0, 1
    while s <= n_steps:
        m = min(b, n_steps + 1 - s)
        if span + b > SPAN:
            measure(s, forced=max(s - b, 1))
            span = 0
        elif checked:
            measure(s)
        src, out = flat[s - b : s - b + m], flat[s : s + m]
        if superop:
            np.matmul(src, step, out=out)
        else:
            out[:] = _partial_steps(_taylor_terms(model, src), h)
        s += m
        span += b
        if s == 2 * b <= n_steps and 2 * b <= min(limit, SPAN):
            step = step @ step
            b *= 2

    measure(n_steps + 1)
    n_renorm = int(np.count_nonzero(trace_errors > RENORM_THRESHOLD))
    if n_renorm and not checked:
        return _propagate(model, rho0, n_steps, h, checked=True)
    return flat.reshape(n_steps + 1, d, d), trace_errors, n_renorm


# States per chunk of the batched per-state checks, so that their
# temporaries stay bounded however long the trajectory is. 2048 beats 8192
# on verify's 12 001-state trajectories (measured): at 8192 each chunk-sized
# temporary is mapped and faulted in afresh, about 5x the minor page faults.
STATE_CHUNK = 2048


def _chunks(states: np.ndarray):
    """(start, states[start:start + STATE_CHUNK]) over the whole stack."""
    for start in range(0, states.shape[0], STATE_CHUNK):
        yield start, states[start : start + STATE_CHUNK]


def _first_nonfinite(states: np.ndarray) -> int | None:
    """Index of the first state with a NaN or infinite entry, else None."""
    for start, block in _chunks(states):
        finite = np.isfinite(block)
        if not finite.all():
            return start + int(np.argmin(finite.all(axis=(1, 2))))
    return None


def _min_eigs(states: np.ndarray) -> np.ndarray:
    """Lowest eigenvalue of every state, from eigvalsh on the lower triangle."""
    return np.concatenate([np.linalg.eigvalsh(block)[:, 0].real for _, block in _chunks(states)])


# Positivity certificate. Cholesky of A = rho + c I with
# c = -MIN_EIG_LIMIT (1 - 1e-6) reads the lower triangle, as eigvalsh does;
# no check reads the asymmetry of a state (Trajectory.herm_drift reports
# it). If it succeeds in floating point, the computed factor R satisfies
# R^* R = A + dA with |dA| <= gamma_{d+1} |R^*| |R| entrywise, gamma_k = k u
# / (1 - k u) up to a small constant in complex arithmetic (Higham,
# Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 10, Thm
# 10.3). The columns of R have squared norms a_ii (1 + O(u)), so
# ||dA||_2 <= gamma_{d+1} tr(A) (1 + O(u)), with tr(A) = tr(rho) + d c ~ 1;
# rounding rho + c I adds O(u) more. A + dA is positive semidefinite, hence
#     lambda_min(rho) >= -c - O(d u) = MIN_EIG_LIMIT + 1e-11 - O(d u),
# above MIN_EIG_LIMIT while O(d u) ~ 1e-15 (d + 1) stays below 1e-11, i.e.
# for every d up to the package's dense cap of 4096. eigvalsh, backward
# stable to O(d u), then also reads a lowest eigenvalue above the limit, so
# a success is the exact rule's pass; only a failure needs eigvalsh.
#
# The proof of Thm 10.3 bounds each computed r_ij, i <= j, through a_ij
# minus the inner product of the earlier columns, whatever the order of
# that sum (Lemma 8.4), and the factorization stops at a pivot that is not
# > 0, NaN included. So it covers ``_cholesky_sweep``, the outer-product
# form, which subtracts those products one column step at a time and
# scales each column by the reciprocal of its pivot's root, as LAPACK's
# unblocked zpotf2 does (one more rounding, within the small constant).
# The sweep runs on an entries-major copy of a whole chunk, so each of its
# numpy calls acts on vectors of length m instead of on d x d matrices:
# about 5 per column, and 2 per row of the trailing block's lower triangle,
# the only part a later column reads. It streams that triangle through
# memory at every column, about d^3 m / 6 entries in all, where LAPACK
# keeps each matrix in cache: above SWEEP_DIM_LIMIT LAPACK's batched zpotrf
# is faster. Below SWEEP_MIN_STATES states the fixed cost of the sweep's
# calls outweighs one LAPACK call per state. Both were measured with
# 2048-state chunks in fresh processes, 8 alternating rounds a cell. On
# 1001 and 12 001 states the sweep won at d = 9, 10 and 11 (7/8 or 8/8
# each) and tied LAPACK at d = 12 (5/8, 3/8). On 256 states it won at
# d = 2, 4, 6 and 11 (7/8 or 8/8) and tied at d = 8 (4/8); on 128 it lost
# at d >= 4.
_POSITIVITY_SHIFT = -MIN_EIG_LIMIT * (1.0 - 1e-6)
SWEEP_DIM_LIMIT = 11
SWEEP_MIN_STATES = 256


def _cholesky_sweep(a: np.ndarray) -> bool:
    """True when the Cholesky factorization of every a[:, :, s] + c I succeeds.

    ``a`` is an entries-major (d, d, m) stack, read in its lower triangle
    and overwritten with the factors.
    """
    d = a.shape[0]
    a.reshape(d * d, -1)[:: d + 1] += _POSITIVITY_SHIFT
    for j in range(d):
        pivot = a[j, j].real
        if not pivot.min() > 0.0:
            return False
        if j + 1 < d:
            col = a[j + 1 :, j]
            col *= 1.0 / np.sqrt(pivot)
            conj = col.conj()
            for i in range(j + 1, d):
                a[i, j + 1 : i + 1] -= col[i - j - 1] * conj[: i - j]
    return True


def _certified(states: np.ndarray) -> bool:
    """True when every entry of the stack is finite and Cholesky proves every
    lowest eigenvalue >= MIN_EIG_LIMIT, checked chunk by chunk.

    A chunk whose sum is finite has only finite entries, in both triangles;
    a non-finite sum, which a finite chunk gives only by overflow, fails.
    """
    d = states.shape[1]
    sweep = d <= SWEEP_DIM_LIMIT and states.shape[0] >= SWEEP_MIN_STATES
    for _, block in _chunks(states):
        if not np.isfinite(block.sum()):
            return False
        if sweep:
            # A copy, never a view: the sweep overwrites it, and
            # np.ascontiguousarray returns a view of a one-state chunk.
            if not _cholesky_sweep(block.transpose(1, 2, 0).copy()):
                return False
        else:
            try:
                np.linalg.cholesky(block + _POSITIVITY_SHIFT * np.eye(d))
            except np.linalg.LinAlgError:
                return False
    return True


def _quality_gate(states: np.ndarray, trace_errors: np.ndarray, times, steps) -> float:
    """Reject a stack of states that no accurate integration could produce.

    Raises ``IntegrationQualityError`` when a state has a NaN or infinite
    entry, a trace error exceeds TRACE_DRIFT_LIMIT, or a lowest eigenvalue
    falls below MIN_EIG_LIMIT. ``times[i]`` and ``steps[i]``, the steps of
    the run up to state i (fractional for a state between grid points), name
    the first non-finite state in the message. The finiteness test and the
    Cholesky certificate run on each chunk of ``states`` (``_certified``),
    which is never written to; only when the certificate or the trace fails
    does the gate look for the first non-finite state, and then let the
    exact eigvalsh eigenvalues decide. Returns trace_drift, the worst trace
    error.
    """
    certified = _certified(states)
    trace_drift = float(trace_errors.max())
    if trace_drift > TRACE_DRIFT_LIMIT or not certified:
        bad = _first_nonfinite(states)
        if bad is not None:
            raise IntegrationQualityError(
                f"integration quality failure: non-finite state at t = {times[bad]:.6g} "
                f"(step {steps[bad]:.10g}); retry with a smaller dt"
            )
        min_eig = float(_min_eigs(states).min())
        if trace_drift > TRACE_DRIFT_LIMIT or min_eig < MIN_EIG_LIMIT:
            raise IntegrationQualityError(
                f"integration quality failure: trace drift {trace_drift:.3e}, "
                f"min eigenvalue {min_eig:.3e}; retry with a smaller dt"
            )
    return trace_drift


def step_grid(t_end: float, dt: float) -> tuple[int, float]:
    """The grid ``evolve`` integrates [0, t_end] on at step ~dt: n =
    max(1, round(t_end/dt)) uniform steps of h = t_end/n, returned as (n, h),
    so halving dt exactly halves the step. A step count t_end/dt that
    overflows a float raises ``ResourceLimitError``."""
    if t_end / dt == math.inf:
        raise ResourceLimitError(
            "trajectory of t_end / dt = inf steps is over the "
            f"{TRAJECTORY_BYTE_CAP}-byte cap; raise dt or shorten t_end"
        )
    n_steps = max(1, int(round(t_end / dt)))
    return n_steps, t_end / n_steps


def evolve(model: LindbladModel, psi0, t_end: float, dt: float) -> Trajectory:
    """Integrate from the pure state psi0 over [0, t_end] with step ~dt.

    The grid is ``step_grid``'s. Trace diagnostics are recorded at every
    grid point. The run is rejected with ``IntegrationQualityError``, which
    indicates the step is too coarse for the generator, when a state has a
    NaN or infinite entry, the trace drift exceeds 1e-6, or an eigenvalue
    falls below -1e-5. A run whose states would take more than
    ``TRAJECTORY_BYTE_CAP`` bytes, or whose step count t_end/dt overflows a
    float, raises ``ResourceLimitError`` before anything is integrated.
    Positivity is certified by a Cholesky factorization of every state
    shifted by just under 1e-5; only when that fails are the exact eigvalsh
    eigenvalues computed, and they decide. A diverging run reports that
    error alone, without numpy's floating-point warnings. No hermiticity
    pass runs: ``herm_drift``, like the per-state ``min_eigs`` and
    ``bures_angles``, is computed when first read.
    """
    psi0 = linalg.pure_state(psi0)
    if psi0.size != model.dim:
        raise DimensionMismatchError(
            f"state dimension {psi0.size} != model dimension {model.dim}"
        )
    if not (0.0 < t_end < math.inf and 0.0 < dt < math.inf):
        raise ValueError("t_end and dt must be positive and finite")
    if dt > t_end * (1.0 + 1e-12):
        raise ValueError("dt must not exceed t_end")

    rho0 = linalg.projector(psi0)
    n_steps, h = step_grid(t_end, dt)
    n_bytes = (n_steps + 1) * model.dim**2 * np.dtype(complex).itemsize
    if n_bytes > TRAJECTORY_BYTE_CAP:
        raise ResourceLimitError(
            f"trajectory of {n_steps} steps at d = {model.dim} needs {n_bytes} bytes "
            f"of states, over the {TRAJECTORY_BYTE_CAP}-byte cap; raise dt or shorten t_end"
        )

    times = np.arange(n_steps + 1) * h
    # A diverging run overflows on its way to the gate.
    with np.errstate(all="ignore"):
        states, trace_errors, n_renorm = _propagate(model, rho0, n_steps, h)
        trace_drift = _quality_gate(states, trace_errors, times, range(n_steps + 1))

    return Trajectory(
        times=times,
        states=states,
        trace_errors=trace_errors,
        trace_drift=trace_drift,
        renormalizations=n_renorm,
        dt=h,
        model=model,
        rho0=rho0,
    )


def _states_at(traj: Trajectory, times: np.ndarray) -> np.ndarray:
    """States of the run at arbitrary times within its span, gated like evolve's.

    A time that lands on a stored state k is that stored state, bit for bit,
    which ``evolve`` has already rescaled and gated. Any other time t is one
    RK4 step of the remainder t - times[k] from the last stored state k
    before it; the steps of all these samples come from one batch of Taylor
    terms. Only these samples are rescaled by their traces under the same
    RENORM_THRESHOLD rule as a stored state and must pass the same quality
    gate; a failure names the sample's time and fractional step.
    """
    ks = np.searchsorted(traj.times, times, "right") - 1
    taus = times - traj.times[ks]
    out = traj.states[ks]
    step = np.flatnonzero(taus)
    if step.size:
        with np.errstate(all="ignore"):
            flat = out[step].reshape(-1, traj.rho0.size)
            samples = _partial_steps(_taylor_terms(traj.model, flat), taus[step, None])
            samples = samples.reshape(-1, *traj.rho0.shape)
            traces = np.trace(samples, axis1=1, axis2=2).real
            trace_errors = np.abs(traces - 1.0)
            drift = trace_errors > RENORM_THRESHOLD
            samples[drift] /= traces[drift, None, None]
            _quality_gate(samples, trace_errors, times[step], ks[step] + taus[step] / traj.dt)
        out[step] = samples
    return out


def first_passage_time(traj: Trajectory, theta_target: float) -> float:
    """Earliest time the trajectory's Bures angle reaches theta_target.

    Scans the grid for the first crossing (the angle may be non-monotonic,
    e.g. under Rabi oscillation) and refines it by bisection over a partial
    RK4 step tau from the bracketing state, down to 1e-8 in time or to two
    adjacent floats, whichever is wider. The
    overlap with the initial state after that step is the scalar polynomial
    sum_k tau^k c_k, c_k = Re<rho0, T_k>, so the Taylor terms are built once
    per call and each bisection step is scalar arithmetic.
    """
    if not (0.0 < theta_target < np.pi / 2):
        raise ValueError("theta_target must lie in (0, pi/2)")
    angles = traj.bures_angles
    if angles.size == 0:
        raise ValueError("trajectory is empty")

    above = angles >= theta_target
    if not above.any():
        raise UnreachableTargetError(
            f"Bures angle never reached {theta_target:.6g} within horizon "
            f"{traj.times[-1]:.6g} (max angle {angles.max():.6g})"
        )
    idx = int(np.argmax(above))
    if idx == 0:
        return 0.0

    terms = _taylor_terms(traj.model, traj.states[idx - 1].reshape(1, -1))
    overlaps = (terms[:, 0] @ traj.rho0.reshape(-1).conj()).real

    def angle_after(tau: float) -> float:
        f = float(_partial_steps(overlaps, tau))
        return math.acos(math.sqrt(min(max(f, 0.0), 1.0)))

    h = float(traj.times[idx] - traj.times[idx - 1])
    if angle_after(h) < theta_target:
        # Borderline grid hit (float-level): the grid time is the answer.
        return float(traj.times[idx])

    # A step over about 4.5e7 has no float strictly between ends 1e-8 apart.
    lo, hi, mid = 0.0, h, 0.5 * h
    while hi - lo > FIRST_PASSAGE_RESOLUTION and lo < mid < hi:
        if angle_after(mid) >= theta_target:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return float(traj.times[idx - 1] + mid)


def theta_dot_exact(model: LindbladModel, rho0: np.ndarray, rho_t, theta_t):
    """Exact instantaneous rate of the Bures angle along the dynamics.

    Evaluates Re Tr(W rho_t) / sin(2 theta) with W = i[rho0, H] - sum_k D_k^dag(rho0),
    the adjoint sum from the model's cached K, the time derivative of
    arccos(sqrt(Tr(rho0 rho_t))) under the master equation. One state
    (d, d) with its angle gives a float; a stack (m, d, d) with m angles
    gives m rates from one product with W. An angle within 1e-6 of the
    singular points 0 and pi/2, or NaN, raises ``SingularPointError``
    naming it.
    """
    theta_t = np.asarray(theta_t, dtype=float)
    singular = ~((theta_t >= 1e-6) & (theta_t <= np.pi / 2 - 1e-6))
    if singular.any():
        raise SingularPointError(
            f"theta = {theta_t[singular][0]:.3e} is within 1e-6 of a singular endpoint"
        )
    w = 1j * linalg.commutator(rho0, model.hamiltonian)
    if model.lindblad_ops:
        w -= _dissipate(*model._jumps, rho0, adjoint=True)
    if np.shape(rho_t) != theta_t.shape + w.shape:
        raise DimensionMismatchError(f"states {np.shape(rho_t)} mismatch angles {theta_t.shape}")
    num = (np.reshape(rho_t, theta_t.shape + (w.size,)) @ w.T.reshape(-1)).real
    return num / np.sin(2.0 * theta_t)
