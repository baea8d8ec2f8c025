"""Pure states, density matrices and the local neighborhood parametrization.

A qudit state close to the known target ``|0>`` is written as

    |psi(theta)> = (|0> + sum_j theta_j |j>) / norm,       theta in C^(d-1),

with exact normalization, so the chart stays a valid state for deviations
well beyond the infinitesimal regime. All operations here are pure
functions; the value types are immutable and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, InvalidInput
from .validation import check_local_parameters, check_square_matrix

NORM_TOL = 1e-12
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10


@dataclass(frozen=True)
class StateVector:
    """Unit-norm complex amplitude vector of a pure qudit state."""

    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.ndim != 1 or amps.size < 2:
            raise InvalidInput(f"state vector must be 1-D with d >= 2, got shape {amps.shape}")
        if not np.all(np.isfinite(amps)):
            raise InvalidInput("state vector contains non-finite amplitudes")
        if abs(np.linalg.norm(amps) - 1.0) > NORM_TOL:
            raise InvalidInput(f"state vector norm deviates from 1 by more than {NORM_TOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return self.amps.size

    def projector(self) -> np.ndarray:
        """Rank-1 density matrix |psi><psi| as a plain array."""
        return np.outer(self.amps, self.amps.conj())


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace operator."""

    mat: np.ndarray

    def __post_init__(self):
        mat = check_square_matrix(self.mat, "density matrix")
        if np.max(np.abs(mat - mat.conj().T)) > HERMITICITY_TOL:
            raise InvalidInput("density matrix is not Hermitian within 1e-12")
        if abs(np.trace(mat).real - 1.0) > TRACE_TOL or abs(np.trace(mat).imag) > TRACE_TOL:
            raise InvalidInput("density matrix trace deviates from 1 by more than 1e-12")
        evals = np.linalg.eigvalsh(mat)
        if evals.min() < EIGENVALUE_FLOOR:
            raise InvalidInput(f"density matrix has eigenvalue {evals.min()} below {EIGENVALUE_FLOOR}")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def chart_amplitudes(theta: np.ndarray) -> np.ndarray:
    """Amplitudes (|0> + sum_j theta_j |j>)/norm, normalized exactly, of each
    row of an (R, d-1) stack of chart parameters.

    The squared norm sums the dot products of the real and of the imaginary
    parts, as ``np.linalg.norm`` does; a stacked 1 x d by d x 1 matmul calls
    that BLAS dot on every row, so a row gets the same bits in any stack.
    """
    v = np.concatenate([np.ones((len(theta), 1), dtype=complex), theta], axis=1)
    re, im = v.real[:, None, :], v.imag[:, None, :]
    return v / np.sqrt(re @ re.mT + im @ im.mT)[:, 0]


def neighborhood_state(theta) -> StateVector:
    """State of the local chart at parameter ``theta`` (length d-1): the
    one-row case of :func:`chart_amplitudes`."""
    return StateVector(chart_amplitudes(check_local_parameters(theta)[None, :])[0])


def equal_deviation_state(theta_scalar: float, dim: int = 4) -> StateVector:
    """Deviation state with identical real coefficient sqrt(theta_scalar)
    on every basis state |1>..|d-1>."""
    theta_scalar = float(theta_scalar)
    if not np.isfinite(theta_scalar) or theta_scalar < 0:
        raise InvalidInput(f"theta_scalar must be >= 0, got {theta_scalar}")
    if dim < 2:
        raise InvalidInput("dim must be >= 2")
    return neighborhood_state(np.full(dim - 1, np.sqrt(theta_scalar), dtype=complex))


def depolarize(psi: StateVector, lam: float) -> DensityMatrix:
    """White-noise state lam * |psi><psi| + (1 - lam) * I / d."""
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise InvalidInput(f"depolarizing weight must lie in [0, 1], got {lam}")
    d = psi.dim
    mat = lam * psi.projector() + (1.0 - lam) * np.eye(d) / d
    # symmetrize away rounding residue so the invariants hold exactly
    mat = 0.5 * (mat + mat.conj().T)
    return DensityMatrix(mat)


def fidelities(amps: np.ndarray, rho: DensityMatrix) -> np.ndarray:
    """<psi| rho |psi> for each row psi of an (R, d) stack of amplitudes.

    Stacked matmuls call BLAS per row, gemv for rho times the column and dot
    for the row times that, so each row gets the same bits in any stack.
    """
    val = (amps.conj()[:, None, :] @ (rho.mat @ amps[:, :, None]))[:, 0, 0]
    if (np.abs(val.imag) > 1e-10).any():
        raise ConsistencyError(f"fidelity has imaginary residue {np.abs(val.imag).max()}")
    return np.minimum(np.maximum(val.real, 0.0), 1.0)


def fidelity(psi: StateVector, rho: DensityMatrix) -> float:
    """<psi| rho |psi>, the fidelity of a pure state with a mixed one: the
    one-row case of :func:`fidelities`."""
    if psi.dim != rho.dim:
        raise InvalidInput(f"dimension mismatch: state d={psi.dim}, density matrix d={rho.dim}")
    return float(fidelities(psi.amps[None, :], rho)[0])


def born_probabilities(povm, rho: DensityMatrix) -> np.ndarray:
    """Outcome probabilities tr(rho E_eta) for rank-1 effects |a^eta><a^eta|."""
    effects = povm.effects  # (n_outcomes, d), rows are coefficient vectors
    if effects.shape[1] != rho.dim:
        raise InvalidInput(f"dimension mismatch: POVM d={effects.shape[1]}, state d={rho.dim}")
    probs = np.real(np.einsum("ej,jk,ek->e", effects.conj(), rho.mat, effects))
    if probs.min() < -1e-10:
        raise ConsistencyError(f"negative Born probability {probs.min()}")
    return np.clip(probs, 0.0, None)


def pure_probabilities(effects: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """|<a^eta|psi>|^2 for every outcome; fast path used by the estimator.

    ``amps`` is one amplitude vector (d,) or a stack (B, d), giving (K,) or
    (B, K). Each overlap is an elementwise product summed over the d
    amplitudes, not a BLAS product, so a row of a stack gets the same bits as
    the 1-D call on that row, whatever the stack's size.
    """
    return np.abs((effects.conj() * amps[..., None, :]).sum(axis=-1)) ** 2
