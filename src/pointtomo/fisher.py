"""Estimation-theoretic quantities in the complex parametrization.

Information matrices over theta = [theta_1, ..., theta_{d-1}] in C^(d-1) are
handled through their two defining blocks: a Hermitian block (classical I or
quantum J) and a complex-symmetric block (P or Q). The assembled
2(d-1) x 2(d-1) matrix is ``[[B, S], [S*, B*]]``.

Conventions, fixed once for the whole library:

* block derivatives are Wirtinger derivatives with respect to theta_j,
  so the first-order classical blocks of a complete rank-1 POVM with
  real-gauged leading coefficients are I = identity and P = conj(C);
* C is the gauge-fixed coefficient Gram matrix without conjugation,
  C_jk = sum_eta a_j^eta a_k^eta for j, k >= 1, whose norm measures the
  distance of the measurement from Fisher symmetry;
* the quantum blocks of the pure chart state at theta have the closed form
  J = (2/s) (I - conj(theta) theta^T / s) with s = 1 + |theta|^2, and Q
  vanishes on this chart, because the antiholomorphic derivative of the
  normalized state is parallel to the state itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DegenerateInput, InvalidInput, NumericalError
from .states import chart_amplitudes, pure_probabilities
from .validation import check_local_parameters

BLOCK_TOL = 1e-10
PSD_TOL = -1e-9
COMPLETENESS_TOL = 1e-6
PROBABILITY_FLOOR = 1e-12

NORM_KINDS = ("spectral", "frobenius")


@dataclass(frozen=True)
class FisherBlocks:
    """Two-block representation of a CFIM or QFIM.

    ``diag_block`` is the Hermitian block (I for classical, J for quantum);
    ``off_block`` is the complex-symmetric one (P, respectively Q).
    """

    diag_block: np.ndarray
    off_block: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diag_block, dtype=complex)
        o = np.asarray(self.off_block, dtype=complex)
        if d.shape != o.shape or d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise InvalidInput(f"blocks must be equal square matrices, got {d.shape} and {o.shape}")
        if np.max(np.abs(d - d.conj().T)) > BLOCK_TOL:
            raise ConsistencyError("diagonal block is not Hermitian within 1e-10")
        if np.max(np.abs(o - o.T)) > BLOCK_TOL:
            raise ConsistencyError("off-diagonal block is not symmetric within 1e-10")
        d.setflags(write=False)
        o.setflags(write=False)
        object.__setattr__(self, "diag_block", d)
        object.__setattr__(self, "off_block", o)
        evals = np.linalg.eigvalsh(self.assembled())
        if evals.min() < PSD_TOL:
            raise ConsistencyError(f"assembled information matrix has eigenvalue {evals.min()}")

    def assembled(self) -> np.ndarray:
        """Full 2(d-1) x 2(d-1) information matrix [[B, S], [S*, B*]]."""
        top = np.hstack([self.diag_block, self.off_block])
        bottom = np.hstack([self.off_block.conj(), self.diag_block.conj()])
        return np.vstack([top, bottom])


def qfim_pure(theta) -> FisherBlocks:
    """Quantum Fisher information blocks of the pure chart state at ``theta``.

    The closed form of the module docstring; at theta = 0 this is
    J = 2 * identity, Q = 0.
    """
    theta = check_local_parameters(theta)
    s = 1.0 + float(np.real(np.vdot(theta, theta)))
    jblk = (2.0 / s) * (np.eye(theta.size) - np.outer(theta.conj(), theta) / s)
    return FisherBlocks(jblk, np.zeros_like(jblk))


def _c_gram(rows: np.ndarray) -> np.ndarray:
    """C_jk = sum_eta a_j^eta a_k^eta (j, k >= 1) of coefficient rows, unconjugated;
    a stack of row sets gives a stack of C matrices."""
    block = rows[..., 1:]                 # (..., n_outcomes, d-1)
    return block.mT @ block


def c_matrix(povm) -> np.ndarray:
    """Gauge-fixed coefficient Gram matrix C_jk = sum_eta a_j^eta a_k^eta (j,k >= 1)."""
    if povm.completeness_deviation > COMPLETENESS_TOL:
        raise InvalidInput(
            f"POVM completeness deviates by {povm.completeness_deviation:.3e} "
            f"(> {COMPLETENESS_TOL}); re-unitarize the device or fix the effects"
        )
    return _c_gram(povm.effects)


def c_norm(povm, kind: str = "spectral") -> float:
    """Norm of the C matrix; ``spectral`` (largest singular value) or ``frobenius``."""
    return matrix_norm(c_matrix(povm), kind)


def matrix_norm(mat: np.ndarray, kind: str = "spectral") -> float:
    """Same norm choice applied to an arbitrary matrix."""
    return float(np.linalg.norm(mat, _norm_ord(kind)))


def _norm_ord(kind: str):
    """``np.linalg.norm`` order of a norm kind."""
    if kind not in NORM_KINDS:
        raise InvalidInput(f"norm kind must be one of {NORM_KINDS}, got {kind!r}")
    return 2 if kind == "spectral" else "fro"


def cfim_first_order(povm) -> FisherBlocks:
    """Classical Fisher information blocks at the fiducial point, first order.

    For a complete, gauge-fixed rank-1 POVM these are I = identity and
    P = conj(C) exactly.
    """
    c = c_matrix(povm)
    return FisherBlocks(np.eye(c.shape[0]), c.conj())


def cfim_numeric(povm, theta, step: float = 1e-5) -> FisherBlocks:
    """Classical Fisher information blocks at ``theta`` by central differences.

    Wirtinger derivatives of ln f(omega|theta) are built from separate real
    and imaginary part steps. Outcomes with probability below 1e-12 at the
    evaluation point are excluded from the sums.
    """
    if not 0.0 < step <= 1e-3:
        raise InvalidInput(f"step must lie in (0, 1e-3], got {step}")
    theta = check_local_parameters(theta, povm.dim)
    # theta, then theta + step e_j, - step e_j, + i step e_j and - i step e_j for every j
    e = step * np.eye(theta.size, dtype=complex)
    points = np.concatenate([theta[None], theta + e, theta - e, theta + 1j * e, theta - 1j * e])
    probs = pure_probabilities(povm.effects, chart_amplitudes(points))
    f = probs[0]
    keep = f >= PROBABILITY_FLOOR
    if not np.any(keep):
        raise DegenerateInput("all outcome probabilities are below the floor")

    logs = np.log(np.maximum(probs[1:], PROBABILITY_FLOOR)).reshape(4, theta.size, -1)
    d_re, d_im = (logs[[0, 2]] - logs[[1, 3]]) / (2.0 * step)
    deriv = 0.5 * (d_re - 1j * d_im)

    w = f[keep]
    dk = deriv[:, keep]
    iblk = np.einsum("w,jw,kw->jk", w, dk, dk.conj())
    pblk = np.einsum("w,jw,kw->jk", w, dk, dk)
    iblk = 0.5 * (iblk + iblk.conj().T)
    pblk = 0.5 * (pblk + pblk.T)
    return FisherBlocks(iblk, pblk)


def gill_massar_wmse(d: int, n_exp: int) -> float:
    """Minimal mean infidelity (d - 1) / N for separable measurements."""
    if d < 2 or n_exp < 1:
        raise InvalidInput("need d >= 2 and n_exp >= 1")
    return (d - 1) / n_exp


def gm_inequality_lhs(cfim: FisherBlocks, qfim: FisherBlocks) -> float:
    """tr(I_hat J_hat^-1) over the assembled matrices; bounded by d - 1."""
    jm = qfim.assembled()
    cond = np.linalg.cond(jm)
    if not np.isfinite(cond) or cond > 1e12:
        raise NumericalError(f"quantum information matrix is ill conditioned (cond={cond:.3e})")
    val = np.trace(cfim.assembled() @ np.linalg.inv(jm))
    return float(val.real)


def asymptotic_infidelity_coefficient(povm) -> float:
    """Large-N mean infidelity coefficient of an efficient estimator.

    For a complete rank-1 measurement with C-matrix singular values s_i the
    mean infidelity of the maximum-likelihood estimate approaches
    ``sum_i 1 / (1 - s_i^2) / N``;  it equals (d - 1)/N exactly when the
    measurement is Fisher symmetric (C = 0).
    """
    s = np.linalg.svd(c_matrix(povm), compute_uv=False)
    if s.max() >= 1.0 - 1e-9:
        raise DegenerateInput("measurement is not locally informationally complete (||C|| >= 1)")
    return float(np.sum(1.0 / (1.0 - s ** 2)))
