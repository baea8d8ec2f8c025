"""Local pure-state maximum-likelihood estimation and related statistics.

The estimator maximizes the multinomial log-likelihood over the local chart
theta in C^(d-1) (2(d-1) real variables) with a box-projected Newton
iteration on the closed-form gradient and Hessian. It starts from the
fiducial point and from a linearized inversion of the observed frequencies;
random draws inside the trust region are added only when those two end at
different optima or on the chart bound. The best likelihood wins; among
numerically tied optima the point closest to the fiducial state is
returned, which is the resolution appropriate to estimation in a trusted
neighborhood (a handful of outcomes cannot distinguish all pure states
globally).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DegenerateInput, InvalidInput
from .fisher import PROBABILITY_FLOOR
from .states import StateVector, fidelity, neighborhood_state, pure_probabilities
from .validation import check_counts


@dataclass(frozen=True)
class MleConfig:
    """Optimizer settings for :func:`estimate_state`."""

    tolerance: float = 1e-10          # max-abs projected gradient at convergence
    starts: int = 8                   # random starts if the fixed two disagree or hit the bound

    max_iterations: ClassVar[int] = 100
    start_radius: ClassVar[float] = 0.3   # |theta_j| bound for random starts
    chart_bound: ClassVar[float] = 0.6    # box bound on Re/Im of each theta_j
    seed: ClassVar[int] = 0               # start draws are a function of the config only

    def __post_init__(self):
        if self.tolerance <= 0:
            raise InvalidInput("tolerance must be positive")
        if self.starts < 1:
            raise InvalidInput("starts must be >= 1")


@dataclass(frozen=True)
class MleResult:
    theta: np.ndarray
    log_likelihood: float             # sum_w counts_w * log f(w|theta)
    n_candidates: int
    n_tied: int
    converged: bool                   # projected-gradient test of the returned start
    at_bound: bool                    # some |Re/Im theta_j| on the chart bound

    @property
    def state(self) -> StateVector:
        return neighborhood_state(self.theta)


@dataclass(frozen=True)
class FitResult:
    """Power-law model infidelity ~ coefficient * N ** exponent."""

    coefficient: float
    exponent: float
    residual: float                   # RMS of log residuals

    def __post_init__(self):
        if self.residual < 0:
            raise InvalidInput("residual must be nonnegative")


def _linearized_theta(effects: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """First-order inversion of the Born probabilities around the fiducial.

    p_w(theta) = a0_w^2 + 2 a0_w Re(sum_j conj(a_jw) theta_j) + O(theta^2),
    solved for theta by least squares.
    """
    a0 = effects[:, 0].real
    d = effects.shape[1]
    design = np.empty((effects.shape[0], 2 * (d - 1)))
    for j in range(d - 1):
        caj = effects[:, j + 1].conj()
        design[:, j] = 2.0 * a0 * caj.real
        design[:, d - 1 + j] = -2.0 * a0 * caj.imag
    x, *_ = np.linalg.lstsq(design, freqs - a0 ** 2, rcond=None)
    return x


def _random_start(rng, m: int, radius: float) -> np.ndarray:
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, m))
    phase = rng.uniform(0.0, 2.0 * np.pi, m)
    t = r * np.exp(1j * phase)
    return np.concatenate([t.real, t.imag])


def _neg_log_likelihood(effects: np.ndarray, weights: np.ndarray):
    """Objective x -> (value, gradient, Hessian) of the negative mean log-likelihood.

    x = (Re theta, Im theta). With v = (1, theta), z = conj(A) v and
    s = |v|^2, the model is p_e = |z_e|^2 / s, so -log p_e = -log |z_e|^2 +
    log s. z is affine in x with Jacobian J_e = (B_e, i B_e), B = conj(A)[:, 1:],
    so |z_e|^2 has gradient u_e = 2 Re(conj(z_e) J_e) and the constant Hessian
    2 Re(J_e^H J_e). With W the total weight of the unfloored outcomes,

        gradient = -sum_e w_e u_e / |z_e|^2 + 2 W x / s,
        Hessian  = -sum_e w_e (2 Re(J_e^H J_e) / |z_e|^2 - u_e u_e^T / |z_e|^4)
                   + W (2 I / s - 4 x x^T / s^2).

    Outcomes at the probability floor contribute a constant to the value and
    nothing to the gradient or Hessian.
    """
    m = effects.shape[1] - 1
    conj_effects = effects.conj()
    jac = np.concatenate([conj_effects[:, 1:], 1j * conj_effects[:, 1:]], axis=1)
    jac_h = jac.conj().T
    eye = np.eye(2 * m)

    def objective(x):
        v = np.concatenate(([1.0 + 0.0j], x[:m] + 1j * x[m:]))
        s = 1.0 + x @ x
        p = np.maximum(pure_probabilities(effects, v / np.sqrt(s)), PROBABILITY_FLOOR)
        w = np.where(p > PROBABILITY_FLOOR, weights, 0.0)
        r = w / (p * s)                                     # w_e / |z_e|^2
        u = 2.0 * ((conj_effects @ v).conj()[:, None] * jac).real
        total = w.sum()
        grad = (2.0 * total / s) * x - r @ u
        hess = ((u.T * (r / (p * s))) @ u - 2.0 * ((jac_h * r) @ jac).real
                + total * ((2.0 / s) * eye - (4.0 / s ** 2) * np.outer(x, x)))
        return -float(weights @ np.log(p)), grad, hess

    return objective


def _newton_direction(x: np.ndarray, grad: np.ndarray, hess: np.ndarray,
                      bound: float) -> np.ndarray:
    """Newton step on the coordinates that the gradient does not hold at a
    face of the box; the Hessian's eigenvalues are taken in absolute value
    (floored), so the step descends also where the objective is not convex."""
    held = ((x >= bound) & (grad < 0)) | ((x <= -bound) & (grad > 0))
    free = ~held
    lam, vec = np.linalg.eigh(hess[np.ix_(free, free)])
    lam = np.maximum(np.abs(lam), 1e-10 * max(1.0, np.abs(lam).max()))
    step = np.zeros_like(x)
    step[free] = -vec @ ((vec.T @ grad[free]) / lam)
    return step


def _descend(objective, x: np.ndarray, cfg: MleConfig) -> tuple:
    """Box-projected Newton iteration with a backtracking line search.

    Returns (value, x, converged), where converged is the outcome of the
    projected-gradient test max |x - P(x - grad)| <= cfg.tolerance, P being
    the projection onto the chart box. A step is accepted on a sufficient
    decrease of the value, relaxed by the value's rounding error, because
    the last Newton steps lower it by less than one unit in the last place.
    """
    bound = cfg.chart_bound

    def stationary(x, grad):
        return bool(np.max(np.abs(x - np.clip(x - grad, -bound, bound))) <= cfg.tolerance)

    f, grad, hess = objective(x)
    for _ in range(cfg.max_iterations):
        if stationary(x, grad):
            return f, x, True
        direction = _newton_direction(x, grad, hess, bound)
        slack = 4.0 * np.finfo(float).eps * abs(f)
        t = 1.0
        while True:
            x_new = np.clip(x + t * direction, -bound, bound)
            f_new, grad_new, hess_new = objective(x_new)
            if f_new <= f + 1e-4 * min(grad @ (x_new - x), 0.0) + slack:
                break
            t *= 0.5
            if t < 1e-10:
                return f, x, False
        f, x, grad, hess = f_new, x_new, grad_new, hess_new
    return f, x, stationary(x, grad)


def estimate_theta(counts, povm, cfg: MleConfig = MleConfig()) -> MleResult:
    """Maximum-likelihood local parameters for observed counts.

    ``counts`` may be integer counts or exact real frequencies. The result
    is deterministic given (cfg, counts).
    """
    effects = povm.effects
    counts = check_counts(counts, effects.shape[0])
    total = counts.sum()
    weights = counts / total
    m = effects.shape[1] - 1
    objective = _neg_log_likelihood(effects, weights)

    def at_bound(x):
        return bool(np.max(np.abs(x)) >= cfg.chart_bound * (1.0 - 1e-9))

    def tie_tol(best):
        return 50.0 * max(cfg.tolerance, 1e-14) * max(1.0, abs(best))

    x0s = [np.zeros(2 * m), np.clip(_linearized_theta(effects, weights),
                                    -cfg.chart_bound, cfg.chart_bound)]
    candidates = [_descend(objective, x0, cfg) for x0 in x0s]
    (f0, xa, _), (f1, xb, _) = candidates
    if abs(f0 - f1) > tie_tol(min(f0, f1)) or at_bound(xa) or at_bound(xb):
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
        candidates.extend(_descend(objective, _random_start(rng, m, cfg.start_radius), cfg)
                          for _ in range(cfg.starts))

    best = min(f for f, _, _ in candidates)
    tied = [(x, ok) for f, x, ok in candidates if f <= best + tie_tol(best)]
    x_star, converged = min(tied, key=lambda t: float(t[0] @ t[0]))
    theta = x_star[:m] + 1j * x_star[m:]
    p = pure_probabilities(effects, neighborhood_state(theta).amps)
    loglik = float(counts @ np.log(np.maximum(p, PROBABILITY_FLOOR)))
    return MleResult(theta=theta, log_likelihood=loglik,
                     n_candidates=len(candidates), n_tied=len(tied),
                     converged=converged, at_bound=at_bound(x_star))


def estimate_state(counts, povm, cfg: MleConfig = MleConfig()) -> StateVector:
    """Maximum-likelihood pure-state estimate on the local chart."""
    return estimate_theta(counts, povm, cfg).state


@dataclass(frozen=True)
class BootstrapResult:
    low: float
    high: float
    q25: float
    median: float
    q75: float
    n_boot: int
    degenerate: bool = False

    def as_row(self) -> tuple:
        return (self.low, self.q25, self.median, self.q75, self.high)


def bootstrap_infidelity(counts, povm, reference, n_boot: int, rng,
                         cfg: MleConfig = MleConfig()) -> BootstrapResult:
    """Bootstrap spread of the infidelity versus a fixed reference state.

    Counts are resampled multinomially from the empirical frequencies, each
    replica is re-estimated, and the infidelity of every replica estimate
    against ``reference`` (a DensityMatrix) is collected.
    """
    if n_boot < 10:
        raise InvalidInput("need n_boot >= 10")
    counts = check_counts(counts, povm.n_outcomes)
    total = counts.sum()
    n = int(round(total))
    freqs = counts / total
    if np.count_nonzero(counts) == 1:
        est = estimate_state(counts, povm, cfg)
        value = 1.0 - fidelity(est, reference)
        return BootstrapResult(low=value, high=value, q25=value, median=value,
                               q75=value, n_boot=n_boot, degenerate=True)
    values = np.empty(n_boot)
    for b in range(n_boot):
        resampled = rng.multinomial(n, freqs)
        est = estimate_state(resampled, povm, cfg)
        values[b] = 1.0 - fidelity(est, reference)
    q25, med, q75 = np.quantile(values, [0.25, 0.5, 0.75])
    return BootstrapResult(low=float(values.min()), high=float(values.max()),
                           q25=float(q25), median=float(med), q75=float(q75),
                           n_boot=n_boot)


def fit_power_law(points) -> FitResult:
    """Least squares on (log N, log infidelity) over (N, infidelity) pairs.

    Points with infidelity exactly 0 are excluded with a warning; negative
    infidelities are rejected.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise InvalidInput("need at least two (N, infidelity) points")
    n, y = pts[:, 0], pts[:, 1]
    if np.any(n <= 0) or not np.all(np.isfinite(pts)):
        raise InvalidInput("ensemble sizes must be positive and finite")
    if np.any(y < 0):
        raise InvalidInput("infidelities must be nonnegative")
    keep = y > 0
    if not np.all(keep):
        warnings.warn(f"excluding {np.count_nonzero(~keep)} zero-infidelity points from the fit",
                      stacklevel=2)
    n, y = n[keep], y[keep]
    if n.size < 2:
        raise DegenerateInput("fewer than two positive points remain")
    slope, intercept = np.polyfit(np.log(n), np.log(y), 1)
    resid = np.log(y) - (intercept + slope * np.log(n))
    return FitResult(coefficient=float(np.exp(intercept)), exponent=float(slope),
                     residual=float(np.sqrt(np.mean(resid ** 2))))
