"""Local pure-state maximum-likelihood estimation and power-law fits.

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

The descent runs on a stack of starts, each row with its own outcome
weights: one objective call evaluates every running row, one stacked
eigendecomposition gives their Newton steps, and each row keeps its own line
search and stops on its own. :func:`estimate_theta` descends one count
vector's starts as such a stack; a sweep or a bootstrap
(:mod:`pointtomo.simulate`) descends those of all its trials and their
replicas together. Every per-row sum is taken elementwise, so a row's result
does not depend on the stack it runs in: a bootstrap replica or a sweep
trial gets the same estimate, bit for bit, as :func:`estimate_theta` on the
same counts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DegenerateInput, InvalidInput
from .fisher import PROBABILITY_FLOOR
from .states import StateVector, neighborhood_state, pure_probabilities
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
    state: StateVector                # neighborhood_state(theta)


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
    solved for theta by least squares for each row of an (R, K) stack of
    frequencies. The pseudo-inverse is applied by elementwise sums, so a
    row's solution does not depend on the rest of the stack.
    """
    a0 = effects[:, 0].real
    d = effects.shape[1]
    design = np.empty((effects.shape[0], 2 * (d - 1)))
    for j in range(d - 1):
        caj = effects[:, j + 1].conj()
        design[:, j] = 2.0 * a0 * caj.real
        design[:, d - 1 + j] = -2.0 * a0 * caj.imag
    return (np.linalg.pinv(design) * (freqs - a0 ** 2)[:, None, :]).sum(axis=2)


def _random_start(rng, m: int, radius: float) -> np.ndarray:
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, m))
    phase = rng.uniform(0.0, 2.0 * np.pi, m)
    t = r * np.exp(1j * phase)
    return np.concatenate([t.real, t.imag])


def _neg_log_likelihood(effects: np.ndarray):
    """Objective (x, weights) -> (values, gradients, Hessians) of the negative
    mean log-likelihood, for a (B, 2m) stack of points x and a (B, K) stack of
    outcome weights, one row per point; it returns (B,), (B, 2m) and
    (B, 2m, 2m) arrays.

    x = (Re theta, Im theta). With v = (1, theta), z = conj(A) v and
    s = |v|^2, the model is p_e = |z_e|^2 / s, so -log p_e = -log |z_e|^2 +
    log s. z is affine in x with Jacobian J_e = (B_e, i B_e), B = conj(A)[:, 1:],
    so |z_e|^2 has gradient u_e = 2 Re(conj(z_e) J_e) and the constant Hessian
    G_e = 2 Re(J_e^H J_e). With W the total weight of the unfloored outcomes,

        gradient = -sum_e w_e u_e / |z_e|^2 + 2 W x / s,
        Hessian  = -sum_e w_e (G_e / |z_e|^2 - u_e u_e^T / |z_e|^4)
                   + W (2 I / s - 4 x x^T / s^2).

    Outcomes at the probability floor contribute a constant to the value and
    nothing to the gradient or Hessian. Every sum over outcomes or
    coordinates is an elementwise product summed along an axis, never a BLAS
    product, so a row's result has the same bits in any stack.
    """
    m = effects.shape[1] - 1
    conj_effects = effects.conj()
    jac = np.concatenate([conj_effects[:, 1:], 1j * conj_effects[:, 1:]], axis=1)
    gram = 2.0 * (jac.conj()[:, :, None] * jac[:, None, :]).real     # G_e, (K, 2m, 2m)
    eye = np.eye(2 * m)

    def objective(x, weights):
        v = np.concatenate([np.ones((len(x), 1)), x[:, :m] + 1j * x[:, m:]], axis=1)
        s = 1.0 + (x * x).sum(axis=1)
        p = np.maximum(pure_probabilities(effects, v / np.sqrt(s)[:, None]),
                       PROBABILITY_FLOOR)
        w = np.where(p > PROBABILITY_FLOOR, weights, 0.0)
        z2 = p * s[:, None]                                              # |z_e|^2
        r = w / z2
        q = (conj_effects * v[:, None, :]).sum(axis=2).conj()[:, :, None] * conj_effects[:, 1:]
        u = 2.0 * np.concatenate([q.real, -q.imag], axis=2)              # (B, K, 2m)
        total = w.sum(axis=1)[:, None]
        grad = (2.0 * total / s[:, None]) * x - (r[:, :, None] * u).sum(axis=1)
        curvature = ((r / z2)[:, :, None, None] * u[:, :, :, None] * u[:, :, None, :]
                     - r[:, :, None, None] * gram).sum(axis=1)
        hess = curvature + total[:, :, None] * (
            (2.0 / s)[:, None, None] * eye
            - (4.0 / s ** 2)[:, None, None] * x[:, :, None] * x[:, None, :])
        return -(weights * np.log(p)).sum(axis=1), grad, hess

    return objective


def _newton_direction(x: np.ndarray, grad: np.ndarray, hess: np.ndarray,
                      bound: float) -> np.ndarray:
    """Newton steps for a stack of rows, on the coordinates that the gradient
    does not hold at a face of the box; the Hessian's eigenvalues are taken in
    absolute value (floored), so a step descends also where the objective is
    not convex. Held coordinates are decoupled by an identity block, so that
    one stacked eigendecomposition serves every row, and do not move."""
    held = ((x >= bound) & (grad < 0)) | ((x <= -bound) & (grad > 0))
    hess = np.where(held[:, :, None] | held[:, None, :], np.eye(x.shape[1]), hess)
    lam, vec = np.linalg.eigh(hess)
    lam = np.abs(lam)
    lam = np.maximum(lam, 1e-10 * np.maximum(1.0, lam.max(axis=1, keepdims=True)))
    coef = (vec * np.where(held, 0.0, grad)[:, :, None]).sum(axis=1) / lam
    return np.where(held, 0.0, -(vec * coef[:, None, :]).sum(axis=2))


def _descend(objective, x: np.ndarray, weights: np.ndarray, cfg: MleConfig) -> tuple:
    """Box-projected Newton iteration with a backtracking line search, run on a
    (B, 2m) stack of starts; row b descends the objective of ``weights[b]``.

    Returns (values, x, converged), one entry per row, where converged is the
    outcome of the projected-gradient test max |x - P(x - grad)| <= cfg.tolerance,
    P being the projection onto the chart box. Each row keeps its own step
    length and stops on its own: when it passes the test, after
    cfg.max_iterations steps, or, unconverged, when its step length falls
    below 1e-10. A step is accepted on a sufficient decrease of the value,
    relaxed by the value's rounding error, because the last Newton steps
    lower it by less than one unit in the last place. Each pass makes one
    objective call, at the trial points of the rows still running.
    """
    bound = cfg.chart_bound
    x = np.array(x, dtype=float)
    f, grad, hess = objective(x, weights)
    converged = np.zeros(len(x), dtype=bool)
    steps = np.zeros(len(x), dtype=int)
    t = np.ones(len(x))
    direction = np.zeros_like(x)

    def settle(rows):
        """Stop the rows that pass the test or have taken their last step; give
        the others a Newton direction. Returns the rows still running."""
        ok = np.max(np.abs(x[rows] - np.clip(x[rows] - grad[rows], -bound, bound)),
                    axis=1) <= cfg.tolerance
        converged[rows] = ok
        rows = rows[~ok & (steps[rows] < cfg.max_iterations)]
        direction[rows] = _newton_direction(x[rows], grad[rows], hess[rows], bound)
        t[rows] = 1.0
        return rows

    run = settle(np.arange(len(x)))
    while run.size:
        trial = np.clip(x[run] + t[run, None] * direction[run], -bound, bound)
        f_new, grad_new, hess_new = objective(trial, weights[run])
        slack = 4.0 * np.finfo(float).eps * np.abs(f[run])
        decrease = np.minimum((grad[run] * (trial - x[run])).sum(axis=1), 0.0)
        accept = f_new <= f[run] + 1e-4 * decrease + slack
        moved, back = run[accept], run[~accept]
        x[moved], f[moved] = trial[accept], f_new[accept]
        grad[moved], hess[moved] = grad_new[accept], hess_new[accept]
        steps[moved] += 1
        t[back] *= 0.5
        run = np.concatenate([settle(moved), back[t[back] >= 1e-10]])
    return f, x, converged


def _estimate_rows(effects: np.ndarray, counts: np.ndarray, cfg: MleConfig) -> list:
    """One :class:`MleResult` per row of an (R, K) stack of validated counts.

    The two fixed starts of every row descend as one batch. The rows whose
    fixed starts end at different optima or on the chart bound then get
    cfg.starts random starts each, all in a second batch; the random starts
    are a function of the config only, the same for every row.
    """
    m = effects.shape[1] - 1
    bound = cfg.chart_bound
    weights = counts / counts.sum(axis=1, keepdims=True)
    objective = _neg_log_likelihood(effects)

    def at_bound(x):
        return bool(np.max(np.abs(x)) >= bound * (1.0 - 1e-9))

    def tie_tol(best):
        return 50.0 * max(cfg.tolerance, 1e-14) * max(1.0, abs(best))

    linearized = np.clip(_linearized_theta(effects, weights), -bound, bound)
    x0 = np.stack([np.zeros_like(linearized), linearized], axis=1).reshape(-1, 2 * m)
    f, x, ok = _descend(objective, x0, np.repeat(weights, 2, axis=0), cfg)
    candidates = [list(zip(f[i:i + 2], x[i:i + 2], ok[i:i + 2])) for i in range(0, len(f), 2)]
    retry = [row for row, ((f0, xa, _), (f1, xb, _)) in enumerate(candidates)
             if abs(f0 - f1) > tie_tol(min(f0, f1)) or at_bound(xa) or at_bound(xb)]
    if retry:
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
        starts = np.array([_random_start(rng, m, cfg.start_radius) for _ in range(cfg.starts)])
        f, x, ok = _descend(objective, np.tile(starts, (len(retry), 1)),
                            np.repeat(weights[retry], cfg.starts, axis=0), cfg)
        for i, row in enumerate(retry):
            block = slice(i * cfg.starts, (i + 1) * cfg.starts)
            candidates[row].extend(zip(f[block], x[block], ok[block]))

    picks = []
    for found in candidates:
        best = min(f for f, _, _ in found)
        tied = [(x, ok) for f, x, ok in found if f <= best + tie_tol(best)]
        x_star, converged = min(tied, key=lambda t: float(t[0] @ t[0]))
        picks.append((x_star[:m] + 1j * x_star[m:], len(found), len(tied), bool(converged),
                      at_bound(x_star)))
    states = [neighborhood_state(theta) for theta, *_ in picks]
    p = pure_probabilities(effects, np.array([state.amps for state in states]))
    logliks = (counts * np.log(np.maximum(p, PROBABILITY_FLOOR))).sum(axis=1)
    return [MleResult(theta=theta, log_likelihood=float(loglik), n_candidates=n_candidates,
                      n_tied=n_tied, converged=converged, at_bound=pinned, state=state)
            for (theta, n_candidates, n_tied, converged, pinned), loglik, state
            in zip(picks, logliks, states)]


def estimate_theta(counts, povm, cfg: MleConfig = MleConfig()) -> MleResult:
    """Maximum-likelihood local parameters for observed counts.

    ``counts`` may be integer counts or exact real frequencies. The result
    is deterministic given (cfg, counts).
    """
    counts = check_counts(counts, povm.effects.shape[0])
    return _estimate_rows(povm.effects, counts[None, :], cfg)[0]


def estimate_state(counts, povm, cfg: MleConfig = MleConfig()) -> StateVector:
    """Maximum-likelihood pure-state estimate on the local chart."""
    return estimate_theta(counts, povm, cfg).state


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
