"""Local pure-state maximum-likelihood estimation and power-law fits.

The estimator maximizes the multinomial log-likelihood over the local chart
theta in C^(d-1) (2(d-1) real variables) with a box-projected Newton
iteration on the closed-form gradient and Hessian. It starts from a
linearized inversion of the observed frequencies, which is close to the
optimum for a state near the fiducial one. Where that start's descent
converges off the chart bound, its end is the estimate. Only the other
rows fall back to a search, one batch of starts from the fiducial point and
from random draws inside the trust region. Among the starts a row descends,
the best likelihood wins; among numerically tied optima the point closest
to the fiducial state is returned, which is the resolution appropriate to
estimation in a trusted neighborhood (a handful of outcomes cannot
distinguish all pure states globally). A decided row searches no further:
at N = 100 its linearized end is now and then a local optimum that the full
search would beat (3 of the 80,800 estimates of the README's paper-scale
grid), and a tie it would have found goes to the linearized end.

The descent runs on a stack of starts, each row with its own outcome
weights: one objective call evaluates every running row, and each row keeps
its own line search and stops on its own. One stacked Gauss-Jordan
elimination gives the Newton steps of the rows whose Hessian it finds
positive definite, most of them; only the other rows are eigendecomposed.
A sweep or a bootstrap (:mod:`pointtomo.simulate`) descends the starts of
all its trials and replicas together and gets its estimates as arrays;
:func:`estimate_theta` is the one-row case, and the only place that builds
an :class:`MleResult`. Every per-row sum is taken elementwise or by an
``np.einsum`` contraction left at ``optimize=False``, which loops in C and
never reaches BLAS, and every choice of path is made from the row's own
values, so a row's estimate does not depend on its stack: it equals
:func:`estimate_theta`'s bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DegenerateInput, InvalidInput
from .fisher import PROBABILITY_FLOOR
from .states import StateVector, chart_amplitudes, pure_probabilities
from .validation import check_counts

@dataclass(frozen=True)
class MleConfig:
    """Optimizer settings for :func:`estimate_state`."""

    starts: ClassVar[int] = 8             # random starts of a fallback row
    tolerance: ClassVar[float] = 1e-10    # max-abs projected gradient at convergence
    max_iterations: ClassVar[int] = 100
    start_radius: ClassVar[float] = 0.3   # |theta_j| bound for random starts
    chart_bound: ClassVar[float] = 0.6    # box bound on Re/Im of each theta_j
    seed: ClassVar[int] = 0               # start draws are a function of the config only


@dataclass(frozen=True)
class MleResult:
    theta: np.ndarray
    log_likelihood: float             # sum_w counts_w * log f(w|theta)
    n_candidates: int
    n_tied: int
    converged: bool                   # projected-gradient test of the returned start
    at_bound: bool                    # some |Re/Im theta_j| on the chart bound
    state: StateVector                # the chart amplitudes of theta


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
    conj = effects[:, 1:].conj()
    design = 2.0 * a0[:, None] * np.concatenate([conj.real, -conj.imag], axis=1)
    return (np.linalg.pinv(design) * (freqs - a0 ** 2)[:, None, :]).sum(axis=2)


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
    nothing to the gradient or Hessian. The curvature sum is two
    ``np.einsum`` contractions over the outcomes, sum_e (w_e / |z_e|^4)
    u_e u_e^T and sum_e (w_e / |z_e|^2) G_e, with ``optimize`` left at its
    default (False): einsum then loops in C and never hands the product to
    BLAS, whose blocking could depend on the stack. Every other sum is an
    elementwise product summed along an axis, so a row's result has the same
    bits in any stack. The Hessian is taken on its lower triangle and
    mirrored, so it is exactly symmetric.
    """
    m = effects.shape[1] - 1
    conj_effects = effects.conj()
    jac = np.concatenate([conj_effects[:, 1:], 1j * conj_effects[:, 1:]], axis=1)
    gram = 2.0 * (jac.conj()[:, :, None] * jac[:, None, :]).real     # G_e, (K, 2m, 2m)
    low_i, low_j = np.tril_indices(2 * m)                             # the 21 entries i >= j
    gram_low = gram[:, low_i, low_j]                                  # (K, 21) for m = 3
    eye_low = np.eye(2 * m)[low_i, low_j]
    # mirror[2m i + j]: the index among the lower-triangle entries of (i, j) or (j, i)
    mirror = np.empty((2 * m, 2 * m), dtype=int)
    mirror[low_i, low_j] = mirror[low_j, low_i] = np.arange(len(low_i))
    mirror = mirror.ravel()
    low_flat = 2 * m * low_i + low_j                                  # (i, j) in a raveled (2m, 2m)

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
        curvature = (np.einsum("bki,bkj->bij", (r / z2)[:, :, None] * u, u)
                     .reshape(len(x), -1)[:, low_flat] - np.einsum("bk,kl->bl", r, gram_low))
        hess_low = curvature + total * ((2.0 / s)[:, None] * eye_low
                                        - (4.0 / s ** 2)[:, None] * x[:, low_i] * x[:, low_j])
        hess = hess_low[:, mirror].reshape(len(x), 2 * m, 2 * m)
        return -(weights * np.log(p)).sum(axis=1), grad, hess

    return objective


def _newton_direction(x: np.ndarray, grad: np.ndarray, hess: np.ndarray,
                      bound: float) -> np.ndarray:
    """Newton steps for a stack of rows, on the coordinates that the gradient
    does not hold at a face of the box. Held coordinates are decoupled by an
    identity block and do not move.

    Gauss-Jordan elimination without pivoting runs on the augmented [H | g]
    stack, one column at a time, and leaves H^-1 g in the last column. A
    symmetric matrix whose pivots are all positive is positive definite, so a
    row whose pivots all exceed 1e-8 max(1, max_j |H_jj|) takes the step
    -H^-1 g. Only the other rows are eigendecomposed: their Hessian's
    eigenvalues are taken in absolute value (floored), so a step descends
    also where the objective is not convex. The choice and the arithmetic of
    a row depend on its own Hessian alone.
    """
    held = ((x >= bound) & (grad < 0)) | ((x <= -bound) & (grad > 0))
    n = x.shape[1]
    hess = np.where(held[:, :, None] | held[:, None, :], np.eye(n), hess)
    grad = np.where(held, 0.0, grad)
    # the stack axis last: every slice below is contiguous along the rows
    a = np.concatenate([hess, grad[:, :, None]], axis=2).transpose(1, 2, 0).copy()
    tiny = 1e-8 * np.maximum(1.0, np.abs(np.diagonal(hess, axis1=1, axis2=2)).max(axis=1))
    definite = np.ones(len(x), dtype=bool)
    for k in range(n):
        definite &= a[k, k] > tiny
        # a failed pivot becomes inf and zeroes its multipliers, so a stack row
        # stops eliminating at its first failed pivot and stays finite
        row = a[k, k:] / np.where(definite, a[k, k], np.inf)
        a[:, k:] -= a[:, k, None] * row
        a[k, k:] = row
    step = -a[:, n].T
    rest = ~definite
    if rest.any():
        lam, vec = np.linalg.eigh(hess[rest])
        lam = np.abs(lam)
        lam = np.maximum(lam, 1e-10 * np.maximum(1.0, lam.max(axis=1, keepdims=True)))
        coef = (vec * grad[rest][:, :, None]).sum(axis=1) / lam
        step[rest] = -(vec * coef[:, None, :]).sum(axis=2)
    return np.where(held, 0.0, step)


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
        if rows.size:
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


def on_chart_bound(x: np.ndarray) -> np.ndarray:
    """Rows of x (real chart coordinates on the last axis) with some
    |coordinate| on the chart bound."""
    return np.max(np.abs(x), axis=-1) >= MleConfig.chart_bound * (1.0 - 1e-9)


def _estimate_rows(effects: np.ndarray, counts: np.ndarray, cfg: MleConfig) -> tuple:
    """Estimates of an (R, K) stack of validated counts, as arrays in
    :class:`MleResult`'s field order: theta (R, d-1), log-likelihood,
    candidates, tied candidates, converged, at-bound and the state's
    amplitudes (R, d).

    The linearized start of every row descends first, one batch of R rows.
    A row whose linearized end passes the convergence test off the chart
    bound is decided there. Only the other rows fall back to the search, a
    second batch: their zero start (the fiducial point) and cfg.starts
    random starts, a function of the config only, the same for every row.
    The optimum is chosen over (rows, candidates) arrays, slot 0 the zero
    start, slot 1 the linearized start, then the random starts, +inf in the
    slots that did not run: the best value, then the tied point closest to
    the fiducial, first in start order.
    """
    m = effects.shape[1] - 1
    bound = cfg.chart_bound
    weights = counts / counts.sum(axis=1, keepdims=True)
    objective = _neg_log_likelihood(effects)
    shape = (len(counts), 2 + cfg.starts)
    f, x, ok = np.full(shape, np.inf), np.zeros(shape + (2 * m,)), np.zeros(shape, dtype=bool)
    x0 = np.zeros(shape + (2 * m,))                     # slot 0: the zero start
    x0[:, 1] = np.clip(_linearized_theta(effects, weights), -bound, bound)

    def descend(todo):
        """One batch: the starts of the (row, slot) pairs where ``todo`` is set."""
        if todo.any():
            f[todo], x[todo], ok[todo] = _descend(objective, x0[todo],
                                                  weights[np.nonzero(todo)[0]], cfg)

    slots = np.arange(shape[1])
    descend(np.broadcast_to(slots == 1, shape))
    fallback = on_chart_bound(x[:, 1]) | ~ok[:, 1]
    if fallback.any():
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
        # per start: m uniform radii, then m uniform phases
        u = rng.uniform(size=(cfg.starts, 2, m))
        t = cfg.start_radius * np.sqrt(u[:, 0]) * np.exp(1j * (2.0 * np.pi * u[:, 1]))
        x0[:, 2:] = np.concatenate([t.real, t.imag], axis=1)
        descend(fallback[:, None] & (slots != 1))

    best = f.min(axis=1)
    tied = f <= (best + 50.0 * cfg.tolerance * np.maximum(1.0, np.abs(best)))[:, None]
    norm2 = (x[:, :, None, :] @ x[:, :, :, None])[:, :, 0, 0]       # x @ x, by dot
    pick = (np.arange(len(f)), np.where(tied, norm2, np.inf).argmin(axis=1))
    x_star = x[pick]
    theta = x_star[:, :m] + 1j * x_star[:, m:]
    amps = chart_amplitudes(theta)
    p = pure_probabilities(effects, amps)
    loglik = (counts * np.log(np.maximum(p, PROBABILITY_FLOOR))).sum(axis=1)
    return (theta, loglik, 1 + (1 + cfg.starts) * fallback, tied.sum(axis=1), ok[pick],
            on_chart_bound(x_star), amps)


def estimate_theta(counts, povm, cfg: MleConfig = MleConfig()) -> MleResult:
    """Maximum-likelihood local parameters for observed counts.

    ``counts`` may be integer counts or exact real frequencies. The result
    is deterministic given (cfg, counts).
    """
    counts = check_counts(counts, povm.effects.shape[0])
    theta, *fields, amps = (a[0] for a in _estimate_rows(povm.effects, counts[None, :], cfg))
    return MleResult(theta, *(a.item() for a in fields), StateVector(amps))


def estimate_state(counts, povm, cfg: MleConfig = MleConfig()) -> StateVector:
    """Maximum-likelihood pure-state estimate on the local chart."""
    return estimate_theta(counts, povm, cfg).state


def fit_power_law(points) -> FitResult:
    """Least squares on (log N, log infidelity) over (N, infidelity) pairs.

    Points with infidelity exactly 0 are excluded with a warning; negative
    or non-finite infidelities are rejected. The points left must span at
    least two distinct N, or the slope is undetermined.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise InvalidInput("need at least two (N, infidelity) points")
    n, y = pts[:, 0], pts[:, 1]
    if not np.all(np.isfinite(n) & (n > 0)):
        raise InvalidInput("ensemble sizes must be positive and finite")
    if not np.all(np.isfinite(y) & (y >= 0)):
        raise InvalidInput("infidelities must be nonnegative and finite")
    keep = y > 0
    if not np.all(keep):
        warnings.warn(f"excluding {np.count_nonzero(~keep)} zero-infidelity points from the fit",
                      stacklevel=2)
    n, y = n[keep], y[keep]
    if np.unique(n).size < 2:
        raise DegenerateInput("fewer than two distinct N remain among the positive points")
    slope, intercept = np.polyfit(np.log(n), np.log(y), 1)
    resid = np.log(y) - (intercept + slope * np.log(n))
    return FitResult(coefficient=float(np.exp(intercept)), exponent=float(slope),
                     residual=float(np.sqrt(np.mean(resid ** 2))))
