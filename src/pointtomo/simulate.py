"""Finite-ensemble measurement simulation: noise, sampling, trials, sweeps
and the bootstrap.

Every trial draws exactly N copies (a multinomial over the outcome
probabilities). Randomness is organized as independent per-trial streams
derived from the master seed and the (grid index, trial index) pair, so a
sweep is reproducible bit for bit regardless of execution order or worker
count.

A sweep's unit of work is a contiguous group of whole trials: the counts of
each trial and, with a bootstrap, its replicas (drawn from the trial's second
stream) are stacked and estimated together, at most ``_REPLICA_BLOCK`` rows
per batch. The groups run the same way in this process or on a pool of
workers. A row's estimate does not depend on the stack it runs in, so each
trial's infidelity equals :func:`~pointtomo.estimator.estimate_theta` on its
counts, and its bootstrap equals :func:`bootstrap_infidelity`, the one-trial
case of the same path, on those counts.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InvalidInput, SweepError
from .estimator import MleConfig, _estimate_rows, estimate_state, on_chart_bound
from .povm import Povm, gauge_fix_effects
from .states import (DensityMatrix, born_probabilities, depolarize, equal_deviation_state,
                     fidelities, fidelity)
from .validation import check_counts, check_in_range, check_probability_vector

# Rows estimated per batch: sets the trials per sweep group and bounds the
# (rows, K, 2m, 2m) curvature temporaries of a large bootstrap or sweep.
# Rows are independent, so the block size does not change any estimate.
_REPLICA_BLOCK = 256

# The outcome counts of a run's estimates, the keys of _trials' tally: point
# estimates, then bootstrap replicas, on the chart bound and unconverged.
OUTCOMES = ("estimates_at_bound", "estimates_not_converged", "replicas_at_bound",
            "replicas_not_converged")


def check_theta_scalar(theta_scalar: float) -> None:
    """Reject a prepared state outside the box the estimator searches: its chart
    coordinates, sqrt(theta_scalar) each, must be off the bound by the
    estimator's own test, so 0.35 passes and 0.36 does not."""
    if not theta_scalar >= 0 or on_chart_bound(np.sqrt([theta_scalar])):
        raise InvalidInput(f"theta_scalar must be >= 0 with sqrt(theta_scalar) below the "
                           f"chart bound {MleConfig.chart_bound}, got {theta_scalar}")


@dataclass(frozen=True)
class NoiseConfig:
    """Depolarizing weight of the prepared state."""

    lam: float = 1.0

    def __post_init__(self):
        check_in_range(self.lam, 0.0, 1.0, "lam")


@dataclass(frozen=True)
class SweepConfig:
    """Declarative description of an infidelity-vs-ensemble-size sweep; the
    measurement it samples is the POVM passed to :func:`run_sweep`."""

    theta_scalar: float
    n_grid: tuple
    repetitions: int
    noise: NoiseConfig = NoiseConfig()
    seed: int = 0
    n_boot: int = 0
    mle: MleConfig = MleConfig()

    def __post_init__(self):
        grid = tuple(int(n) for n in self.n_grid)
        if len(grid) < 1 or any(n < 1 for n in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
            raise InvalidInput("n_grid must be strictly increasing with entries >= 1")
        if self.repetitions < 1:
            raise InvalidInput("repetitions must be >= 1")
        if self.seed < 0:
            raise InvalidInput(f"seed must be >= 0, got {self.seed}")
        check_theta_scalar(self.theta_scalar)
        if self.n_boot != 0 and self.n_boot < 10:
            raise InvalidInput(f"n_boot must be 0 (no bootstrap) or >= 10, got {self.n_boot}")
        object.__setattr__(self, "n_grid", grid)


@dataclass(frozen=True)
class BootstrapResult:
    low: float
    q25: float
    median: float
    q75: float
    high: float
    degenerate: bool
    outcomes: dict                    # OUTCOMES -> count, of the point estimate and replicas

    def as_row(self) -> tuple:
        return (self.low, self.q25, self.median, self.q75, self.high)


@dataclass(frozen=True)
class SweepResult:
    """All trial rows of a sweep; an aborted sweep's finished rows travel
    in its :class:`SweepError`'s ``partial``.

    ``outcomes`` sums the :data:`OUTCOMES` of every trial's point estimate
    and bootstrap replicas; it is not part of the table.
    """

    rows: tuple                       # (n, trial, infidelity, boot_low, q25, median, q75, boot_high)
    outcomes: dict
    workers: int                      # processes the sweep ran on

    COLUMNS = ("N", "trial", "infidelity", "boot_low", "boot_q25",
               "boot_median", "boot_q75", "boot_high")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.rows, dtype=float)

    def mean_infidelity(self) -> dict:
        arr = self.as_array()
        return {int(n): float(arr[arr[:, 0] == n, 2].mean()) for n in np.unique(arr[:, 0])}

    def points(self) -> np.ndarray:
        """(N, infidelity) pairs of every trial, for power-law fitting."""
        return self.as_array()[:, :3:2]


def trial_rng(master_seed: int, grid_index: int, trial: int, stream: int = 0):
    """Independent generator for one work item of a sweep."""
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(grid_index, trial, stream)))


def sample_counts(probs, n: int, rng) -> np.ndarray:
    """Multinomial draw of ``n`` copies; counts sum to ``n`` exactly."""
    probs = check_probability_vector(probs)
    n = int(n)
    if n < 0:
        raise InvalidInput("ensemble size must be >= 0")
    return rng.multinomial(n, probs / probs.sum())


def perturb_effects(povm: Povm, epsilon: float, rng) -> Povm:
    """Systematic misalignment: rotate all effects by exp(i epsilon H).

    H is a fixed random Hermitian matrix with GUE normalization drawn from
    ``rng``; the rotation is unitary, so completeness is preserved. The
    phase convention is re-fixed afterwards. epsilon = 0 returns the input
    unchanged. A sweep's misalignment is this rotation applied by the caller;
    ``simulate --epsilon`` draws it from the master seed's root stream.
    """
    if not (np.isfinite(epsilon) and epsilon >= 0):
        raise InvalidInput(f"epsilon must be finite and >= 0, got {epsilon}")
    if epsilon == 0:
        return povm
    d = povm.dim
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = 0.5 * (g + g.conj().T)
    lam, vec = np.linalg.eigh(h)
    u = (vec * np.exp(1j * epsilon * lam)) @ vec.conj().T
    return Povm(gauge_fix_effects(povm.effects @ u.T))


def _resample(counts: np.ndarray, n_boot: int, rng) -> np.ndarray:
    """``n_boot`` multinomial replicas of validated ``counts``, drawn at once
    from the empirical frequencies; one draw of all replicas gives the same
    replicas as one draw per replica in turn."""
    total = counts.sum()
    n = int(round(total))
    if n < 1:
        raise InvalidInput(f"counts must total at least 1 to be resampled, got {total}")
    return rng.multinomial(n, counts / total, size=n_boot).astype(float)


def _trials(state: DensityMatrix, povm: Povm, draws: list, mle: MleConfig,
            n_boot: int) -> tuple:
    """Estimate and score every ``(counts, boot_rng)`` in ``draws`` in one
    batch: the counts of every trial, each followed by its ``n_boot``
    replicas (resampled in one draw from its ``boot_rng``), form one stack,
    estimated in one call (in block-sized slices beyond ``_REPLICA_BLOCK``
    rows) and scored at once. Degenerate counts (one observed outcome) are
    estimated once and not resampled, and the point estimate stands in for
    their replicas.

    Returns per trial the point estimate's infidelity against ``state``
    (T,) and the replica infidelities' (low, q25, median, q75, high) (T, 5),
    None without a bootstrap; and the tally of all trials, the
    :data:`OUTCOMES` keyed by name.
    """
    rows = []
    for counts, boot_rng in draws:
        own = counts[None, :].astype(float)
        if n_boot > 0 and np.count_nonzero(counts) > 1:
            own = np.concatenate([own, _resample(own[0], n_boot, boot_rng)])
        rows.append(own)
    stack = np.concatenate(rows)
    blocks = [_estimate_rows(povm.effects, stack[start:start + _REPLICA_BLOCK], mle)
              for start in range(0, len(stack), _REPLICA_BLOCK)]
    *_, converged, at_bound, amps = (np.concatenate(a) for a in zip(*blocks))
    values = 1.0 - fidelities(amps, state)
    sizes = np.array([len(own) for own in rows])
    point = np.cumsum(sizes) - sizes
    replica = np.ones(len(stack), dtype=bool)
    replica[point] = False
    tally = dict(zip(OUTCOMES, [int(np.count_nonzero(flag[rows])) for rows in (point, replica)
                                for flag in (at_bound, ~converged)]))
    own = point[:, None] + (sizes[:, None] > 1) * (1 + np.arange(n_boot))
    spread = np.quantile(values[own], [0, 0.25, 0.5, 0.75, 1], axis=1).T if n_boot else None
    return values[point], spread, tally


def bootstrap_infidelity(counts, povm, reference, n_boot: int, rng,
                         cfg: MleConfig = MleConfig()) -> BootstrapResult:
    """Bootstrap spread of the infidelity versus a fixed reference state.

    The bootstrap of a sweep trial of one on the given counts: they are
    resampled multinomially from the empirical frequencies, all replicas in
    one draw from ``rng``, each replica is estimated exactly as
    :func:`~pointtomo.estimator.estimate_theta` would, and the infidelities
    of the replica estimates against ``reference`` (a DensityMatrix) are
    summarized. ``outcomes`` counts the point estimate of the counts and the
    replica estimates on the bound or unconverged. Degenerate counts (a
    single observed outcome) are estimated once, not resampled, and report
    no replica estimates on the bound or unconverged.
    """
    if n_boot < 10:
        raise InvalidInput("need n_boot >= 10")
    counts = check_counts(counts, povm.n_outcomes)
    _, spread, tally = _trials(reference, povm, [(counts, rng)], cfg, n_boot)
    return BootstrapResult(*spread[0].tolist(), bool(np.count_nonzero(counts) <= 1), tally)


def prepared_state(cfg: SweepConfig, dim: int) -> DensityMatrix:
    """Noisy true state of the sweep: depolarized equal-deviation state."""
    return depolarize(equal_deviation_state(cfg.theta_scalar, dim), cfg.noise.lam)


def _sweep_rows(povm: Povm, rho: DensityMatrix, cfg: SweepConfig, group) -> tuple:
    """:func:`_trials` on the draws of each (grid index, N, trial) in
    ``group``, estimated and scored as one batch."""
    probs = born_probabilities(povm, rho)
    draws = [(sample_counts(probs, n, trial_rng(cfg.seed, i, t)),
              trial_rng(cfg.seed, i, t, stream=1) if cfg.n_boot else None)
             for i, n, t in group]
    return _trials(rho, povm, draws, cfg.mle, cfg.n_boot)


def run_sweep(cfg: SweepConfig, povm: Povm, workers: int = 1) -> SweepResult:
    """Execute all (N, trial) work items of a sweep, sampling ``povm``.

    The items are split into contiguous groups of whole trials, at most
    ``_REPLICA_BLOCK // (1 + n_boot)`` trials and at least ``workers``
    groups, and each group is estimated as one batch. The same function maps
    over the groups in this process or, with more than one worker, on a
    process pool; ``workers`` is capped at the number of work items. The
    table rows and the outcome counts are built here from each group's
    arrays. The result is deterministic given (config, seed) and independent
    of ``workers``. Any trial error aborts with a :class:`SweepError` naming
    the failing group's N values and carrying the partial result: the rows
    of the groups finished before the failing one.
    """
    if workers < 1:
        raise InvalidInput(f"workers must be >= 1, got {workers}")
    rho = prepared_state(cfg, povm.dim)
    items = [(i, n, t) for i, n in enumerate(cfg.n_grid) for t in range(cfg.repetitions)]
    # the fork start method launches every requested process at the first submit
    workers = min(workers, len(items))
    per_group = max(1, _REPLICA_BLOCK // (1 + cfg.n_boot))
    k = max(workers, -(-len(items) // per_group))   # number of groups
    groups = [items[g * len(items) // k:(g + 1) * len(items) // k] for g in range(k)]
    rows, outcomes, done = [], dict.fromkeys(OUTCOMES, 0), 0
    try:
        with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
            # the built POVM and state travel to the workers with each group, unvalidated
            for values, spread, tally in (pool.map if pool else map)(
                    partial(_sweep_rows, povm, rho, cfg), groups):
                boots = spread.tolist() if cfg.n_boot else [[np.nan] * 5] * len(values)
                rows += [(float(n), float(t), value, *boot) for (_, n, t), value, boot
                         in zip(groups[done], values.tolist(), boots)]
                outcomes = {name: outcomes[name] + tally[name] for name in OUTCOMES}
                done += 1
    except Exception as exc:
        failed = ", ".join(map(str, sorted({n for _, n, _ in groups[done]})))
        raise SweepError(f"sweep aborted: trials with N={failed} failed: {exc}",
                         partial=SweepResult(tuple(rows), outcomes, workers)) from exc
    return SweepResult(tuple(rows), outcomes, workers)


def expected_infidelity_floor(rho: DensityMatrix, povm: Povm) -> float:
    """Infinite-ensemble infidelity: estimate from exact outcome probabilities.

    This is the plateau level that finite-statistics sweeps approach when
    the preparation is noisy or sits outside the exactly identifiable
    neighborhood.
    """
    estimate = estimate_state(born_probabilities(povm, rho), povm, MleConfig(starts=16))
    return 1.0 - fidelity(estimate, rho)
