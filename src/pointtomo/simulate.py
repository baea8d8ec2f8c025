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
from .povm import Povm, effects_from_family, gauge_fix_effects, load_device
from .states import (DensityMatrix, born_probabilities, chart_amplitudes, depolarize,
                     equal_deviation_state, fidelities, fidelity)
from .validation import check_counts, check_in_range, check_probability_vector

# Rows estimated per batch: sets the trials per sweep group and bounds the
# (rows, K, 2m, 2m) curvature temporaries of a large bootstrap or sweep.
# Rows are independent, so the block size does not change any estimate.
_REPLICA_BLOCK = 256


def check_theta_scalar(theta_scalar: float) -> None:
    """Reject a prepared state outside the box the estimator searches: its chart
    coordinates, sqrt(theta_scalar) each, must be off the bound by the
    estimator's own test, so 0.35 passes and 0.36 does not."""
    if not theta_scalar >= 0 or on_chart_bound(np.sqrt([theta_scalar])):
        raise InvalidInput(f"theta_scalar must be >= 0 with sqrt(theta_scalar) below the "
                           f"chart bound {MleConfig.chart_bound}, got {theta_scalar}")


@dataclass(frozen=True)
class NoiseConfig:
    """Depolarizing weight and optional systematic misalignment strength."""

    lam: float = 1.0
    systematic_epsilon: float = 0.0

    def __post_init__(self):
        check_in_range(self.lam, 0.0, 1.0, "lam")
        if not (np.isfinite(self.systematic_epsilon) and self.systematic_epsilon >= 0):
            raise InvalidInput("systematic_epsilon must be finite and >= 0, "
                               f"got {self.systematic_epsilon}")


@dataclass(frozen=True)
class SweepConfig:
    """Declarative description of an infidelity-vs-ensemble-size sweep."""

    theta_scalar: float
    n_grid: tuple
    repetitions: int
    noise: NoiseConfig = NoiseConfig()
    subset: tuple = (4, 5, 6, 7)
    phases: tuple | None = None
    device: str = "u7"
    seed: int = 0
    n_boot: int = 0
    mle: MleConfig = MleConfig()

    def __post_init__(self):
        grid = tuple(int(n) for n in self.n_grid)
        if len(grid) < 1 or any(n < 1 for n in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
            raise InvalidInput("n_grid must be strictly increasing with entries >= 1")
        if self.repetitions < 1:
            raise InvalidInput("repetitions must be >= 1")
        check_theta_scalar(self.theta_scalar)
        if self.n_boot != 0 and self.n_boot < 10:
            raise InvalidInput(f"n_boot must be 0 (no bootstrap) or >= 10, got {self.n_boot}")
        object.__setattr__(self, "n_grid", grid)
        object.__setattr__(self, "subset", tuple(int(s) for s in self.subset))
        if self.phases is not None:
            object.__setattr__(self, "phases", tuple(float(p) for p in self.phases))


@dataclass(frozen=True)
class BootstrapResult:
    low: float
    q25: float
    median: float
    q75: float
    high: float
    n_boot: int
    degenerate: bool = False
    n_at_bound: int = 0               # replica estimates on the chart bound
    n_not_converged: int = 0          # replica estimates that failed the convergence test

    def as_row(self) -> tuple:
        return (self.low, self.q25, self.median, self.q75, self.high)


@dataclass(frozen=True)
class SweepResult:
    """All trial rows of a sweep; ``partial`` marks an aborted sweep.

    ``n_at_bound`` and ``n_not_converged`` count the trials whose point
    estimate sits on the chart bound or failed the convergence test, and
    ``n_replicas_at_bound`` and ``n_replicas_not_converged`` the same over
    every trial's bootstrap replicas; they are not part of the table.
    """

    rows: tuple                       # (n, trial, infidelity, boot_low, q25, median, q75, boot_high)
    partial: bool = False
    n_at_bound: int = 0
    n_not_converged: int = 0
    n_replicas_at_bound: int = 0
    n_replicas_not_converged: int = 0
    workers: int = 1                  # processes the sweep ran on

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
    if n == 0:
        return np.zeros(probs.size, dtype=np.int64)
    return rng.multinomial(n, probs / probs.sum())


def perturb_effects(povm: Povm, epsilon: float, rng) -> Povm:
    """Systematic misalignment: rotate all effects by exp(i epsilon H).

    H is a fixed random Hermitian matrix with GUE normalization drawn from
    ``rng``; the rotation is unitary, so completeness is preserved. The
    phase convention is re-fixed afterwards. epsilon = 0 returns the input
    unchanged.
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

    Returns per trial: the point estimate's infidelity against ``state``
    (T,); the replica infidelities' (low, q25, median, q75, high) (T, 5),
    None without a bootstrap; and (T, 5) counts of the point estimate on the
    bound and unconverged, of the replicas on the bound and unconverged, and
    of the replicas.
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
    theta, _, _, _, converged, at_bound = (np.concatenate(a) for a in zip(*blocks))
    values = 1.0 - fidelities(chart_amplitudes(theta), state)
    sizes = np.array([len(own) for own in rows])
    point, replicas = np.cumsum(sizes) - sizes, sizes - 1
    has = (replicas > 0)[:, None]
    own = np.where(has, point[:, None] + 1 + np.arange(n_boot), point[:, None])
    outcomes = np.column_stack([at_bound[point], ~converged[point], (at_bound[own] & has).sum(1),
                                (~converged[own] & has).sum(1), replicas])
    boot = values[own]
    spread = np.column_stack([boot.min(axis=1), *np.quantile(boot, [0.25, 0.5, 0.75], axis=1),
                              boot.max(axis=1)]) if n_boot else None
    return values[point], spread, outcomes


def bootstrap_infidelity(counts, povm, reference, n_boot: int, rng,
                         cfg: MleConfig = MleConfig()) -> BootstrapResult:
    """Bootstrap spread of the infidelity versus a fixed reference state.

    The bootstrap of a sweep trial of one on the given counts: they are
    resampled multinomially from the empirical frequencies, all replicas in
    one draw from ``rng``, each replica is estimated exactly as
    :func:`~pointtomo.estimator.estimate_theta` would, and the infidelities
    of the replica estimates against ``reference`` (a DensityMatrix) are
    summarized. Degenerate counts (a single observed outcome) are estimated
    once, not resampled, and report no replica estimates on the bound or
    unconverged.
    """
    if n_boot < 10:
        raise InvalidInput("need n_boot >= 10")
    counts = check_counts(counts, povm.n_outcomes)
    _, spread, outcomes = _trials(reference, povm, [(counts, rng)], cfg, n_boot)
    _, _, n_at_bound, n_not_converged, replicas = outcomes[0].tolist()
    return BootstrapResult(*spread[0].tolist(), n_boot, not replicas, n_at_bound,
                           n_not_converged)


def sweep_povm(cfg: SweepConfig, povm: Povm | None = None) -> Povm:
    """Measurement the sweep samples: ``povm`` (by default the configured
    device family) under the configured systematic misalignment, drawn from
    the master seed's root stream."""
    if povm is None:
        povm = effects_from_family(load_device(cfg.device), cfg.subset, cfg.phases)
    if cfg.noise.systematic_epsilon > 0:
        povm = perturb_effects(povm, cfg.noise.systematic_epsilon,
                               np.random.default_rng(np.random.SeedSequence(cfg.seed)))
    return povm


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


def run_sweep(cfg: SweepConfig, povm: Povm | None = None, workers: int = 1) -> SweepResult:
    """Execute all (N, trial) work items of a sweep.

    The items are split into contiguous groups of whole trials, at most
    ``_REPLICA_BLOCK // (1 + n_boot)`` trials and at least ``workers``
    groups, and each group is estimated as one batch. The same function maps
    over the groups in this process or, with more than one worker, on a
    process pool; ``workers`` is capped at the number of work items. The
    table rows and the outcome counts are built here from each group's
    arrays. The result is deterministic given (config, seed) and independent
    of ``workers``. Any trial error aborts with a :class:`SweepError` naming
    the failing group's N values and carrying the partial result, flagged as
    such: the rows of the groups finished before the failing one.
    """
    if workers < 1:
        raise InvalidInput(f"workers must be >= 1, got {workers}")
    povm = sweep_povm(cfg, povm)
    rho = prepared_state(cfg, povm.dim)
    items = [(i, n, t) for i, n in enumerate(cfg.n_grid) for t in range(cfg.repetitions)]
    # the fork start method launches every requested process at the first submit
    workers = min(workers, len(items))
    per_group = max(1, _REPLICA_BLOCK // (1 + cfg.n_boot))
    k = max(workers, -(-len(items) // per_group))   # number of groups
    groups = [items[g * len(items) // k:(g + 1) * len(items) // k] for g in range(k)]
    rows, outcomes, done = [], np.zeros(4, dtype=int), 0   # outcomes in SweepResult's order
    try:
        with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
            # the built POVM and state travel to the workers with each group, unvalidated
            for values, spread, counts in (pool.map if pool else map)(
                    partial(_sweep_rows, povm, rho, cfg), groups):
                boots = spread.tolist() if cfg.n_boot else [[np.nan] * 5] * len(values)
                rows += [(float(n), float(t), value, *boot) for (_, n, t), value, boot
                         in zip(groups[done], values.tolist(), boots)]
                outcomes += counts[:, :4].sum(axis=0)
                done += 1
    except Exception as exc:
        failed = ", ".join(map(str, sorted({n for _, n, _ in groups[done]})))
        raise SweepError(f"sweep aborted: trials with N={failed} failed: {exc}",
                         partial=SweepResult(tuple(rows), True, *outcomes.tolist(),
                                             workers)) from exc
    return SweepResult(tuple(rows), False, *outcomes.tolist(), workers)


def expected_infidelity_floor(rho: DensityMatrix, povm: Povm,
                              mle: MleConfig = MleConfig(starts=16)) -> float:
    """Infinite-ensemble infidelity: estimate from exact outcome probabilities.

    This is the plateau level that finite-statistics sweeps approach when
    the preparation is noisy or sits outside the exactly identifiable
    neighborhood.
    """
    return 1.0 - fidelity(estimate_state(born_probabilities(povm, rho), povm, mle), rho)
