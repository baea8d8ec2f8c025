"""Finite-ensemble measurement simulation: noise, sampling, trials, sweeps.

Every trial draws exactly N copies (a multinomial over the outcome
probabilities). Randomness is organized as independent per-trial streams
derived from the master seed and the (grid index, trial index) pair, so a
sweep is reproducible bit for bit regardless of execution order or worker
count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import expm

from .errors import InvalidInput, SweepError
from .estimator import (BootstrapResult, MleConfig, bootstrap_infidelity, estimate_state,
                        estimate_theta)
from .povm import Povm, effects_from_family, gauge_fix_effects, load_device
from .states import (DensityMatrix, StateVector, born_probabilities, depolarize,
                     equal_deviation_state, fiducial_state, fidelity)
from .validation import check_in_range, check_probability_vector


@dataclass(frozen=True)
class NoiseConfig:
    """Depolarizing weight and optional systematic misalignment strength."""

    lam: float = 1.0
    systematic_epsilon: float = 0.0

    def __post_init__(self):
        check_in_range(self.lam, 0.0, 1.0, "lam")
        if self.systematic_epsilon < 0:
            raise InvalidInput("systematic_epsilon must be >= 0")


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
        if self.theta_scalar < 0:
            raise InvalidInput("theta_scalar must be >= 0")
        if self.n_boot != 0 and self.n_boot < 10:
            raise InvalidInput(f"n_boot must be 0 (no bootstrap) or >= 10, got {self.n_boot}")
        object.__setattr__(self, "n_grid", grid)
        object.__setattr__(self, "subset", tuple(int(s) for s in self.subset))
        if self.phases is not None:
            object.__setattr__(self, "phases", tuple(float(p) for p in self.phases))


@dataclass(frozen=True)
class TrialResult:
    n: int
    counts: np.ndarray
    estimate: StateVector
    infidelity: float
    at_bound: bool                    # the estimate sits on the chart bound
    converged: bool                   # the estimator's projected-gradient test passed
    bootstrap: BootstrapResult | None = None


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

    COLUMNS = ("N", "trial", "infidelity", "boot_low", "boot_q25",
               "boot_median", "boot_q75", "boot_high")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.rows, dtype=float)

    def mean_infidelity(self) -> dict:
        arr = self.as_array()
        return {int(n): float(arr[arr[:, 0] == n, 2].mean()) for n in np.unique(arr[:, 0])}

    def points(self) -> np.ndarray:
        """(N, infidelity) pairs of every trial, for power-law fitting."""
        arr = self.as_array()
        return arr[:, :3:2]


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
    if epsilon < 0:
        raise InvalidInput("epsilon must be >= 0")
    if epsilon == 0:
        return povm
    d = povm.dim
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = 0.5 * (g + g.conj().T)
    u = expm(1j * epsilon * h)
    return Povm(gauge_fix_effects(povm.effects @ u.T))


def run_trial(state: DensityMatrix, povm: Povm, n: int, rng,
              mle: MleConfig = MleConfig(), n_boot: int = 0,
              boot_rng=None) -> TrialResult:
    """Sample counts from the true state, estimate, and score the infidelity.

    With ``n_boot`` > 0 the infidelity spread is also bootstrapped, drawing
    the replicas from ``boot_rng``.
    """
    probs = born_probabilities(povm, state)
    counts = sample_counts(probs, n, rng)
    if n == 0:
        estimate, at_bound, converged, boot = fiducial_state(povm.dim), False, True, None
    else:
        try:
            mle_result = estimate_theta(counts, povm, mle)
            boot = (bootstrap_infidelity(counts, povm, state, n_boot, boot_rng, mle)
                    if n_boot > 0 else None)
        except Exception as exc:
            raise type(exc)(f"trial with N={n} failed: {exc}") from exc
        estimate, at_bound, converged = mle_result.state, mle_result.at_bound, mle_result.converged
    return TrialResult(n=n, counts=counts, estimate=estimate,
                       infidelity=1.0 - fidelity(estimate, state), at_bound=at_bound,
                       converged=converged, bootstrap=boot)


def sweep_povm(cfg: SweepConfig) -> Povm:
    """Measurement of the sweep, before any systematic misalignment."""
    return effects_from_family(load_device(cfg.device), cfg.subset, cfg.phases)


def prepared_state(cfg: SweepConfig, dim: int) -> DensityMatrix:
    """Noisy true state of the sweep: depolarized equal-deviation state."""
    return depolarize(equal_deviation_state(cfg.theta_scalar, dim), cfg.noise.lam)


def _sweep_row(povm: Povm, rho: DensityMatrix, cfg: SweepConfig, item) -> tuple:
    """Table row of trial ``t`` at grid index ``i`` (ensemble size ``n``), with
    its optimizer outcome counts: (point estimate on the bound, point estimate
    unconverged, replicas on the bound, replicas unconverged)."""
    i, n, t = item
    trial = run_trial(rho, povm, n, trial_rng(cfg.seed, i, t), cfg.mle, cfg.n_boot,
                      trial_rng(cfg.seed, i, t, stream=1))
    boot = trial.bootstrap
    row = (float(n), float(t), trial.infidelity) + ((np.nan,) * 5 if boot is None
                                                     else boot.as_row())
    replicas = (0, 0) if boot is None else (boot.n_at_bound, boot.n_not_converged)
    return row, (int(trial.at_bound), int(not trial.converged)) + replicas


def run_sweep(cfg: SweepConfig, povm: Povm | None = None, workers: int = 1) -> SweepResult:
    """Execute all (N, trial) work items of a sweep.

    The result is deterministic given (config, seed) and independent of
    ``workers``, which caps the process pool at the number of work items;
    any trial error aborts with a :class:`SweepError` carrying the partial
    result flagged as such.
    """
    if workers < 1:
        raise InvalidInput(f"workers must be >= 1, got {workers}")
    if povm is None:
        povm = sweep_povm(cfg)
    rho = prepared_state(cfg, povm.dim)
    if cfg.noise.systematic_epsilon > 0:
        povm = perturb_effects(povm, cfg.noise.systematic_epsilon,
                               np.random.default_rng(np.random.SeedSequence(cfg.seed)))
    # the built POVM and state travel to the workers with each trial, unvalidated
    row_of = partial(_sweep_row, povm, rho, cfg)
    items = [(i, n, t) for i, n in enumerate(cfg.n_grid) for t in range(cfg.repetitions)]
    # the fork start method launches every requested process at the first submit
    workers = min(workers, len(items))
    rows, outcomes = [], (0, 0, 0, 0)   # SweepResult's outcome counts, in field order
    try:
        with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
            for row, counts in pool.map(row_of, items) if pool else map(row_of, items):
                rows.append(row)
                outcomes = tuple(a + b for a, b in zip(outcomes, counts))
    except Exception as exc:
        raise SweepError(f"sweep aborted: {exc}",
                         partial=SweepResult(tuple(rows), True, *outcomes)) from exc
    return SweepResult(tuple(rows), False, *outcomes)


def expected_infidelity_floor(rho: DensityMatrix, povm: Povm,
                              mle: MleConfig = MleConfig(starts=16)) -> float:
    """Infinite-ensemble infidelity: estimate from exact outcome probabilities.

    This is the plateau level that finite-statistics sweeps approach when
    the preparation is noisy or sits outside the exactly identifiable
    neighborhood.
    """
    probs = born_probabilities(povm, rho)
    est = estimate_state(probs, povm, mle)
    return 1.0 - fidelity(est, rho)
