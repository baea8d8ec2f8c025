import concurrent.futures

import numpy as np
import pytest

import pointtomo.simulate as sim
from conftest import dft_columns
from pointtomo import estimator
from pointtomo.cli import main
from pointtomo.errors import InvalidInput, SweepError
from pointtomo.estimator import MleConfig, estimate_theta
from pointtomo.fisher import asymptotic_infidelity_coefficient, c_norm, cfim_numeric, qfim_pure
from pointtomo.povm import Povm, effects_from_family, gauge_fix_effects
from pointtomo.io import sweep_table_text
from pointtomo.simulate import (NoiseConfig, SweepConfig, bootstrap_infidelity,
                                expected_infidelity_floor, perturb_effects, prepared_state,
                                run_sweep, sample_counts, trial_rng)
from pointtomo.states import (DensityMatrix, born_probabilities, depolarize,
                              equal_deviation_state, fidelity, neighborhood_state)


def run_trial(rho, povm, cfg, i, t):
    """Trial ``t`` at grid index ``i`` of the sweep ``cfg`` run on its own by
    the one-call public functions, the reference for the sweep's batch:
    estimate_theta on the trial's regenerated counts and, with a bootstrap,
    bootstrap_infidelity on them and the trial's replica stream. Returns the
    counts, the estimate, its infidelity and the BootstrapResult (None
    without a bootstrap)."""
    counts = sample_counts(born_probabilities(povm, rho), cfg.n_grid[i],
                           trial_rng(cfg.seed, i, t))
    fit = estimate_theta(counts, povm, cfg.mle)
    boot = bootstrap_infidelity(counts, povm, rho, cfg.n_boot,
                                trial_rng(cfg.seed, i, t, stream=1),
                                cfg.mle) if cfg.n_boot else None
    return counts, fit, 1.0 - fidelity(fit.state, rho), boot


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the process pool with a recording stand-in that maps in this
    process, so no real pool is started at any size; returns the list of the
    pool sizes asked for."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


class TestSampleCounts:
    def test_deterministic_outcome(self):
        counts = sample_counts([1.0, 0.0, 0.0], 100, np.random.default_rng(0))
        assert np.array_equal(counts, [100, 0, 0])

    def test_zero_copies(self):
        counts = sample_counts(np.full(7, 1 / 7), 0, np.random.default_rng(0))
        assert np.array_equal(counts, np.zeros(7))

    def test_uniform_moments(self):
        n = 10 ** 6
        counts = sample_counts(np.full(7, 1 / 7), n, np.random.default_rng(1))
        sigma = np.sqrt(n * (1 / 7) * (6 / 7))
        assert np.all(np.abs(counts - n / 7) < 5 * sigma)
        assert counts.sum() == n

    def test_counts_always_sum_to_n(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = rng.dirichlet(np.ones(7))
            n = int(rng.integers(0, 1000))
            assert sample_counts(p, n, rng).sum() == n

    def test_negative_probabilities_rejected(self):
        with pytest.raises(InvalidInput):
            sample_counts([0.5, 0.6, -0.1], 10, np.random.default_rng(0))
        with pytest.raises(InvalidInput) as excinfo:
            sample_counts([0.5, 0.4], 10, np.random.default_rng(0))
        message = str(excinfo.value)
        assert message.endswith("got 0.9") and "np." not in message


class TestPerturbEffects:
    def test_zero_strength_is_identity(self, family_povm):
        assert perturb_effects(family_povm, 0.0, np.random.default_rng(0)) is family_povm

    def test_completeness_preserved(self, family_povm):
        povm = perturb_effects(family_povm, 0.05, np.random.default_rng(3))
        assert povm.completeness_deviation < 1e-10
        delta = np.linalg.norm(povm.effects - family_povm.effects)
        assert 0 < delta < 10 * 0.05

    def test_c_norm_continuity(self, family_povm):
        base = c_norm(family_povm)
        povm = perturb_effects(family_povm, 0.05, np.random.default_rng(4))
        assert abs(c_norm(povm) - base) < 10 * 0.05

    def test_negative_strength_rejected(self, family_povm):
        with pytest.raises(InvalidInput):
            perturb_effects(family_povm, -0.1, np.random.default_rng(0))

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
    def test_non_finite_strength_rejected(self, family_povm, epsilon):
        with pytest.raises(InvalidInput, match="^epsilon must be finite and >= 0"):
            perturb_effects(family_povm, epsilon, np.random.default_rng(0))

    @pytest.mark.parametrize("epsilon", [1e-3, 0.05, 0.3])
    def test_rotation_is_unitary(self, epsilon):
        # the identity POVM's rotated effects are the rows of the rotation,
        # each times a phase, so their completeness deviation is the rotation's
        # deviation from unitarity
        for seed in range(5):
            povm = perturb_effects(Povm(np.eye(4)), epsilon, np.random.default_rng(seed))
            assert povm.completeness_deviation < 1e-12

    @pytest.mark.parametrize("epsilon", [1e-3, 0.05, 0.3])
    def test_rotation_matches_matrix_exponential(self, family_povm, epsilon):
        expm = pytest.importorskip("scipy.linalg").expm
        for seed in range(5):
            rng = np.random.default_rng(seed)
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            u = expm(1j * epsilon * 0.5 * (g + g.conj().T))
            want = gauge_fix_effects(family_povm.effects @ u.T)
            got = perturb_effects(family_povm, epsilon, np.random.default_rng(seed)).effects
            assert np.max(np.abs(got - want)) < 1e-12


class TestTruthInsideChart:
    # the estimator's own on-bound test: sqrt(0.36) = 0.6 is on the bound
    @pytest.mark.parametrize("theta", [0.36, 0.37, 0.5, np.inf, np.nan, -0.1])
    def test_config_rejects_a_truth_on_or_outside_the_box(self, theta):
        with pytest.raises(InvalidInput, match="chart bound"):
            SweepConfig(theta_scalar=theta, n_grid=(100,), repetitions=1)

    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.35])
    def test_config_accepts_a_truth_inside_the_box(self, theta):
        assert SweepConfig(theta_scalar=theta, n_grid=(100,), repetitions=1).theta_scalar == theta


def test_config_rejects_a_negative_seed():
    # numpy's seed sequences take integers >= 0: refused here, not in every trial
    with pytest.raises(InvalidInput, match="seed must be >= 0"):
        SweepConfig(theta_scalar=0.01, n_grid=(100,), repetitions=1, seed=-1)


class TestRunTrial:
    def test_noiseless_fiducial_large_ensemble(self, family_povm):
        cfg = SweepConfig(theta_scalar=0.0, n_grid=(100_000,), repetitions=1, seed=5)
        rho = depolarize(neighborhood_state(np.zeros(3)), 1.0)
        counts, _, infidelity, _ = run_trial(rho, family_povm, cfg, 0, 0)
        assert counts.sum() == 100_000
        assert infidelity < 1e-3

    def test_short_bootstrap_rejected(self):
        # 0 (no bootstrap) or at least 10 replicas
        for n_boot in (-3, 5):
            with pytest.raises(InvalidInput, match="n_boot must be 0"):
                SweepConfig(theta_scalar=0.1, n_grid=(1000,), repetitions=1, seed=5,
                            n_boot=n_boot)

    @pytest.mark.parametrize("n", [1, 100, 10_000])
    def test_bootstrap_infidelity_is_the_trial_bootstrap(self, family_povm, n):
        # N=1 is degenerate, N=100 has replicas on the chart bound: the sweep
        # row's bootstrap columns are bootstrap_infidelity on the trial's
        # counts and replica stream
        cfg = SweepConfig(theta_scalar=0.2, n_grid=(n,), repetitions=3,
                          noise=NoiseConfig(lam=0.987), seed=5, n_boot=10)
        rho = prepared_state(cfg, family_povm.dim)
        _, _, infidelity, boot = run_trial(rho, family_povm, cfg, 0, 2)
        assert run_sweep(cfg, povm=family_povm).rows[2] == (float(n), 2.0, infidelity,
                                                             *boot.as_row())
        assert boot.degenerate == (n == 1)
        if n == 100:
            assert boot.outcomes["replicas_at_bound"] > 0

    def test_noisy_floor_scale(self, family_povm):
        # infinite-ensemble infidelity of the depolarized state sits at the
        # analytic scale (1 - lam)(1 - 1/d) ~ 0.00975
        rho = depolarize(equal_deviation_state(0.01), 0.987)
        floor = expected_infidelity_floor(rho, family_povm)
        assert 0.003 < floor < 0.03

    @pytest.mark.parametrize("theta, lam", [(0.2, 0.987), (0.1, 0.95), (0.2, 0.5)])
    def test_floor_estimate_is_decided_by_the_linearized_start(self, family_povm,
                                                              monkeypatch, theta, lam):
        # exact probabilities, also of a mixed truth, never fall back to the search
        candidates = []
        estimate_rows = estimator._estimate_rows

        def recording(*args):
            columns = estimate_rows(*args)
            candidates.extend(columns[2].tolist())
            return columns

        monkeypatch.setattr(estimator, "_estimate_rows", recording)
        expected_infidelity_floor(depolarize(equal_deviation_state(theta), lam), family_povm)
        assert candidates == [1]


@pytest.fixture(scope="module")
def phased_family_povm(device):
    """The 4567 family at one fixed nonzero set of input phases."""
    return effects_from_family(device, (4, 5, 6, 7), (0.0, 0.7, 1.9, 4.1))


class TestAsymptoticCoefficient:
    """Mean N * infidelity in the asymptotic regime against the local prediction
    tr(J I^-1) / 4 at the true state, from the assembled QFIM J and CFIM I
    there. At the fiducial point it is the device's sum_i 1 / (1 - s_i^2) from
    the C singular values s_i; the sweeps prepare theta = 0.01, off it."""

    # tr(J I^-1) / 4 at the equal-deviation state theta = 0.01
    LOCAL = {"family_povm": 3.899,
             "phased_family_povm": 3.781,  # off the fiducial point, input phases matter
             "fsm_povm": 3.008}

    @pytest.mark.parametrize("povm_name, predicted", [
        ("family_povm", 3.806),          # the paper's 3.8/N
        ("phased_family_povm", 3.806),   # input phases leave the singular values alone
        ("fsm_povm", 3.0),               # Fisher symmetric: the Gill-Massar (d-1)/N
    ])
    def test_mean_n_infidelity_within_3_se(self, povm_name, predicted, request):
        povm = request.getfixturevalue(povm_name)
        assert asymptotic_infidelity_coefficient(povm) == pytest.approx(predicted, abs=5e-4)
        theta = np.full(povm.dim - 1, np.sqrt(0.01), dtype=complex)
        information = cfim_numeric(povm, theta).assembled()
        coef = np.trace(qfim_pure(theta).assembled() @ np.linalg.inv(information)).real / 4
        assert coef == pytest.approx(self.LOCAL[povm_name], abs=5e-4)
        cfg = SweepConfig(theta_scalar=0.01, n_grid=(10_000, 100_000), repetitions=200,
                          noise=NoiseConfig(lam=1.0), seed=2024)
        arr = run_sweep(cfg, povm=povm).as_array()
        for n in cfg.n_grid:
            scaled = n * arr[arr[:, 0] == n, 2]
            se = scaled.std(ddof=1) / np.sqrt(scaled.size)
            assert abs(scaled.mean() - coef) <= 3 * se, (n, scaled.mean(), se, coef)


class TestRunSweep:
    CFG = SweepConfig(theta_scalar=0.01, n_grid=(200, 2000), repetitions=4,
                      noise=NoiseConfig(lam=1.0), seed=42)

    def test_determinism_bitwise(self, family_povm):
        t1 = sweep_table_text(run_sweep(self.CFG, family_povm))
        t2 = sweep_table_text(run_sweep(self.CFG, family_povm))
        assert t1 == t2

    def test_worker_count_does_not_change_results(self, family_povm):
        t1 = sweep_table_text(run_sweep(self.CFG, family_povm, workers=1))
        t2 = sweep_table_text(run_sweep(self.CFG, family_povm, workers=2))
        assert t1 == t2

    def test_rows_key_uniqueness_and_shape(self, family_povm):
        res = run_sweep(self.CFG, family_povm)
        arr = res.as_array()
        keys = {(int(r[0]), int(r[1])) for r in arr}
        assert len(keys) == len(arr) == 8

    def test_bootstrap_columns_ordered(self, family_povm):
        cfg = SweepConfig(theta_scalar=0.01, n_grid=(300,), repetitions=2,
                          seed=7, n_boot=15)
        arr = run_sweep(cfg, povm=family_povm).as_array()
        low, q25, med, q75, high = arr[:, 3], arr[:, 4], arr[:, 5], arr[:, 6], arr[:, 7]
        assert np.all(low <= q25 + 1e-15)
        assert np.all(q25 <= med + 1e-15)
        assert np.all(med <= q75 + 1e-15)
        assert np.all(q75 <= high + 1e-15)

    def test_plateau_monotone_and_floored(self, family_povm):
        cfg = SweepConfig(theta_scalar=0.2, n_grid=(1000, 10_000, 100_000), repetitions=12,
                          noise=NoiseConfig(lam=0.987), seed=13)
        res = run_sweep(cfg, povm=family_povm, workers=2)
        # 2 of the 12 point estimates at N=1e3 end on the chart bound, none at
        # larger N; the counts stay out of the table
        assert (res.outcomes["estimates_at_bound"], res.outcomes["estimates_not_converged"]) == \
            (2, 0)
        arr = res.as_array()
        means, errs = [], []
        for n in sorted(set(arr[:, 0])):
            sel = arr[arr[:, 0] == n, 2]
            means.append(sel.mean())
            errs.append(sel.std() / np.sqrt(len(sel)))
        for i in range(len(means) - 1):
            assert means[i + 1] <= means[i] + 2 * (errs[i] + errs[i + 1])
        rho = depolarize(equal_deviation_state(0.2), 0.987)
        floor = expected_infidelity_floor(rho, family_povm)
        assert means[-1] > 0.5 * floor > 0

    def test_scaling_band_per_ensemble_size(self, family_povm):
        # 200 repetitions at theta = 0.01, no depolarization: the mean
        # infidelity tracks the asymptotic 3.8/N coefficient and stays
        # inside [2.5/N, 5/N] at every grid point
        cfg = SweepConfig(theta_scalar=0.01, n_grid=(100, 1000, 10_000), repetitions=200,
                          noise=NoiseConfig(lam=1.0), seed=0)
        means = run_sweep(cfg, povm=family_povm, workers=2).mean_infidelity()
        for n, mean in means.items():
            assert 2.5 / n <= mean <= 5.0 / n, (n, mean * n)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_dft_sweep_reaches_the_gill_massar_limit(self, d):
        # at the fiducial state, noiseless, the 2d-1 outcome Fisher-symmetric
        # measurement's mean N * infidelity lies within 3 SE of d - 1 at every N
        cfg = SweepConfig(theta_scalar=0.0, n_grid=(1000, 10_000, 100_000), repetitions=2000,
                          seed=7)
        arr = run_sweep(cfg, Povm(dft_columns(2 * d - 1, d))).as_array()
        for n in cfg.n_grid:
            scaled = n * arr[arr[:, 0] == n, 2]
            se = scaled.std(ddof=1) / np.sqrt(scaled.size)
            assert abs(scaled.mean() - (d - 1)) <= 3 * se, (n, scaled.mean(), se)

    def test_log_slope_of_means_is_inverse_n(self, family_povm):
        cfg = SweepConfig(theta_scalar=0.01, n_grid=(100, 1000, 10_000, 100_000),
                          repetitions=60, noise=NoiseConfig(lam=1.0), seed=29)
        means = run_sweep(cfg, povm=family_povm, workers=2).mean_infidelity()
        ns = np.array(sorted(means))
        slope = np.polyfit(np.log(ns), np.log([means[n] for n in ns]), 1)[0]
        assert -1.1 < slope < -0.9

    def test_pool_is_capped_at_the_work_items(self, family_povm, pool_sizes):
        cfg = SweepConfig(theta_scalar=0.01, n_grid=(50, 100), repetitions=2, seed=1)
        serial = run_sweep(cfg, povm=family_povm, workers=1)
        assert pool_sizes == []
        assert run_sweep(cfg, povm=family_povm, workers=64).rows == serial.rows
        assert pool_sizes == [4]
        for workers in (0, -3):
            with pytest.raises(InvalidInput):
                run_sweep(cfg, povm=family_povm, workers=workers)
        assert main(["simulate", "--theta", "0.01", "--n-grid", "50", "--seed", "1",
                     "--workers", "0"]) == 2
        assert pool_sizes == [4]

    @staticmethod
    def fail_second_batch(monkeypatch):
        calls = {"n": 0}
        original = sim._estimate_rows

        def flaky(effects, counts, cfg):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("synthetic estimator failure")
            return original(effects, counts, cfg)

        monkeypatch.setattr(sim, "_estimate_rows", flaky)

    def test_trial_error_aborts_with_partial_flag(self, family_povm, monkeypatch):
        # blocks of 2 rows: the second group, trials 2 and 3, fails
        self.fail_second_batch(monkeypatch)
        monkeypatch.setattr(sim, "_REPLICA_BLOCK", 2)
        cfg = SweepConfig(theta_scalar=0.01, n_grid=(50,), repetitions=4, seed=1)
        with pytest.raises(SweepError) as excinfo:
            run_sweep(cfg, family_povm)
        assert len(excinfo.value.partial.rows) == 2
        assert "N=50" in str(excinfo.value)

    def test_pool_error_keeps_the_groups_before_it(self, family_povm, monkeypatch, pool_sizes):
        # two workers, two groups: the N=100 group fails after the N=50 group
        cfg = SweepConfig(theta_scalar=0.01, n_grid=(50, 100), repetitions=2, seed=1)
        serial = run_sweep(cfg, povm=family_povm, workers=1)
        self.fail_second_batch(monkeypatch)
        with pytest.raises(SweepError) as excinfo:
            run_sweep(cfg, povm=family_povm, workers=2)
        assert pool_sizes == [2]
        partial = excinfo.value.partial
        assert partial.workers == 2
        assert partial.rows == serial.rows[:2]
        assert "N=100 failed: synthetic estimator failure" in str(excinfo.value)
        assert "N=50" not in str(excinfo.value)

    @pytest.mark.parametrize("n_boot", [0, 10])
    def test_batches_are_bounded_and_hold_whole_trials(self, family_povm, monkeypatch, n_boot):
        # 7-row batches: 12 point estimates go in two groups of 6 trials; a
        # trial with 10 replicas is a group of its own, estimated as 7 + 4 rows
        cfg = SweepConfig(theta_scalar=0.2, n_grid=(100, 1000, 10_000), repetitions=4,
                          noise=NoiseConfig(lam=0.987), seed=5, n_boot=n_boot)
        whole = run_sweep(cfg, povm=family_povm)
        batches = []
        original = sim._estimate_rows

        def recording(effects, counts, mle):
            batches.append(counts)
            return original(effects, counts, mle)

        monkeypatch.setattr(sim, "_estimate_rows", recording)
        monkeypatch.setattr(sim, "_REPLICA_BLOCK", 7)
        assert run_sweep(cfg, povm=family_povm).rows == whole.rows
        probs = born_probabilities(family_povm, prepared_state(cfg, family_povm.dim))
        trials = [sample_counts(probs, n, trial_rng(cfg.seed, i, t))
                  for i, n in enumerate(cfg.n_grid) for t in range(cfg.repetitions)]
        if n_boot == 0:
            assert [len(b) for b in batches] == [6, 6]
            assert np.array_equal(np.concatenate(batches), trials)
        else:
            assert [len(b) for b in batches] == [7, 4] * len(trials)
            assert all(np.array_equal(b[0], counts) for b, counts in zip(batches[::2], trials))

    def test_systematic_epsilon_changes_results(self, family_povm):
        cfg = SweepConfig(theta_scalar=0.01, n_grid=(500,), repetitions=3, seed=3)
        bent = perturb_effects(family_povm, 0.05,
                               np.random.default_rng(np.random.SeedSequence(cfg.seed)))
        t_base = run_sweep(cfg, family_povm).as_array()[:, 2]
        t_bent = run_sweep(cfg, bent).as_array()[:, 2]
        assert not np.allclose(t_base, t_bent)

    @pytest.mark.parametrize("workers, block", [(1, None), (2, None), (1, 7)])
    def test_batched_sweep_matches_run_trial(self, family_povm, monkeypatch, workers, block):
        # N=1 trials are degenerate, N=100 replicas reach the chart bound; the
        # rows and outcome counts of one batch (or of 7-row blocks, or of one
        # batch per worker) equal each trial run on its own, bit for bit
        if block is not None:
            monkeypatch.setattr(sim, "_REPLICA_BLOCK", block)
        cfg = SweepConfig(theta_scalar=0.2, n_grid=(1, 100, 10_000), repetitions=3,
                          noise=NoiseConfig(lam=0.987), seed=5, n_boot=10)
        rho = prepared_state(cfg, family_povm.dim)
        rows, outcomes = [], []
        for i, n in enumerate(cfg.n_grid):
            for t in range(cfg.repetitions):
                _, fit, infidelity, boot = run_trial(rho, family_povm, cfg, i, t)
                assert boot.degenerate == (n == 1)
                rows.append((float(n), float(t), infidelity) + boot.as_row())
                # the bootstrap counts the trial's point estimate, then its replicas
                outcomes.append(list(boot.outcomes.values()))
                assert outcomes[-1][:2] == [int(fit.at_bound), int(not fit.converged)]
        res = run_sweep(cfg, povm=family_povm, workers=workers)
        assert res.rows == tuple(rows)
        assert tuple(res.outcomes) == sim.OUTCOMES
        assert tuple(res.outcomes.values()) == tuple(map(sum, zip(*outcomes)))
        assert res.outcomes["replicas_at_bound"] > 0 and res.workers == workers
        items = [(i, n, t) for i, n in enumerate(cfg.n_grid) for t in range(cfg.repetitions)]
        assert sim._sweep_rows(family_povm, rho, cfg, items)[2] == res.outcomes

    def test_rows_are_run_trial_results(self, family_povm):
        cfg = SweepConfig(theta_scalar=0.2, n_grid=(300, 3000), repetitions=2,
                          noise=NoiseConfig(lam=0.987), seed=11, n_boot=10)
        rho = prepared_state(cfg, family_povm.dim)
        expected = []
        for i, n in enumerate(cfg.n_grid):
            for t in range(cfg.repetitions):
                _, _, infidelity, boot = run_trial(rho, family_povm, cfg, i, t)
                expected.append((float(n), float(t), infidelity) + boot.as_row())
        assert run_sweep(cfg, povm=family_povm).rows == tuple(expected)

    def test_rows_compare_equal_across_a_process_pool(self, family_povm):
        # without a bootstrap every row holds NaN placeholders; the rows are
        # built in this process, so a real 2-worker pool gives equal rows
        cfg = SweepConfig(theta_scalar=0.01, n_grid=(50, 100), repetitions=2, seed=1)
        assert (run_sweep(cfg, family_povm, workers=2).rows
                == run_sweep(cfg, family_povm, workers=1).rows)

    def test_rows_reproduce_standalone_point_estimates(self, family_povm):
        # each row's infidelity is a standalone estimate_theta on the trial's
        # regenerated counts, bit for bit, also when the trial bootstraps
        cfg = SweepConfig(theta_scalar=0.2, n_grid=(10_000, 100_000), repetitions=2,
                          noise=NoiseConfig(lam=0.987), seed=1, n_boot=10)
        rho = prepared_state(cfg, family_povm.dim)
        probs = born_probabilities(family_povm, rho)
        rows = run_sweep(cfg, povm=family_povm).rows
        assert len(rows) == 4
        for row in rows:
            n, t = int(row[0]), int(row[1])
            counts = sample_counts(probs, n, trial_rng(cfg.seed, cfg.n_grid.index(n), t))
            assert row[2] == 1.0 - fidelity(estimate_theta(counts, family_povm, cfg.mle).state,
                                            rho)

    def test_state_is_built_once_per_sweep(self, family_povm, monkeypatch):
        built = []
        original = DensityMatrix.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(DensityMatrix, "__post_init__", counting)
        per_sweep = []
        for reps in (1, 4):
            built.clear()
            cfg = SweepConfig(theta_scalar=0.01, n_grid=(100,), repetitions=reps, seed=3)
            run_sweep(cfg, povm=family_povm, workers=1)
            per_sweep.append(len(built))
        assert per_sweep[0] == per_sweep[1]

    def test_config_validation(self):
        with pytest.raises(InvalidInput):
            SweepConfig(theta_scalar=0.01, n_grid=(100, 100), repetitions=1)
        with pytest.raises(InvalidInput):
            SweepConfig(theta_scalar=0.01, n_grid=(100,), repetitions=0)
        with pytest.raises(InvalidInput):
            NoiseConfig(lam=1.2)
        # the estimator's settings are constants, not sweep parameters
        with pytest.raises(TypeError):
            SweepConfig(theta_scalar=0.01, n_grid=(100,), repetitions=1, mle=MleConfig())
