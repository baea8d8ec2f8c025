from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import pytest

from conftest import disk_theta
from pointtomo import estimator, simulate
from pointtomo.errors import DegenerateInput, InvalidInput
from pointtomo.estimator import (MleConfig, _neg_log_likelihood, estimate_state,
                                 estimate_theta, fit_power_law)
from pointtomo.fisher import PROBABILITY_FLOOR
from pointtomo.povm import Povm
from pointtomo.simulate import (NoiseConfig, SweepConfig, bootstrap_infidelity, prepared_state,
                                sample_counts, trial_rng)
from pointtomo.states import (born_probabilities, depolarize, equal_deviation_state,
                              fidelity, neighborhood_state, pure_probabilities)

@dataclass(frozen=True)
class ShortDescent(MleConfig):
    """Four steps per descent: some refined starts stop unconverged inside
    the chart box."""

    max_iterations: ClassVar[int] = 4


def exact_frequencies(povm, theta):
    return pure_probabilities(povm.effects, neighborhood_state(theta).amps)


def central_differences(objective, x, h, part=0):
    """Fourth-order central differences of ``objective(x)[part]``, one row per
    coordinate of ``x``: the gradient of the value (part 0), or the Hessian
    from the gradient (part 1)."""
    def f(y):
        return objective(y)[part]
    return np.array([(8.0 * (f(x + h * e) - f(x - h * e)) - f(x + 2 * h * e) + f(x - 2 * h * e))
                     / (12.0 * h) for e in np.eye(x.size)])


def row_objective(effects, weights):
    """The batched objective on one point: x -> (value, gradient, Hessian)."""
    objective = _neg_log_likelihood(effects)
    return lambda x: tuple(part[0] for part in objective(x[None, :], weights[None, :]))


def chart_box_points(family_povm):
    """20 (objective, x) pairs: random weights, x uniform in the chart box."""
    rng = np.random.default_rng(23)
    bound = MleConfig().chart_bound
    for _ in range(20):
        objective = row_objective(family_povm.effects, rng.dirichlet(np.ones(7)))
        yield objective, rng.uniform(-bound, bound, 6)


def below_floor_point(family_povm):
    """(objective, x, h): x on the null set of outcome 3, whose probability
    stays below the floor at every difference point x +- h e, x +- 2 h e."""
    a = family_povm.effects[3]
    theta = -np.conj(a[0]) * a[1:] / np.vdot(a[1:], a[1:]).real
    x = np.concatenate([theta.real, theta.imag])
    h = 5e-7
    for y in (x, *(x + 2 * h * e for e in np.eye(6)), *(x - 2 * h * e for e in np.eye(6))):
        assert exact_frequencies(family_povm, y[:3] + 1j * y[3:])[3] < PROBABILITY_FLOOR
    objective = row_objective(family_povm.effects,
                              np.random.default_rng(24).dirichlet(np.ones(7)))
    return objective, x, h


def outer_product_parts(effects, x, weights):
    """The objective's Hessian as the full (B, K, 2m, 2m) stacks of per-outcome
    terms c_e u_e u_e^T and r_e G_e, and the (B, 2m, 2m) term of the norm s,
    built by broadcasting alone: the parts of :func:`outer_product_hessian`."""
    m = effects.shape[1] - 1
    conj_effects = effects.conj()
    jac = np.concatenate([conj_effects[:, 1:], 1j * conj_effects[:, 1:]], axis=1)
    gram = 2.0 * (jac.conj()[:, :, None] * jac[:, None, :]).real
    v = np.concatenate([np.ones((len(x), 1)), x[:, :m] + 1j * x[:, m:]], axis=1)
    s = 1.0 + (x * x).sum(axis=1)
    p = np.maximum(pure_probabilities(effects, v / np.sqrt(s)[:, None]), PROBABILITY_FLOOR)
    w = np.where(p > PROBABILITY_FLOOR, weights, 0.0)
    z2 = p * s[:, None]
    r = w / z2
    q = (conj_effects * v[:, None, :]).sum(axis=2).conj()[:, :, None] * conj_effects[:, 1:]
    u = 2.0 * np.concatenate([q.real, -q.imag], axis=2)
    total = w.sum(axis=1)[:, None]
    outer = (r / z2)[:, :, None, None] * u[:, :, :, None] * u[:, :, None, :]
    norm_term = total[:, :, None] * ((2.0 / s)[:, None, None] * np.eye(2 * m)
                                     - (4.0 / s ** 2)[:, None, None] * x[:, :, None] * x[:, None, :])
    return outer, r[:, :, None, None] * gram, norm_term


def outer_product_hessian(effects, x, weights):
    """The objective's Hessian with its curvature summed over outcomes one
    outcome at a time, from :func:`outer_product_parts`: the independent
    reference for the contracted lower-triangle form of
    :func:`_neg_log_likelihood`."""
    outer, gram_term, norm_term = outer_product_parts(effects, x, weights)
    return (outer - gram_term).sum(axis=1) + norm_term


def eigen_direction(x, grad, hess, bound):
    """The Newton step from one eigendecomposition per row, eigenvalues taken in
    absolute value (floored): the reference for :func:`_newton_direction`."""
    held = ((x >= bound) & (grad < 0)) | ((x <= -bound) & (grad > 0))
    hess = np.where(held[:, :, None] | held[:, None, :], np.eye(x.shape[1]), hess)
    lam, vec = np.linalg.eigh(hess)
    lam = np.abs(lam)
    lam = np.maximum(lam, 1e-10 * np.maximum(1.0, lam.max(axis=1, keepdims=True)))
    coef = (vec * np.where(held, 0.0, grad)[:, :, None]).sum(axis=1) / lam
    return np.where(held, 0.0, -(vec * coef[:, None, :]).sum(axis=2))


def symmetric_stack(rng, eigenvalues):
    """Exactly symmetric Q diag(lam) Q^T with a random orthogonal Q, one per row
    of ``eigenvalues``."""
    q, _ = np.linalg.qr(rng.standard_normal((len(eigenvalues), 6, 6)))
    h = (q * eigenvalues[:, None, :]) @ q.transpose(0, 2, 1)
    return 0.5 * (h + h.transpose(0, 2, 1))


def newton_inputs(rng, eigenvalues):
    """(x, grad, hess) with x strictly inside the chart box: no held coordinate."""
    rows = len(eigenvalues)
    return (rng.uniform(-0.5, 0.5, (rows, 6)), rng.standard_normal((rows, 6)),
            symmetric_stack(rng, eigenvalues))


def full_search(effects, counts, cfg):
    """One row's estimate by the search of every start that a fallback row
    runs: the zero, refined and random starts descend together, and the
    pick is the best value, then the tied point closest to the fiducial,
    first in start order. Returns (theta, log-likelihood, candidates, tied
    candidates, converged, at-bound): the reference for the rows that fall
    back."""
    m = effects.shape[1] - 1
    weights = (counts / counts.sum())[None, :]
    refined = estimator._refined_start(effects, weights)
    u = np.random.default_rng(np.random.SeedSequence(cfg.seed)).uniform(size=(cfg.starts, 2, m))
    t = cfg.start_radius * np.sqrt(u[:, 0]) * np.exp(1j * (2.0 * np.pi * u[:, 1]))
    starts = np.vstack([np.zeros((1, 2 * m)), refined,
                        np.concatenate([t.real, t.imag], axis=1)])
    f, x, ok, _ = estimator._descend(_neg_log_likelihood(effects), starts,
                                     np.repeat(weights, len(starts), axis=0), cfg)
    best = f.min()
    tied = f <= best + 50.0 * cfg.tolerance * max(1.0, abs(best))
    pick = np.where(tied, (x[:, None, :] @ x[:, :, None])[:, 0, 0], np.inf).argmin()
    theta = x[pick, :m] + 1j * x[pick, m:]
    p = pure_probabilities(effects, neighborhood_state(theta).amps[None, :])[0]
    loglik = (counts * np.log(np.maximum(p, PROBABILITY_FLOOR))).sum()
    return (theta, loglik, len(f), np.count_nonzero(tied), ok[pick],
            bool(estimator.on_chart_bound(x[pick])))


def pinned_probabilities(family_povm):
    """Noiseless theta = 0.5 state: Re theta_j = 0.707 lies outside the chart box."""
    return born_probabilities(family_povm, depolarize(equal_deviation_state(0.5), 1.0))


class TestEstimateState:
    def test_recovers_generator_from_exact_frequencies(self, family_povm):
        rng = np.random.default_rng(101)
        for _ in range(20):
            theta = disk_theta(rng, 3, 0.3)
            freqs = exact_frequencies(family_povm, theta)
            est = estimate_state(freqs, family_povm)
            infid = 1.0 - np.abs(np.vdot(est.amps, neighborhood_state(theta).amps)) ** 2
            assert infid < 1e-6

    def test_fiducial_counts_give_fiducial_estimate(self, family_povm):
        freqs = exact_frequencies(family_povm, np.zeros(3))
        est = estimate_state(freqs, family_povm)
        assert 1.0 - np.abs(est.amps[0]) ** 2 < 1e-9

    def test_deterministic_given_config_and_counts(self, family_povm):
        counts = np.array([112, 220, 143, 218, 31, 50, 184])
        t1 = estimate_theta(counts, family_povm).theta
        t2 = estimate_theta(counts, family_povm).theta
        assert np.array_equal(t1, t2)

    def test_permutation_covariance(self, family_povm):
        rng = np.random.default_rng(13)
        counts = rng.multinomial(2000, exact_frequencies(family_povm, disk_theta(rng, 3, 0.1)))
        perm = rng.permutation(family_povm.n_outcomes)
        permuted_povm = Povm(family_povm.effects[perm])
        est_a = estimate_state(counts, family_povm)
        est_b = estimate_state(counts[perm], permuted_povm)
        overlap = np.abs(np.vdot(est_a.amps, est_b.amps)) ** 2
        assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_converged_on_exact_frequencies(self, family_povm):
        rng = np.random.default_rng(777)
        for _ in range(10):
            freqs = exact_frequencies(family_povm, disk_theta(rng, 3, 0.3))
            assert estimate_theta(freqs, family_povm).converged

    def test_all_zero_counts_rejected(self, family_povm):
        with pytest.raises(InvalidInput):
            estimate_state(np.zeros(7), family_povm)

    def test_wrong_length_rejected(self, family_povm):
        with pytest.raises(InvalidInput):
            estimate_state(np.ones(5), family_povm)


class TestObjectiveGradient:
    def test_matches_central_differences_in_chart_box(self, family_povm):
        for objective, x in chart_box_points(family_povm):
            grad = objective(x)[1]
            assert np.max(np.abs(grad - central_differences(objective, x, 1e-5))) <= 1e-8

    def test_floored_outcome_adds_no_slope(self, family_povm):
        objective, x, h = below_floor_point(family_povm)
        grad = objective(x)[1]
        assert np.all(np.isfinite(grad))
        assert np.max(np.abs(grad - central_differences(objective, x, h))) <= 1e-8


class TestObjectiveHessian:
    def test_matches_differenced_gradient_in_chart_box(self, family_povm):
        for objective, x in chart_box_points(family_povm):
            hess = objective(x)[2]
            assert np.max(np.abs(hess - central_differences(objective, x, 2e-5, part=1))) <= 1e-7

    def test_floored_outcome_adds_no_curvature(self, family_povm):
        objective, x, h = below_floor_point(family_povm)
        hess = objective(x)[2]
        assert np.all(np.isfinite(hess))
        assert np.max(np.abs(hess - central_differences(objective, x, h, part=1))) <= 1e-7

    def test_exactly_symmetric_with_the_outer_product_lower_triangle(self, family_povm):
        rng = np.random.default_rng(25)
        bound = MleConfig().chart_bound
        floored = below_floor_point(family_povm)[1]
        x = np.vstack([rng.uniform(-bound, bound, (20, 6)), np.zeros((1, 6)), floored,
                       floored + 1e-3])
        weights = rng.dirichlet(np.ones(7), len(x))
        weights[::4, 3] = 0.0                     # unobserved outcomes
        low = np.tril_indices(6)
        hess = _neg_log_likelihood(family_povm.effects)(x, weights)[2]
        assert np.array_equal(hess, hess.transpose(0, 2, 1))
        reference = outer_product_hessian(family_povm.effects, x, weights)
        # The two forms take the same products and sum them over the K outcomes
        # in different orders: each sum is within (K - 1) u of its magnitude
        # sum S (u = eps / 2), a difference and the norm term's addition within
        # u each. So they differ by at most (K + 2) eps (S + |norm term|).
        outer, gram_term, norm_term = outer_product_parts(family_povm.effects, x, weights)
        magnitude = (np.abs(outer) + np.abs(gram_term)).sum(axis=1) + np.abs(norm_term)
        limit = (outer.shape[1] + 2) * np.finfo(float).eps * magnitude
        assert np.all(np.abs(hess - reference)[:, low[0], low[1]] <= limit[:, low[0], low[1]])


class TestObjectiveStack:
    @pytest.mark.parametrize("rows", [1, 2, 7, 8, 9, 132, 256, 1023])
    def test_rows_have_the_same_bits_in_any_stack(self, family_povm, rows):
        # a row's value, gradient and Hessian do not depend on the stack it is
        # evaluated in: the property that keeping every contraction off BLAS protects
        rng = np.random.default_rng(26)
        bound = MleConfig().chart_bound
        x = rng.uniform(-bound, bound, (1024, 6))
        floored = below_floor_point(family_povm)[1]
        x[::9] = floored                                     # outcome 3 at the probability floor
        x[4::9] = floored + rng.uniform(-1e-3, 1e-3, x[4::9].shape)     # and just off it
        weights = rng.dirichlet(np.ones(7), len(x))
        weights[::5, 3] = 0.0
        objective = _neg_log_likelihood(family_povm.effects)
        full = objective(x, weights)
        # leading, offset, trailing and strided views of the stack
        for rows_of in (slice(0, rows), slice(1, 1 + rows), slice(1024 - rows, None),
                        slice(rows % 3, rows % 3 + 3 * rows, 3)):
            for part, whole in zip(objective(x[rows_of], weights[rows_of]), full):
                assert np.array_equal(part, whole[rows_of])


class TestNewtonDirection:
    BOUND = MleConfig().chart_bound

    @pytest.fixture
    def eigh_rows(self, monkeypatch):
        """Record the number of rows of every eigendecomposition."""
        rows = []
        eigh = np.linalg.eigh

        def recording(a):
            rows.append(len(a))
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        return rows

    def test_positive_definite_rows_match_the_eigen_step(self, family_povm, eigh_rows):
        rng = np.random.default_rng(41)
        x, grad, hess = newton_inputs(rng, rng.uniform(0.1, 10.0, (200, 6)))
        # and the objective's own Hessians near the maximum-likelihood point
        theta = disk_theta(rng, 3, 0.2)
        weights = np.tile(exact_frequencies(family_povm, theta), (20, 1))
        near = np.concatenate([theta.real, theta.imag]) + rng.uniform(-1e-3, 1e-3, (20, 6))
        _, near_grad, near_hess = _neg_log_likelihood(family_povm.effects)(near, weights)
        x, grad, hess = (np.vstack(pair) for pair in
                         ((x, near), (grad, near_grad), (hess, near_hess)))
        step = estimator._newton_direction(x, grad, hess, self.BOUND)
        reference = eigen_direction(x, grad, hess, self.BOUND)
        assert eigh_rows == [len(x)]              # the reference's only
        scale = np.max(np.abs(reference), axis=1)
        assert np.all(np.max(np.abs(step - reference), axis=1) <= 1e-12 * scale)

    def test_indefinite_rows_take_the_eigen_step_bit_for_bit(self, eigh_rows):
        rng = np.random.default_rng(42)
        lam = rng.uniform(0.1, 10.0, (100, 6)) * rng.choice([-1.0, 1.0], (100, 6))
        lam[:, 0] = -np.abs(lam[:, 0])
        x, grad, hess = newton_inputs(rng, lam)
        x[::3, 1] = self.BOUND                    # some rows hold a coordinate
        grad[::3, 1] = -1.0
        step = estimator._newton_direction(x, grad, hess, self.BOUND)
        assert eigh_rows == [100]
        assert np.array_equal(step, eigen_direction(x, grad, hess, self.BOUND))

    def test_held_coordinates_stay_exactly_zero(self):
        rng = np.random.default_rng(43)
        lam = rng.uniform(0.1, 10.0, (40, 6))
        lam[20:, 2] = -1.0                        # 20 definite rows, 20 indefinite
        x, grad, hess = newton_inputs(rng, lam)
        x[:, 0], grad[:, 0] = self.BOUND, -1.0    # pushed out through the upper face
        x[:, 4], grad[:, 4] = -self.BOUND, 2.0    # and through the lower face
        x[:, 5], grad[:, 5] = self.BOUND, 1.0     # on the face, pulled inwards: free
        step = estimator._newton_direction(x, grad, hess, self.BOUND)
        assert np.all(step[:, [0, 4]] == 0.0)
        assert np.all(step[:, [1, 2, 3, 5]] != 0.0)
        free = [1, 2, 3, 5]
        newton = -np.linalg.solve(hess[:20][:, free][:, :, free], grad[:20, free, None])[..., 0]
        assert np.allclose(step[:20, free], newton, rtol=1e-12, atol=0.0)

    def test_a_row_gets_the_same_step_alone_as_in_a_mixed_stack(self, eigh_rows):
        rng = np.random.default_rng(44)
        lam = rng.uniform(0.1, 10.0, (12, 6))
        lam[3:6, 1] = -0.5                        # indefinite
        lam[6:8, 0] = 1e-13                       # near-singular, below the pivot floor
        lam[8, 0] = 0.0                           # singular
        x, grad, hess = newton_inputs(rng, lam)
        x[9:, 3], grad[9:, 3] = -self.BOUND, 1.0  # held
        step = estimator._newton_direction(x, grad, hess, self.BOUND)
        assert eigh_rows == [6]                   # the indefinite and (near-)singular rows
        for i in range(len(x)):
            alone = estimator._newton_direction(x[i:i + 1], grad[i:i + 1], hess[i:i + 1],
                                                self.BOUND)
            assert np.array_equal(alone[0], step[i]), i
        order = rng.permutation(len(x))
        assert np.array_equal(
            estimator._newton_direction(x[order], grad[order], hess[order], self.BOUND),
            step[order])


class TestStartPolicy:
    def test_settings_are_constants(self):
        # a test that needs other settings subclasses MleConfig, as ShortDescent does
        with pytest.raises(TypeError):
            MleConfig(starts=16)
        assert ShortDescent().starts == MleConfig.starts == 8

    def test_pinned_estimate_is_flagged(self, family_povm):
        res = estimate_theta(pinned_probabilities(family_povm), family_povm)
        assert res.at_bound
        assert np.max(np.abs(np.concatenate([res.theta.real, res.theta.imag]))) == \
            MleConfig.chart_bound

    def test_random_starts_run_when_fixed_starts_end_on_bound(self, family_povm,
                                                               monkeypatch):
        runs = []
        descend = estimator._descend

        def recording(objective, x, weights, cfg):
            result = descend(objective, x, weights, cfg)
            runs.extend(zip(*result))
            return result

        monkeypatch.setattr(estimator, "_descend", recording)
        cfg = MleConfig()
        res = estimate_theta(pinned_probabilities(family_povm), family_povm)
        assert res.n_candidates == len(runs) == 2 + cfg.starts
        best = min(f for f, _, _, _ in runs)
        tied = [x for f, x, _, _ in runs if f <= best + 50.0 * cfg.tolerance * max(1.0, abs(best))]
        assert 1 < res.n_tied == len(tied)
        closest = min(tied, key=lambda x: float(x @ x))
        assert np.array_equal(np.concatenate([res.theta.real, res.theta.imag]), closest)

    def test_fixed_starts_suffice_on_plateau_counts(self, family_povm):
        # the N >= 1e4 trials of test_simulate's test_plateau_monotone_and_floored;
        # at N = 1e3, 2 of its 12 trials end on the chart bound
        cfg = SweepConfig(theta_scalar=0.2, n_grid=(1000, 10_000, 100_000), repetitions=12,
                          noise=NoiseConfig(lam=0.987), seed=13)
        probs = born_probabilities(family_povm, prepared_state(cfg, family_povm.dim))
        for i, n in enumerate(cfg.n_grid[1:], start=1):
            for t in range(cfg.repetitions):
                counts = sample_counts(probs, n, trial_rng(cfg.seed, i, t))
                res = estimate_theta(counts, family_povm, cfg.mle)
                assert res.n_candidates == 1 and res.converged and not res.at_bound, (n, t)


class TestRefinedStart:
    def test_chord_passes_close_in_on_an_in_model_truth(self, family_povm):
        # exact frequencies of the theta = 0.2 pure state, chart coordinates
        # sqrt(0.2) ~ 0.45: the first-order inversion lands ~0.25 away
        truth = np.concatenate([np.full(3, np.sqrt(0.2)), np.zeros(3)])
        freqs = pure_probabilities(family_povm.effects, equal_deviation_state(0.2).amps)[None, :]
        # the first-order inversion, by the pseudo-inverse of the linear terms
        effects = family_povm.effects
        a0, conj = effects[:, 0].real, effects[:, 1:].conj()
        design = 2.0 * a0[:, None] * np.concatenate([conj.real, -conj.imag], axis=1)
        bound = MleConfig.chart_bound
        first_order = np.clip(np.linalg.pinv(design) @ (freqs[0] - a0 ** 2), -bound, bound)
        refined = estimator._refined_start(family_povm.effects, freqs)[0]
        assert np.linalg.norm(refined - truth) <= 1e-2 * np.linalg.norm(first_order - truth)

    def test_a_row_starts_alike_in_any_stack(self, family_povm):
        # N = 100 and 10^4 off-model frequencies, some of whose starts end on
        # the bound: each row of the stack has the bits of that row alone
        rho = depolarize(equal_deviation_state(0.2), 0.987)
        counts = np.concatenate([np.random.default_rng(62).multinomial(
            n, born_probabilities(family_povm, rho), size=20) for n in (100, 10_000)])
        freqs = counts / counts.sum(axis=1, keepdims=True)
        whole = estimator._refined_start(family_povm.effects, freqs)
        assert estimator.on_chart_bound(whole).any() and not estimator.on_chart_bound(whole).all()
        for row, f in enumerate(freqs):
            assert np.array_equal(estimator._refined_start(family_povm.effects, f[None, :])[0],
                                  whole[row]), row
        assert np.array_equal(estimator._refined_start(family_povm.effects, freqs[5:27]),
                              whole[5:27])


class TestEstimateRows:
    def test_columns_are_estimate_theta_per_row_in_any_stack(self, family_povm):
        # N = 100 off-model counts: some rows retry with random starts, some end
        # on the bound; permuting or splitting the stack changes no row's columns
        rho = depolarize(equal_deviation_state(0.2), 0.987)
        counts = np.random.default_rng(60).multinomial(
            100, born_probabilities(family_povm, rho), size=24).astype(float)
        cfg = MleConfig()
        whole = estimator._estimate_rows(family_povm.effects, counts, cfg)
        assert [len(column) for column in whole] == [24] * 8
        assert whole[2].max() == 2 + cfg.starts and whole[5].any()
        order = np.random.default_rng(61).permutation(24)
        for got, want in zip(estimator._estimate_rows(family_povm.effects, counts[order], cfg),
                             whole):
            assert np.array_equal(got, want[order])
        parts = [estimator._estimate_rows(family_povm.effects, counts[rows], cfg)
                 for rows in (slice(0, 5), slice(5, None))]
        for got, want in zip(zip(*parts), whole):
            assert np.array_equal(np.concatenate(got), want)
        for row, c in enumerate(counts):
            res = estimate_theta(c, family_povm, cfg)
            assert np.array_equal(res.theta, whole[0][row])
            assert (res.log_likelihood, res.n_candidates, res.n_tied, res.converged,
                    res.at_bound, res.objective_rows) == \
                tuple(column[row].item() for column in whole[1:7])
            assert np.array_equal(res.state.amps, whole[7][row])
            assert np.array_equal(res.state.amps, neighborhood_state(res.theta).amps)

    @pytest.mark.parametrize("cfg", [MleConfig(), ShortDescent()],
                             ids=["default", "short-descent"])
    def test_fallback_rows_run_the_full_search_bit_for_bit(self, family_povm, cfg):
        # the stack above: a row whose refined start ends off the bound and
        # converged is decided there; every other row runs the search of all
        # its starts and ends where that search ends, bit for bit. Only the
        # short descents leave refined starts unconverged off the bound,
        # rows that search as a pinned row does
        rho = depolarize(equal_deviation_state(0.2), 0.987)
        counts = np.random.default_rng(60).multinomial(
            100, born_probabilities(family_povm, rho), size=24).astype(float)
        theta, loglik, n_candidates, n_tied, converged, at_bound, _, _ = \
            estimator._estimate_rows(family_povm.effects, counts, cfg)
        weights = counts / counts.sum(axis=1, keepdims=True)
        refined = estimator._refined_start(family_povm.effects, weights)
        _, lin_x, lin_ok, _ = estimator._descend(_neg_log_likelihood(family_povm.effects),
                                                 refined, weights, cfg)
        pinned = estimator.on_chart_bound(lin_x)
        fallback = ~lin_ok | pinned
        assert 0 < np.count_nonzero(fallback) < len(counts)
        assert (fallback & ~pinned).any() == isinstance(cfg, ShortDescent)
        assert np.array_equal(n_candidates > 1, fallback)
        for row in np.flatnonzero(fallback):
            want_theta, *want = full_search(family_povm.effects, counts[row], cfg)
            assert np.array_equal(theta[row], want_theta), row
            assert (loglik[row], n_candidates[row], n_tied[row], converged[row],
                    at_bound[row]) == tuple(want), row
        decided = ~fallback
        assert np.all(n_candidates[decided] == 1) and np.all(n_tied[decided] == 1)
        assert np.all(converged[decided]) and not at_bound[decided].any()
        assert np.array_equal(theta[decided], lin_x[decided, :3] + 1j * lin_x[decided, 3:])

    def test_empty_stack_gives_empty_columns(self, family_povm):
        theta, *rest, amps = estimator._estimate_rows(family_povm.effects, np.empty((0, 7)),
                                                      MleConfig())
        assert theta.shape == (0, 3) and all(column.shape == (0,) for column in rest)
        assert amps.shape == (0, 4)


class TestBootstrap:
    def test_spread_contracts_with_ensemble_size(self, family_povm):
        rho = depolarize(equal_deviation_state(0.01), 1.0)
        probs = born_probabilities(family_povm, rho)
        spreads = {}
        for n in (100, 100_000):
            rng = np.random.default_rng(15)
            counts = rng.multinomial(n, probs)
            res = bootstrap_infidelity(counts, family_povm, rho, 30,
                                       np.random.default_rng(16))
            spreads[n] = res.high - res.low
        assert spreads[100_000] < spreads[100]

    def test_degenerate_counts_flagged(self, family_povm):
        rho = depolarize(neighborhood_state(np.zeros(3)), 1.0)
        counts = np.zeros(7)
        counts[0] = 50
        res = bootstrap_infidelity(counts, family_povm, rho, 25, np.random.default_rng(0))
        assert res.degenerate
        assert res.low == res.high == res.median

    def test_interval_brackets_point_infidelity(self, family_povm):
        rho = depolarize(equal_deviation_state(0.01), 1.0)
        probs = born_probabilities(family_povm, rho)
        rng = np.random.default_rng(17)
        hits = 0
        trials = 20
        for _ in range(trials):
            counts = rng.multinomial(1000, probs)
            est = estimate_state(counts, family_povm)
            point = 1.0 - fidelity(est, rho)
            res = bootstrap_infidelity(counts, family_povm, rho, 50, rng)
            hits += res.low <= point <= res.high
        assert hits >= int(0.9 * trials)

    def test_quantile_ordering(self, family_povm):
        rho = depolarize(equal_deviation_state(0.1), 0.987)
        counts = np.random.default_rng(18).multinomial(
            500, born_probabilities(family_povm, rho))
        res = bootstrap_infidelity(counts, family_povm, rho, 40, np.random.default_rng(19))
        assert res.low <= res.q25 <= res.median <= res.q75 <= res.high

    @pytest.mark.parametrize("n", [100, 10_000])
    def test_batched_replicas_match_the_per_replica_loop(self, family_povm, monkeypatch, n):
        rho = depolarize(equal_deviation_state(0.2), 0.987)
        counts = np.random.default_rng(31).multinomial(n, born_probabilities(family_povm, rho))
        batches = []
        estimate_rows = simulate._estimate_rows

        def recording(*args):
            columns = estimate_rows(*args)
            batches.append(columns)
            return columns

        with monkeypatch.context() as patch:
            patch.setattr(simulate, "_estimate_rows", recording)
            res = bootstrap_infidelity(counts, family_povm, rho, 30, np.random.default_rng(32))
        # one batch of columns, one entry per row: the point estimate of the
        # counts themselves, then the replicas
        (theta, _, n_candidates, _, converged, at_bound, _, _), = batches
        assert len(theta) == 31
        assert np.array_equal(theta[0], estimate_theta(counts, family_povm).theta)
        draws = np.random.default_rng(32)
        loop = [estimate_theta(draws.multinomial(n, counts / counts.sum()), family_povm)
                for _ in range(30)]

        def outcomes(estimates):
            return [(e.n_candidates, e.converged, e.at_bound) for e in estimates]

        assert list(zip(n_candidates[1:].tolist(), converged[1:].tolist(),
                        at_bound[1:].tolist())) == outcomes(loop)
        values = np.array([1.0 - fidelity(e.state, rho) for e in loop])
        assert np.allclose([1.0 - fidelity(neighborhood_state(t), rho) for t in theta[1:]],
                           values, rtol=1e-12, atol=0.0)
        expected = (values.min(), *np.quantile(values, [0.25, 0.5, 0.75]), values.max())
        assert np.allclose(res.as_row(), expected, rtol=1e-12, atol=0.0)
        assert res.outcomes["replicas_at_bound"] == sum(e.at_bound for e in loop)
        assert res.outcomes["replicas_not_converged"] == sum(not e.converged for e in loop)
        if n == 100:
            assert any(e.n_candidates > 2 for e in loop)

    def test_replica_blocks_do_not_change_the_result(self, family_povm, monkeypatch):
        rho = depolarize(equal_deviation_state(0.2), 0.987)
        counts = np.random.default_rng(33).multinomial(300, born_probabilities(family_povm, rho))
        whole = bootstrap_infidelity(counts, family_povm, rho, 30, np.random.default_rng(34))
        monkeypatch.setattr(simulate, "_REPLICA_BLOCK", 7)
        assert bootstrap_infidelity(counts, family_povm, rho, 30,
                                    np.random.default_rng(34)) == whole

    def test_minimum_replicas(self, family_povm):
        rho = depolarize(neighborhood_state(np.zeros(3)), 1.0)
        with pytest.raises(InvalidInput):
            bootstrap_infidelity(np.ones(7), family_povm, rho, 9, np.random.default_rng(0))

    def test_counts_below_one_copy_rejected(self, family_povm):
        rho = depolarize(neighborhood_state(np.zeros(3)), 1.0)
        with pytest.raises(InvalidInput):
            bootstrap_infidelity(np.array([0.2, 0.2, 0, 0, 0, 0, 0]), family_povm, rho, 10,
                                 np.random.default_rng(0))


class TestFitPowerLaw:
    def test_exact_power_law(self):
        ns = np.array([50, 100, 1000, 10_000, 100_000], dtype=float)
        fit = fit_power_law(np.column_stack([ns, 3.0 / ns]))
        assert fit.coefficient == pytest.approx(3.0, rel=1e-12)
        assert fit.exponent == pytest.approx(-1.0, abs=1e-12)
        assert fit.residual == pytest.approx(0.0, abs=1e-12)

    def test_noisy_power_law(self):
        rng = np.random.default_rng(20)
        ns = np.geomspace(100, 100_000, 24)
        ys = 3.8 / ns * (1.0 + 0.01 * rng.standard_normal(ns.size))
        fit = fit_power_law(np.column_stack([ns, ys]))
        assert 3.6 <= fit.coefficient <= 4.0
        assert -1.05 <= fit.exponent <= -0.95

    def test_scale_covariance(self):
        rng = np.random.default_rng(21)
        ns = np.geomspace(10, 1e5, 12)
        ys = 2.7 / ns ** 1.1 * np.exp(0.05 * rng.standard_normal(ns.size))
        base = fit_power_law(np.column_stack([ns, ys]))
        scaled = fit_power_law(np.column_stack([ns, 7.0 * ys]))
        assert scaled.coefficient == pytest.approx(7.0 * base.coefficient, rel=1e-10)
        assert scaled.exponent == pytest.approx(base.exponent, abs=1e-12)
        assert scaled.residual == pytest.approx(base.residual, abs=1e-12)

    def test_zero_points_excluded_with_warning(self):
        pts = np.array([[10, 0.1], [100, 0.01], [1000, 0.0]])
        with pytest.warns(UserWarning, match="zero-infidelity"):
            fit = fit_power_law(pts)
        assert fit.coefficient == pytest.approx(1.0, rel=1e-10)

    def test_negative_rejected(self):
        with pytest.raises(InvalidInput):
            fit_power_law(np.array([[10, 0.1], [100, -0.01]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_name_their_column(self, bad):
        with pytest.raises(InvalidInput, match="^infidelities must be nonnegative and finite$"):
            fit_power_law(np.array([[10, 0.1], [100, bad]]))
        with pytest.raises(InvalidInput, match="^ensemble sizes must be positive and finite$"):
            fit_power_law(np.array([[10, 0.1], [bad, 0.01]]))

    def test_too_few_points(self):
        with pytest.raises(InvalidInput):
            fit_power_law(np.array([[10, 0.1]]))
        with pytest.warns(UserWarning):
            with pytest.raises(DegenerateInput):
                fit_power_law(np.array([[10, 0.1], [100, 0.0]]))

    def test_one_distinct_n_is_degenerate(self):
        # a one-N table gives no slope: polyfit would be rank deficient
        with pytest.raises(DegenerateInput, match="two distinct N"):
            fit_power_law(np.array([[100, 0.01], [100, 0.02], [100, 0.03]]))
        with pytest.warns(UserWarning, match="zero-infidelity"):
            with pytest.raises(DegenerateInput, match="two distinct N"):
                fit_power_law(np.array([[100, 0.01], [100, 0.02], [1000, 0.0]]))
