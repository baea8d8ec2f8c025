import numpy as np
import pytest

from conftest import dft_columns, disk_theta
from pointtomo.errors import ConsistencyError, InvalidInput
from pointtomo.fisher import (FisherBlocks, asymptotic_infidelity_coefficient,
                              c_matrix, c_norm, cfim_first_order, cfim_numeric,
                              gill_massar_wmse, gm_inequality_lhs, qfim_pure)
from pointtomo.povm import Povm, haar_random_povm
from pointtomo.states import neighborhood_state


def fidelity_hessian_blocks(theta, step=1e-5):
    """Oracle: QFIM blocks from central differences of 1 - |<psi_t|psi_t+u>|^2.

    The Hessian H over the real coordinates u = (dx, dy) satisfies
    1 - F = (1/2) u^T H u, and the stacked matrix [[J, Q], [Q*, J*]] follows
    as 2 (W^-1)^H H W^-1 with theta_hat = [conj(theta); theta] = W u.
    """
    theta = np.asarray(theta, dtype=complex)
    m = theta.size
    base = neighborhood_state(theta).amps

    def g(u):
        dtheta = u[:m] + 1j * u[m:]
        other = neighborhood_state(theta + dtheta).amps
        return 1.0 - np.abs(np.vdot(base, other)) ** 2

    h = step
    n = 2 * m
    hess = np.empty((n, n))
    for a in range(n):
        ea = np.zeros(n)
        ea[a] = 1.0
        hess[a, a] = (g(h * ea) + g(-h * ea)) / h ** 2
        for b in range(a + 1, n):
            eb = np.zeros(n)
            eb[b] = 1.0
            mixed = (g(h * (ea + eb)) - g(h * (ea - eb))
                     - g(h * (eb - ea)) + g(-h * (ea + eb))) / (4 * h ** 2)
            hess[a, b] = hess[b, a] = mixed
    eye = np.eye(m)
    w = np.block([[eye, -1j * eye], [eye, 1j * eye]])
    winv = np.linalg.inv(w)
    stacked = 2.0 * winv.conj().T @ hess @ winv
    return stacked[:m, :m], stacked[:m, m:]


class TestQfimPure:
    def test_fiducial_identity(self):
        blocks = qfim_pure(np.zeros(3))
        assert np.max(np.abs(blocks.diag_block - 2 * np.eye(3))) < 1e-12
        assert np.max(np.abs(blocks.off_block)) < 1e-12

    def test_fiducial_two_level(self):
        blocks = qfim_pure(np.zeros(1))
        assert blocks.diag_block[0, 0] == pytest.approx(2.0, abs=1e-12)
        assert blocks.off_block[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_real_theta_matches_fidelity_hessian(self):
        theta = np.array([0.1, 0.0, 0.0], dtype=complex)
        blocks = qfim_pure(theta)
        j_oracle, q_oracle = fidelity_hessian_blocks(theta)
        assert np.max(np.abs(blocks.diag_block - j_oracle)) < 1e-4
        assert np.max(np.abs(blocks.off_block - q_oracle)) < 1e-4

    def test_complex_theta_matches_fidelity_hessian(self):
        theta = np.array([0.05 + 0.08j, -0.1j, 0.02 - 0.03j])
        blocks = qfim_pure(theta)
        j_oracle, q_oracle = fidelity_hessian_blocks(theta)
        assert np.max(np.abs(blocks.diag_block - j_oracle)) < 1e-4
        assert np.max(np.abs(blocks.off_block - q_oracle)) < 1e-4


class TestCfimFirstOrder:
    def test_basis_povm(self, basis_povm):
        blocks = cfim_first_order(basis_povm)
        assert np.allclose(blocks.diag_block, np.eye(3), atol=1e-15)
        assert np.allclose(blocks.off_block, np.eye(3), atol=1e-15)

    def test_fisher_symmetric_povm(self, fsm_povm):
        assert c_norm(fsm_povm) < 1e-12
        blocks = cfim_first_order(fsm_povm)
        assert np.allclose(blocks.diag_block, np.eye(3), atol=1e-12)
        assert np.max(np.abs(blocks.off_block)) < 1e-12

    def test_family_off_block_is_conjugate_c(self, family_povm):
        blocks = cfim_first_order(family_povm)
        c = c_matrix(family_povm)
        assert np.max(np.abs(blocks.off_block - c.conj())) < 1e-14
        from pointtomo.fisher import matrix_norm

        assert matrix_norm(blocks.off_block) == pytest.approx(c_norm(family_povm), abs=1e-12)

    def test_incomplete_povm_rejected(self, raw_family_povm):
        # the raw experimental device misses completeness by ~1e-4
        with pytest.raises(InvalidInput):
            cfim_first_order(raw_family_povm)


class TestCfimNumeric:
    def test_matches_first_order_at_fiducial(self, family_povm):
        ref = cfim_first_order(family_povm)
        num = cfim_numeric(family_povm, np.zeros(3), step=1e-5)
        assert np.max(np.abs(num.diag_block - ref.diag_block)) < 1e-6
        assert np.max(np.abs(num.off_block - ref.off_block)) < 1e-6

    def test_matches_first_order_for_haar_povms(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            povm = haar_random_povm(4, 7, rng)
            ref = cfim_first_order(povm)
            num = cfim_numeric(povm, np.zeros(3), step=1e-5)
            assert np.max(np.abs(num.diag_block - ref.diag_block)) < 1e-6
            assert np.max(np.abs(num.off_block - ref.off_block)) < 1e-6

    def test_finite_psd_away_from_fiducial(self, family_povm):
        blocks = cfim_numeric(family_povm, np.array([0.1, 0.1, 0.1]), step=1e-5)
        evals = np.linalg.eigvalsh(blocks.assembled())
        assert np.all(np.isfinite(evals))
        assert evals.min() > -1e-9

    def test_step_validation(self, family_povm):
        with pytest.raises(InvalidInput):
            cfim_numeric(family_povm, np.zeros(3), step=0.0)
        with pytest.raises(InvalidInput):
            cfim_numeric(family_povm, np.zeros(3), step=1e-2)


class TestGillMassar:
    def test_wmse_values(self):
        assert gill_massar_wmse(4, 100) == pytest.approx(0.03, abs=1e-15)
        assert gill_massar_wmse(2, 1) == pytest.approx(1.0, abs=1e-15)
        assert gill_massar_wmse(4, 10 ** 5) == pytest.approx(3e-5, abs=1e-18)
        with pytest.raises(InvalidInput):
            gill_massar_wmse(1, 10)

    def test_equality_at_fiducial_for_rank_one_povms(self, family_povm, basis_povm, fsm_povm):
        qfim = qfim_pure(np.zeros(3))
        for povm in (family_povm, basis_povm, fsm_povm):
            val = gm_inequality_lhs(cfim_first_order(povm), qfim)
            assert val == pytest.approx(3.0, abs=1e-12)

    def test_equality_at_fiducial_for_random_povms(self):
        rng = np.random.default_rng(5)
        qfim = qfim_pure(np.zeros(3))
        for _ in range(100):
            povm = haar_random_povm(4, rng.integers(4, 10), rng)
            val = gm_inequality_lhs(cfim_first_order(povm), qfim)
            assert val == pytest.approx(3.0, abs=1e-9)

    def test_inequality_at_random_theta(self, family_povm):
        rng = np.random.default_rng(17)
        povms = [family_povm] + [haar_random_povm(4, 7, rng) for _ in range(3)]
        for povm in povms:
            for _ in range(10):
                theta = disk_theta(rng, 3, 0.1)
                val = gm_inequality_lhs(cfim_numeric(povm, theta, step=1e-6),
                                        qfim_pure(theta))
                assert val <= 3.0 + 1e-9


class TestCMatrix:
    def test_basis_povm_is_identity(self, basis_povm):
        assert np.allclose(c_matrix(basis_povm), np.eye(3), atol=1e-15)
        assert c_norm(basis_povm, "spectral") == pytest.approx(1.0, abs=1e-12)
        assert c_norm(basis_povm, "frobenius") == pytest.approx(np.sqrt(3), abs=1e-12)

    def test_family_design_anchor(self, family_povm):
        assert 0.61 <= c_norm(family_povm, "spectral") <= 0.65

    def test_symmetry(self, family_povm):
        c = c_matrix(family_povm)
        assert np.max(np.abs(c - c.T)) < 1e-12

    def test_invariant_under_outcome_phase_regauging(self, family_povm):
        from pointtomo.povm import Povm, gauge_fix_effects

        rng = np.random.default_rng(23)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, family_povm.n_outcomes))
        scrambled = family_povm.effects * phases[:, None]
        refixed = Povm(gauge_fix_effects(scrambled))
        assert c_norm(refixed) == pytest.approx(c_norm(family_povm), abs=1e-12)
        assert np.max(np.abs(refixed.effects - family_povm.effects)) < 1e-12

    def test_bad_norm_kind(self, family_povm):
        with pytest.raises(InvalidInput):
            c_norm(family_povm, "nuclear")


class TestFisherBlocks:
    def test_rejects_non_hermitian_diag(self):
        bad = np.eye(3) + 0.1j * np.eye(3)
        with pytest.raises(ConsistencyError):
            FisherBlocks(bad, np.zeros((3, 3)))

    def test_rejects_asymmetric_off(self):
        off = np.zeros((3, 3))
        off[0, 1] = 0.5
        with pytest.raises(ConsistencyError):
            FisherBlocks(np.eye(3), off)

    def test_rejects_indefinite_assembly(self):
        with pytest.raises(ConsistencyError):
            FisherBlocks(np.eye(3), 2.0 * np.eye(3))

    def test_assembled_shape(self, family_povm):
        blocks = cfim_first_order(family_povm)
        assert blocks.assembled().shape == (6, 6)


class TestAsymptoticCoefficient:
    def test_fisher_symmetric_reaches_limit(self, fsm_povm):
        # the quartet construction takes 4d - 3 = 13 outcomes at d = 4
        assert fsm_povm.n_outcomes == 13
        assert asymptotic_infidelity_coefficient(fsm_povm) == pytest.approx(3.0, abs=1e-10)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 8])
    def test_dft_rows_reach_the_limit_with_2d_minus_1_outcomes(self, d):
        povm = Povm(dft_columns(2 * d - 1, d))
        assert povm.n_outcomes == 2 * d - 1
        assert povm.completeness_deviation <= 1e-12
        assert np.max(np.abs(c_matrix(povm))) <= 1e-12
        assert asymptotic_infidelity_coefficient(povm) == d - 1

    def test_matches_inverse_information_route(self, family_povm):
        # independent route: half the trace of the inverse assembled CFIM
        coef = asymptotic_infidelity_coefficient(family_povm)
        inv = np.linalg.inv(cfim_first_order(family_povm).assembled())
        assert coef == pytest.approx(0.5 * np.trace(inv).real, rel=1e-12)

    def test_projective_is_degenerate(self, basis_povm):
        from pointtomo.errors import DegenerateInput

        with pytest.raises(DegenerateInput):
            asymptotic_infidelity_coefficient(basis_povm)
