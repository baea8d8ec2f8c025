import numpy as np
import pytest

from pointtomo.errors import InvalidInput
from pointtomo.states import (DensityMatrix, StateVector, born_probabilities, chart_amplitudes,
                              depolarize, equal_deviation_state, fidelities, fidelity,
                              neighborhood_state, pure_probabilities)


class TestNeighborhoodState:
    def test_zero_is_fiducial(self):
        psi = neighborhood_state(np.zeros(3))
        assert np.allclose(psi.amps, [1, 0, 0, 0], atol=1e-15)

    def test_equal_real_coefficients(self):
        # theta_j = sqrt(0.01) gives amplitude 0.1 on each deviation component
        t = np.sqrt(0.01)
        psi = neighborhood_state([t, t, t])
        expected = np.array([1.0, 0.1, 0.1, 0.1]) / np.sqrt(1.03)
        assert np.allclose(psi.amps, expected, atol=1e-14)

    def test_two_level_equal_weight(self):
        psi = neighborhood_state([1.0, 0.0, 0.0])
        assert np.allclose(psi.amps, [1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0], atol=1e-15)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInput):
            neighborhood_state([np.nan, 0.0])
        with pytest.raises(InvalidInput):
            neighborhood_state([np.inf * 1j, 0.0])

    def test_exact_normalization_at_large_theta(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            theta = rng.uniform(-0.5, 0.5, 3) + 1j * rng.uniform(-0.5, 0.5, 3)
            psi = neighborhood_state(theta)
            assert abs(np.linalg.norm(psi.amps) - 1.0) < 1e-12


class TestEqualDeviationState:
    def test_zero(self):
        assert np.allclose(equal_deviation_state(0.0).amps, [1, 0, 0, 0])

    @pytest.mark.parametrize("scalar", [0.01, 0.1, 0.2])
    def test_matches_neighborhood_chart(self, scalar):
        psi = equal_deviation_state(scalar)
        ref = neighborhood_state(np.full(3, np.sqrt(scalar)))
        assert np.allclose(psi.amps, ref.amps, atol=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(InvalidInput):
            equal_deviation_state(-0.1)


class TestDepolarize:
    def test_noiseless_limit(self):
        psi = neighborhood_state([0.1, 0.2j, -0.05])
        rho = depolarize(psi, 1.0)
        assert np.allclose(rho.mat, psi.projector(), atol=1e-15)

    def test_fully_mixed(self):
        rho = depolarize(neighborhood_state(np.zeros(3)), 0.0)
        assert np.allclose(rho.mat, np.eye(4) / 4, atol=1e-15)

    def test_diagonal_closed_form(self):
        lam = 0.987
        rho = depolarize(neighborhood_state(np.zeros(3)), lam)
        diag = np.diag(rho.mat).real
        assert diag[0] == pytest.approx(lam + (1 - lam) / 4, abs=1e-15)
        assert np.allclose(diag[1:], (1 - lam) / 4, atol=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInput):
            depolarize(neighborhood_state(np.zeros(3)), 1.0 + 1e-9)
        with pytest.raises(InvalidInput):
            depolarize(neighborhood_state(np.zeros(3)), -0.01)

    def test_invariants_hold_for_random_draws(self):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            psi = StateVector(v / np.linalg.norm(v))
            depolarize(psi, rng.uniform())  # DensityMatrix validates on construction


class TestFidelity:
    def test_identity_case(self):
        psi = neighborhood_state([0.1, -0.3j, 0.2])
        assert fidelity(psi, DensityMatrix(psi.projector())) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_case(self):
        psi = neighborhood_state(np.zeros(3))
        other = StateVector(np.array([0, 1, 0, 0], dtype=complex))
        assert fidelity(psi, DensityMatrix(other.projector())) == pytest.approx(0.0, abs=1e-14)

    def test_depolarized_fiducial(self):
        psi = neighborhood_state(np.zeros(3))
        assert fidelity(psi, depolarize(psi, 0.987)) == pytest.approx(0.99025, abs=1e-14)

    def test_dimension_mismatch(self):
        rho = depolarize(neighborhood_state(np.zeros(3)), 0.5)
        with pytest.raises(InvalidInput):
            fidelity(neighborhood_state(np.zeros(2)), rho)

    def test_depolarized_closed_form_property(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            psi = StateVector(v / np.linalg.norm(v))
            lam = rng.uniform()
            assert fidelity(psi, depolarize(psi, lam)) == pytest.approx(
                lam + (1 - lam) / 4, abs=1e-12)


class TestStackedForms:
    """neighborhood_state and fidelity are the one-row cases of chart_amplitudes
    and fidelities; a row's bits do not depend on its stack."""

    @staticmethod
    def chart_stack(rng, d, rows=120):
        theta = rng.uniform(-0.6, 0.6, (rows, d - 1)) + 1j * rng.uniform(-0.6, 0.6, (rows, d - 1))
        theta[::5] = 0.0                                            # the fiducial point
        theta[1::7] = 0.6 * np.sign(theta[1::7].real) - 0.6j        # corners of the chart box
        theta[2::7, 0] = -0.6                                       # one coordinate on the bound
        return theta

    @staticmethod
    def mixed_state(rng, d):
        return depolarize(neighborhood_state(0.3 * rng.standard_normal(d - 1) + 0.1j), 0.987)

    @pytest.mark.parametrize("d", [2, 4, 7])
    def test_rows_equal_the_one_row_forms_bit_for_bit(self, d):
        rng = np.random.default_rng(40 + d)
        theta, rho = self.chart_stack(rng, d), self.mixed_state(rng, d)
        amps = chart_amplitudes(theta)
        values = fidelities(amps, rho)
        for row, a, f in zip(theta, amps, values):
            psi = neighborhood_state(row)
            assert np.array_equal(psi.amps, a)
            assert fidelity(psi, rho) == f
            # the per-row forms the stacked ones replace: norm, then vdot of gemv
            v = np.concatenate(([1.0 + 0.0j], row))
            assert np.array_equal(a, v / np.linalg.norm(v))
            assert f == min(max(np.vdot(a, rho.mat @ a).real, 0.0), 1.0)

    def test_permutation_and_split_leave_every_row_unchanged(self):
        rng = np.random.default_rng(50)
        theta, rho = self.chart_stack(rng, 4), self.mixed_state(rng, 4)
        amps = chart_amplitudes(theta)
        values = fidelities(amps, rho)
        order = rng.permutation(len(theta))
        assert np.array_equal(chart_amplitudes(theta[order]), amps[order])
        assert np.array_equal(fidelities(amps[order], rho), values[order])
        for part in np.split(np.arange(len(theta)), [1, 17, 90]):
            assert np.array_equal(chart_amplitudes(theta[part]), amps[part])
            assert np.array_equal(fidelities(amps[part], rho), values[part])

    def test_empty_stack(self):
        amps = chart_amplitudes(np.empty((0, 3), dtype=complex))
        assert amps.shape == (0, 4)
        assert fidelities(amps, depolarize(neighborhood_state(np.zeros(3)), 0.5)).shape == (0,)

    def test_fiducial_is_the_chart_origin(self):
        assert np.array_equal(neighborhood_state(np.zeros(3)).amps, [1, 0, 0, 0])
        assert np.array_equal(chart_amplitudes(np.zeros((1, 3)))[0], [1, 0, 0, 0])


class TestBornProbabilities:
    def test_basis_on_fiducial(self, basis_povm):
        p = born_probabilities(basis_povm, depolarize(neighborhood_state(np.zeros(3)), 1.0))
        assert np.allclose(p, [1, 0, 0, 0], atol=1e-15)

    def test_maximally_mixed_completeness_trace(self, family_povm):
        p = born_probabilities(family_povm, depolarize(neighborhood_state(np.zeros(3)), 0.0))
        expected = np.sum(np.abs(family_povm.effects) ** 2, axis=1) / 4
        assert np.allclose(p, expected, atol=1e-14)
        assert p.sum() == pytest.approx(1.0, abs=1e-10)

    def test_against_dense_operator_oracle(self, family_povm):
        # independent route: build the rank-1 operators and trace against rho
        psi = equal_deviation_state(0.01)
        rho = depolarize(psi, 1.0)
        p = born_probabilities(family_povm, rho)
        ops = np.einsum("ej,ek->ejk", family_povm.effects, family_povm.effects.conj())
        oracle = np.real(np.einsum("ejk,kj->e", ops, rho.mat))
        assert np.allclose(p, oracle, atol=1e-13)

    def test_dimension_mismatch(self, family_povm):
        with pytest.raises(InvalidInput):
            born_probabilities(family_povm, depolarize(neighborhood_state(np.zeros(2)), 0.5))

    def test_pure_probabilities_of_a_stack_match_each_row(self, family_povm):
        rng = np.random.default_rng(8)
        amps = rng.standard_normal((37, 4)) + 1j * rng.standard_normal((37, 4))
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        stacked = pure_probabilities(family_povm.effects, amps)
        assert stacked.shape == (37, family_povm.n_outcomes)
        for row, probs in zip(amps, stacked):
            assert np.array_equal(pure_probabilities(family_povm.effects, row), probs)
        rho = depolarize(StateVector(amps[0]), 1.0)
        assert np.allclose(stacked[0], born_probabilities(family_povm, rho), atol=1e-14)

    def test_sums_to_one_for_designed_povms(self, device):
        from pointtomo.povm import effects_from_family, enumerate_families

        rng = np.random.default_rng(3)
        for subset in enumerate_families(7, 4)[::7]:
            povm = effects_from_family(device, subset)
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            rho = depolarize(StateVector(v / np.linalg.norm(v)), rng.uniform())
            assert born_probabilities(povm, rho).sum() == pytest.approx(1.0, abs=1e-10)


class TestTypeInvariants:
    def test_state_vector_rejects_unnormalized(self):
        with pytest.raises(InvalidInput):
            StateVector(np.array([1.0, 1.0], dtype=complex))

    def test_state_vector_rejects_scalar_dimension(self):
        with pytest.raises(InvalidInput):
            StateVector(np.array([1.0], dtype=complex))

    def test_density_matrix_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 0.1
        with pytest.raises(InvalidInput):
            DensityMatrix(m)

    def test_density_matrix_rejects_negative_eigenvalue(self):
        m = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
        with pytest.raises(InvalidInput):
            DensityMatrix(m)

    def test_density_matrix_rejects_wrong_trace(self):
        with pytest.raises(InvalidInput):
            DensityMatrix(np.eye(4, dtype=complex))

    def test_immutability(self):
        psi = neighborhood_state(np.zeros(3))
        with pytest.raises(ValueError):
            psi.amps[0] = 0.0
