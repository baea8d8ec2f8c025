import itertools
import threading

import numpy as np
import pytest

from pointtomo import povm as povm_module
from conftest import reference_tables
from pointtomo.assets import seven_port_matrix
from pointtomo.errors import DegenerateInput, InvalidInput
from pointtomo.fisher import NORM_KINDS, c_matrix, c_norm, matrix_norm
from pointtomo.povm import (GAUGE_FLOOR, HAAR_BLOCK, Povm, effects_from_family,
                            enumerate_families, gauge_fix_effects, haar_mean_c_norm,
                            haar_random_povm, load_mbs, optimize_phases)


class TestLoadMbs:
    def test_identity_has_zero_deviation(self):
        dev = load_mbs(np.eye(4), reunitarize=False)
        assert dev.unitarity_deviation == pytest.approx(0.0, abs=1e-15)

    def test_seven_port_deviation_matches_direct_computation(self):
        u = seven_port_matrix()
        dev = load_mbs(u, reunitarize=False)
        oracle = np.linalg.norm(u.conj().T @ u - np.eye(7), 2)
        assert dev.unitarity_deviation == pytest.approx(oracle, rel=1e-12)
        assert oracle > 1e-6  # the characterized device is measurably non-unitary

    def test_reunitarized_is_unitary(self):
        dev = load_mbs(seven_port_matrix())
        w = dev.u
        assert np.linalg.norm(w.conj().T @ w - np.eye(7), 2) < 1e-10
        assert 0 < dev.replacement_distance < 1e-3

    def test_non_square_rejected(self):
        with pytest.raises(InvalidInput):
            load_mbs(np.ones((3, 4)))

    def test_rank_deficient_rejected(self):
        m = np.eye(4, dtype=complex)
        m[3, 3] = 0.0
        with pytest.raises(DegenerateInput):
            load_mbs(m)


class TestEnumerateFamilies:
    def test_seven_choose_four(self):
        fams = enumerate_families(7, 4)
        assert len(fams) == 35
        assert len(set(fams)) == 35
        assert fams[0] == (1, 2, 3, 4)

    def test_single_family(self):
        assert enumerate_families(4, 4) == [(1, 2, 3, 4)]

    def test_five_choose_two(self):
        fams = enumerate_families(5, 2)
        assert len(fams) == 10
        assert fams[0] == (1, 2)

    def test_dim_too_large(self):
        with pytest.raises(InvalidInput):
            enumerate_families(4, 5)

    def test_binomial_count_property(self):
        from math import comb

        for n_ports, dim in [(5, 3), (6, 2), (7, 5), (8, 4)]:
            fams = enumerate_families(n_ports, dim)
            assert len(fams) == comb(n_ports, dim)
            assert len(set(fams)) == len(fams)


class TestEffectsFromFamily:
    def test_identity_device_gives_basis_povm(self):
        dev = load_mbs(np.eye(4))
        povm = effects_from_family(dev, (1, 2, 3, 4))
        assert np.allclose(povm.effects, np.eye(4), atol=1e-15)

    def test_identity_device_padded_with_zero_effects(self):
        dev = load_mbs(np.eye(7))
        povm = effects_from_family(dev, (1, 2, 3, 4))
        assert povm.n_outcomes == 7
        assert np.allclose(povm.effects[4:], 0.0, atol=1e-15)
        assert povm.completeness_deviation < 1e-12

    def test_reference_regression_all_families(self, raw_device):
        import warnings

        for subset, table in reference_tables().items():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                povm = effects_from_family(raw_device, subset)
            ref = table.T  # stored (components, outcomes)
            assert np.max(np.abs(povm.effects - ref)) < 5e-4, subset

    def test_raw_device_warns_about_completeness(self, raw_device):
        with pytest.warns(UserWarning, match="completeness"):
            effects_from_family(raw_device, (4, 5, 6, 7))

    def test_reunitarized_device_is_strictly_complete(self, device):
        for subset in [(1, 2, 3, 4), (4, 5, 6, 7), (2, 4, 6, 7)]:
            assert effects_from_family(device, subset).completeness_deviation < 1e-10

    def test_gauge_consistency_under_device_row_phases(self, device):
        rng = np.random.default_rng(4)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 7))
        scrambled = load_mbs(phases[:, None] * device.u)
        a = effects_from_family(device, (4, 5, 6, 7)).effects
        b = effects_from_family(scrambled, (4, 5, 6, 7)).effects
        assert np.max(np.abs(a - b)) < 1e-10

    def test_out_of_range_subset(self, device):
        for build in (effects_from_family, optimize_phases):
            with pytest.raises(InvalidInput):
                build(device, (4, 5, 6, 8))

    def test_family_object_with_phases(self, device):
        povm = effects_from_family(device, (4, 5, 6, 7), np.array([0.0, 0.3, 1.1, 2.0]))
        assert povm.completeness_deviation < 1e-10

    @pytest.mark.parametrize("subset, phases, message", [
        ((4, 4, 5, 6), None, "subset must be strictly increasing with >= 2 entries, "
                             "got (4, 4, 5, 6)"),
        ((0, 1, 2, 3), None, "subset indices are 1-based"),
        ((4, 5, 6, 8), None, "subset (4, 5, 6, 8) is out of range for a 7-port device"),
        ((4, 5, 6, 7), (0.0, 0.3, 1.1), "need one phase per connected input, got shape (3,)"),
        ((4, 5, 6, 7), (0.1, 0.0, 0.0, 0.0), "the first phase is the gauge and must be 0"),
        # the checks run in this order: subset, phase count, finiteness, gauge, port range
        ((0, 1, 2, 3), (0.0, 0.3, 1.1), "subset indices are 1-based"),
        ((4, 5, 6, 8), (0.1, 0.0, 0.0, 0.0), "the first phase is the gauge and must be 0"),
        ((4, 5, 6, 7), (np.nan, 0.0, 0.0, 0.0), "input phases must be finite, "
                                                "got (nan, 0.0, 0.0, 0.0)"),
        ((4, 5, 6, 7), (0.0, np.nan, 0.0, 0.0), "input phases must be finite, "
                                                "got (0.0, nan, 0.0, 0.0)"),
        ((4, 5, 6, 7), (0.0, np.inf, 0.0, 0.0), "input phases must be finite, "
                                                "got (0.0, inf, 0.0, 0.0)"),
    ])
    def test_malformed_family_is_rejected(self, device, subset, phases, message):
        with pytest.raises(InvalidInput) as excinfo:
            effects_from_family(device, subset, phases)
        assert str(excinfo.value) == message


@pytest.fixture(scope="module")
def design_devices(device):
    """The shipped device and five Haar-random 7-port devices."""
    rng = np.random.default_rng(31)
    return [device] + [load_mbs(_reference_unitary(7, rng)) for _ in range(5)]


class TestOptimizePhases:
    def test_c_matrix_is_phase_covariant(self, design_devices):
        # C(phi) = D C(0) D with D = diag(exp(-i phi_j)), j >= 1, so no norm moves
        rng = np.random.default_rng(32)
        for dev in design_devices:
            for subset in enumerate_families(7, 4):
                c0 = c_matrix(effects_from_family(dev, subset))
                for _ in range(5):
                    phases = np.concatenate(([0.0], rng.uniform(0.0, 2.0 * np.pi, 3)))
                    c = c_matrix(effects_from_family(dev, subset, phases))
                    d = np.exp(-1j * phases[1:])
                    assert np.max(np.abs(c - d[:, None] * c0 * d[None, :])) < 1e-12, subset
                    for kind in NORM_KINDS:
                        assert abs(matrix_norm(c, kind) - matrix_norm(c0, kind)) < 1e-12

    def test_returns_zero_phase_family_and_norm(self, design_devices):
        for dev in design_devices:
            for subset in enumerate_families(7, 4):
                for kind in NORM_KINDS:
                    phases, best = optimize_phases(dev, subset, norm_kind=kind)
                    assert phases.shape == (len(subset),)
                    assert not np.any(phases)
                    assert best == c_norm(effects_from_family(dev, subset), kind)

    def test_identity_device_norm_is_phase_invariant(self):
        dev = load_mbs(np.eye(4))
        zero_norm = c_norm(effects_from_family(dev, (1, 2, 3, 4)))
        _, best = optimize_phases(dev, (1, 2, 3, 4), n_starts=4, seed=0)
        assert zero_norm == pytest.approx(1.0, abs=1e-12)
        assert best == pytest.approx(1.0, abs=1e-9)

    def test_shared_input_behind_vanishing_lead_raises(self):
        # outcome 3 has no leading coefficient and shares input 2 with outcomes
        # 1 and 2, so C(phi) = (exp(-2i phi) + 1) / 2 moves from 1 to 0
        r = np.sqrt(0.5)
        dev = load_mbs(np.array([[r, 0.5, 0.5], [r, -0.5, -0.5], [0.0, r, -r]]))
        assert c_norm(effects_from_family(dev, (1, 2))) == pytest.approx(1.0, abs=1e-12)
        assert c_norm(effects_from_family(dev, (1, 2), [0.0, np.pi / 2])) < 1e-12
        with pytest.raises(DegenerateInput, match="input phases"):
            optimize_phases(dev, (1, 2))
        assert optimize_phases(dev, (2, 3))[1] == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_anchor_blocks_are_phase_invariant(self):
        # outcomes 3 and 4 are anchored on input 2 and alone reach inputs 2 and 3
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        dev = load_mbs(np.kron(np.eye(2), h))
        _, best = optimize_phases(dev, (1, 2, 3, 4))
        rng = np.random.default_rng(5)
        for _ in range(5):
            phases = np.concatenate(([0.0], rng.uniform(0.0, 2.0 * np.pi, 3)))
            assert c_norm(effects_from_family(dev, (1, 2, 3, 4), phases)) == pytest.approx(best, abs=1e-12)

    def test_never_exceeds_zero_phase_norm(self, device):
        for subset in [(4, 5, 6, 7), (1, 2, 3, 4), (2, 3, 5, 7)]:
            zero_norm = c_norm(effects_from_family(device, subset))
            _, best = optimize_phases(device, subset, n_starts=4, seed=1)
            assert best <= zero_norm + 1e-12

    def test_deterministic_given_seed(self, device):
        phases1, best1 = optimize_phases(device, (4, 5, 6, 7), n_starts=3, seed=9)
        phases2, best2 = optimize_phases(device, (4, 5, 6, 7), n_starts=3, seed=9)
        assert best1 == best2
        assert np.array_equal(phases1, phases2)

    def test_winner_norm_anchor(self, device):
        _, best = optimize_phases(device, (4, 5, 6, 7), n_starts=8, seed=0)
        assert 0.61 <= best <= 0.65


def _reference_unitary(n, rng):
    """One Haar unitary per call, as drawn before the baseline was batched."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def _reference_mean_c_norm(dim, n_outcomes, samples, rng, kind):
    """Per-sample loop that the batched ``haar_mean_c_norm`` must reproduce."""
    vals = np.empty(samples)
    for i in range(samples):
        block = _reference_unitary(n_outcomes, rng)[:, 1:dim]
        vals[i] = matrix_norm(block.T @ block, kind)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(samples))


class TestHaarSampling:
    @pytest.mark.parametrize("samples", [100, 1000, 10_000])
    def test_batched_baseline_matches_per_sample_loop(self, samples):
        # none of the sample counts is a multiple of the block size
        for kind in NORM_KINDS:
            rng, ref_rng = np.random.default_rng(samples), np.random.default_rng(samples)
            got = haar_mean_c_norm(4, 7, samples, rng, kind=kind)
            want = _reference_mean_c_norm(4, 7, samples, ref_rng, kind)
            assert got == pytest.approx(want, rel=1e-15, abs=0)
            # the generator is left where the per-sample loop leaves it
            assert rng.standard_normal() == ref_rng.standard_normal()

    def test_nearly_dependent_draws_match_per_sample_loop(self):
        # condition number ~1e8: one Gram-Schmidt pass would lose orthogonality, by 3e-8
        # in the spectral mean; the second pass keeps the columns orthonormal
        class NearlyDependent:
            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)

            def standard_normal(self, shape):
                g = self.rng.standard_normal(shape)
                g[..., 1] = g[..., 0] + 1e-8 * g[..., 1]
                return g

        for kind in NORM_KINDS:
            got = haar_mean_c_norm(4, 4, 1000, NearlyDependent(5), kind=kind)
            want = _reference_mean_c_norm(4, 4, 1000, NearlyDependent(5), kind)
            assert got == pytest.approx(want, rel=1e-13, abs=1e-15)

    def test_baseline_starts_no_thread(self, monkeypatch):
        # three blocks, the last one partial, all normed in the calling thread
        samples, want = 2 * HAAR_BLOCK + 1, {}
        for kind in NORM_KINDS:
            want[kind] = haar_mean_c_norm(4, 7, samples, np.random.default_rng(3), kind=kind)

        def refuse(thread):
            raise RuntimeError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        for kind in NORM_KINDS:
            assert haar_mean_c_norm(4, 7, samples, np.random.default_rng(3), kind=kind) == want[kind]

    @pytest.mark.parametrize("samples", [100, 513, 10_000])
    def test_baseline_does_not_depend_on_the_thread_count(self, monkeypatch, samples):
        # the cores the process may use change neither the value nor the generator's end state
        for kind in NORM_KINDS:
            runs = []
            for cores in (1, 3):
                monkeypatch.setattr(povm_module, "available_cores", lambda: cores)
                rng = np.random.default_rng(samples)
                runs.append((haar_mean_c_norm(4, 7, samples, rng, kind=kind),
                             rng.bit_generator.state))
            assert runs[0] == runs[1]

    def test_failed_block_propagates_and_leaves_no_thread(self, monkeypatch):
        eigvalsh, calls = np.linalg.eigvalsh, itertools.count(1)

        def eigvalsh_failing_on_third_block(a, *args, **kwargs):
            if next(calls) == 3:
                raise np.linalg.LinAlgError("third block")
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh_failing_on_third_block)
        monkeypatch.setattr(povm_module, "available_cores", lambda: 3)
        before = threading.active_count()
        with pytest.raises(np.linalg.LinAlgError, match="third block"):
            haar_mean_c_norm(4, 7, 10_000, np.random.default_rng(0))
        assert threading.active_count() == before

    def test_unitary_matches_per_sample_reference(self):
        for seed in (0, 1, 6, 987):
            got = haar_random_povm(4, 7, np.random.default_rng(seed)).effects
            want = gauge_fix_effects(_reference_unitary(7, np.random.default_rng(seed))[:, :4])
            assert np.array_equal(got, want)

    def test_povm_invariants(self):
        rng = np.random.default_rng(7)
        povm = haar_random_povm(4, 7, rng)
        assert povm.completeness_deviation < 1e-10
        lead = povm.effects[:, 0]
        assert np.max(np.abs(lead.imag)) < 1e-12
        assert lead.real.min() >= 0

    def test_projective_case_has_unit_c_norm(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            povm = haar_random_povm(4, 4, rng)
            assert c_norm(povm) == pytest.approx(1.0, abs=1e-9)

    def test_needs_enough_outcomes(self):
        with pytest.raises(InvalidInput):
            haar_random_povm(4, 3, np.random.default_rng(0))

    def test_mean_c_norm_published_baseline(self):
        rng = np.random.default_rng(9)
        mean, err = haar_mean_c_norm(4, 7, 2000, rng)
        assert err < 0.003
        assert 0.913 <= mean <= 0.933

    def test_mean_c_norm_projective(self):
        rng = np.random.default_rng(11)
        mean, err = haar_mean_c_norm(4, 4, 1000, rng)
        assert mean == pytest.approx(1.0, abs=1e-9)
        assert err < 1e-9

    def test_mean_c_norm_small_case_in_unit_interval(self):
        rng = np.random.default_rng(12)
        mean, _ = haar_mean_c_norm(2, 3, 1000, rng)
        assert 0.0 < mean < 1.0

    def test_sample_floor(self):
        with pytest.raises(InvalidInput):
            haar_mean_c_norm(4, 7, 99, np.random.default_rng(0))


class TestGaugeAndValidation:
    def test_zero_anchor_falls_back_to_first_large_component(self):
        raw = np.array([[0.0, 1j, 0.0, 0.0],
                        [1.0, 0.0, 0.0, 0.0],
                        [0.0, 0.0, 1j, 0.0],
                        [0.0, 0.0, 0.0, -1.0]], dtype=complex)
        fixed = gauge_fix_effects(raw)
        assert fixed[0, 1] == pytest.approx(1.0)
        assert fixed[2, 2] == pytest.approx(1.0)
        assert fixed[3, 3] == pytest.approx(1.0)

    def test_all_zero_effect_is_left_alone(self):
        raw = np.zeros((2, 4), dtype=complex)
        raw[0, 0] = 1.0
        assert np.allclose(gauge_fix_effects(raw)[1], 0.0)
        # non-zero but nowhere above GAUGE_FLOOR: no anchor, so no rotation
        tiny = np.array([[1.0, 0, 0, 0], [1e-14j, 1e-13, 0, 0]], dtype=complex)
        assert np.array_equal(gauge_fix_effects(tiny), tiny)

    def test_matches_per_row_reference(self):
        def reference(raw):
            fixed = np.array(raw, dtype=complex)
            for row in fixed:
                above = np.nonzero(np.abs(row) > GAUGE_FLOOR)[0]
                if above.size:
                    row *= np.exp(-1j * np.angle(row[above[0]]))
            return fixed

        rng = np.random.default_rng(12)
        for _ in range(50):
            raw = _reference_unitary(7, rng)[:, :4]
            raw[rng.random(raw.shape) < 0.3] = 0.0   # vanishing anchors take the fallback
            raw[0] = [1e-14j, 1e-13, 0.0, 0.0]
            assert gauge_fix_effects(raw).tobytes() == reference(raw).tobytes()

    def test_povm_rejects_ungauged_effects(self):
        eff = np.eye(4, dtype=complex)
        eff[0, 0] = 1j
        with pytest.raises(InvalidInput):
            Povm(eff)

    def test_povm_records_completeness_deviation(self):
        povm = Povm(np.eye(4, dtype=complex) * 0.999)
        assert povm.completeness_deviation == pytest.approx(1 - 0.999 ** 2, rel=1e-6)
        assert not povm.is_complete()
