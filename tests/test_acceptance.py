"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line with the measured value next to its tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import warnings

import numpy as np

from conftest import WINNER, disk_theta
from pointtomo.assets import reference_effects, reference_family_keys
from pointtomo.cli import main as cli_main
from pointtomo.estimator import MleConfig, estimate_state, fit_power_law
from pointtomo.fisher import (cfim_first_order, cfim_numeric,
                              gm_inequality_lhs, qfim_pure)
from pointtomo.povm import (available_cores, effects_from_family, enumerate_families,
                            haar_mean_c_norm, haar_random_povm, optimize_phases)
from pointtomo.simulate import NoiseConfig, SweepConfig, run_sweep
from pointtomo.states import neighborhood_state, pure_probabilities

WORKERS = min(available_cores(), 8)
_cache = {}


def report(criterion, ok, detail):
    import conftest

    line = f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, detail


def optimized_norms(device, kind):
    key = ("norms", kind)
    if key not in _cache:
        norms = {}
        for subset in enumerate_families(7, 4):
            _, best = optimize_phases(device, subset, n_starts=32, seed=0, norm_kind=kind)
            norms[subset] = best
        _cache[key] = norms
    return _cache[key]


def haar_baseline(kind):
    key = ("haar", kind)
    if key not in _cache:
        rng = np.random.default_rng(987)
        _cache[key] = haar_mean_c_norm(4, 7, 10_000, rng, kind=kind)
    return _cache[key]


def test_criterion_01_family_count():
    n = len(enumerate_families(7, 4))
    report(1, n == 35, f"enumerate_families(7, 4) -> {n} families (expected exactly 35)")


def test_criterion_02_reference_matrix_regression(raw_device):
    worst = 0.0
    for subset in reference_family_keys():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            povm = effects_from_family(raw_device, subset)
        diff = float(np.max(np.abs(povm.effects - reference_effects(subset).T)))
        worst = max(worst, diff)
    report(2, worst < 5e-4,
           f"worst entrywise deviation across 35 reference tables = {worst:.2e} (< 5e-4)")


def test_criterion_03_design_anchor(device):
    norms = optimized_norms(device, "spectral")
    best_subset = min(norms, key=norms.get)
    winner_norm = norms[WINNER]
    ok = (0.61 <= winner_norm <= 0.65) and best_subset == WINNER
    report(3, ok, f"optimized spectral ||C|| for {WINNER} = {winner_norm:.4f} "
                  f"(in [0.61, 0.65]); global minimizer = {best_subset}")


def test_criterion_04_haar_baseline():
    mean, err = haar_baseline("spectral")
    ok = 0.913 <= mean <= 0.933
    report(4, ok, f"mean spectral ||C|| over 10^4 Haar POVMs (d=4, n=7) = "
                  f"{mean:.4f} +/- {err:.4f} (in [0.913, 0.933])")


def test_criterion_05_norm_adjudication(device):
    satisfied = {}
    for kind in ("spectral", "frobenius"):
        norms = optimized_norms(device, kind)
        crit3 = 0.61 <= norms[WINNER] <= 0.65 and min(norms, key=norms.get) == WINNER
        mean, _ = haar_baseline(kind)
        crit4 = 0.913 <= mean <= 0.933
        satisfied[kind] = crit3 and crit4
    winners = [k for k, v in satisfied.items() if v]
    default = winners[0] if len(winners) == 1 else "spectral"
    ok = default == "spectral"
    report(5, ok, f"norm kinds satisfying criteria 3+4: {winners or 'none'} "
                  f"-> documented default '{default}'")


def test_criterion_06_fiducial_qfim():
    blocks = qfim_pure(np.zeros(3))
    dev = max(float(np.max(np.abs(blocks.diag_block - 2 * np.eye(3)))),
              float(np.max(np.abs(blocks.off_block))))
    report(6, dev < 1e-12, f"qfim_pure(0) deviation from (2*I3, 0) = {dev:.2e} (< 1e-12)")


def test_criterion_07_cfim_cross_check(family_povm):
    rng = np.random.default_rng(321)
    povms = [family_povm] + [haar_random_povm(4, 7, rng) for _ in range(20)]
    worst = 0.0
    for povm in povms:
        ref = cfim_first_order(povm)
        num = cfim_numeric(povm, np.zeros(3), step=1e-5)
        worst = max(worst,
                    float(np.max(np.abs(num.diag_block - ref.diag_block))),
                    float(np.max(np.abs(num.off_block - ref.off_block))))
    report(7, worst < 1e-6,
           f"numeric-vs-first-order CFIM deviation over 21 POVMs = {worst:.2e} (< 1e-6)")


def test_criterion_08_gill_massar(family_povm, basis_povm):
    rng = np.random.default_rng(654)
    qfim0 = qfim_pure(np.zeros(3))
    worst_eq = 0.0
    povms = [family_povm, basis_povm] + [haar_random_povm(4, 7, rng) for _ in range(100)]
    for povm in povms:
        val = gm_inequality_lhs(cfim_first_order(povm), qfim0)
        worst_eq = max(worst_eq, abs(val - 3.0))
    worst_ineq = -np.inf
    for povm in (family_povm, *[haar_random_povm(4, 7, rng) for _ in range(5)]):
        for _ in range(10):
            theta = disk_theta(rng, 3, 0.1)
            val = gm_inequality_lhs(cfim_numeric(povm, theta, step=1e-6), qfim_pure(theta))
            worst_ineq = max(worst_ineq, val - 3.0)
    ok = worst_eq < 1e-9 and worst_ineq <= 1e-9
    report(8, ok, f"fiducial equality |tr(I J^-1) - 3| <= {worst_eq:.2e} over 102 POVMs; "
                  f"max excess over 3 at random theta = {worst_ineq:.2e} (<= 1e-9)")


def test_criterion_09_scaling_reproduction(family_povm):
    cfg = SweepConfig(theta_scalar=0.01, n_grid=(100, 1000, 10_000, 100_000),
                      repetitions=200, noise=NoiseConfig(lam=1.0), seed=20_240)
    result = run_sweep(cfg, povm=family_povm, workers=WORKERS)
    fit = fit_power_law(result.points())
    arr = result.as_array()
    gm_ok = True
    means = {}
    for n in cfg.n_grid:
        sel = arr[arr[:, 0] == n, 2]
        mean, stderr = sel.mean(), sel.std(ddof=1) / np.sqrt(sel.size)
        means[n] = float(mean * n)
        gm_ok &= mean >= 3.0 / n - 2.0 * stderr
    ok = (-1.1 <= fit.exponent <= -0.9) and (2.5 <= fit.coefficient <= 5.0) and gm_ok
    report(9, ok, f"fit c = {fit.coefficient:.2f} (in [2.5, 5]), exponent = "
                  f"{fit.exponent:.3f} (in [-1.1, -0.9]); mean*N per N = "
                  f"{ {n: round(v, 2) for n, v in means.items()} }; "
                  f"never significantly below 3/N: {gm_ok}")


def test_criterion_10_plateau_reproduction(family_povm):
    from pointtomo.simulate import expected_infidelity_floor, prepared_state

    cfg = SweepConfig(theta_scalar=0.2, n_grid=(10_000, 100_000, 1_000_000),
                      repetitions=50, noise=NoiseConfig(lam=0.987), seed=31_415)
    result = run_sweep(cfg, povm=family_povm, workers=WORKERS)
    arr = result.as_array()
    last = arr[arr[:, 0] == 1_000_000, 2].mean()
    gm = 3.0 / 1_000_000
    rho = prepared_state(cfg, family_povm.dim)
    floor = expected_infidelity_floor(rho, family_povm)
    ok = last > 5.0 * gm and floor / 3.0 <= last <= 3.0 * floor
    report(10, ok, f"mean infidelity at N=1e6 = {last:.4e} = {last / gm:.0f} x (3/N) "
                   f"(> 5x); analytic floor = {floor:.4e}, ratio = {last / floor:.2f} "
                   f"(within factor 3)")


def test_criterion_11_estimator_consistency(family_povm):
    rng = np.random.default_rng(777)
    cfg = MleConfig(starts=16)
    worst = 0.0
    for _ in range(100):
        theta = disk_theta(rng, 3, 0.3)
        freqs = pure_probabilities(family_povm.effects, neighborhood_state(theta).amps)
        est = estimate_state(freqs, family_povm, cfg)
        infid = 1.0 - np.abs(np.vdot(est.amps, neighborhood_state(theta).amps)) ** 2
        worst = max(worst, infid)
    report(11, worst < 1e-6,
           f"worst recovery infidelity over 100 exact-frequency draws = {worst:.2e} (< 1e-6)")


def test_criterion_12_determinism(tmp_path):
    args = ["simulate", "--theta", "0.01", "--n-grid", "100,1000", "--reps", "3",
            "--boot", "12", "--seed", "606", "--mle-starts", "4"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    sim_ok = a.read_bytes() == b.read_bytes()
    boot_args = ["bootstrap", "--theta", "0.1", "--n", "500", "--boot", "20",
                 "--seed", "17", "--mle-starts", "4"]
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    assert cli_main(boot_args + ["--out", str(c)]) == 0
    assert cli_main(boot_args + ["--out", str(d)]) == 0
    boot_ok = c.read_bytes() == d.read_bytes()
    report(12, sim_ok and boot_ok,
           f"simulate tables byte-identical: {sim_ok}; bootstrap tables byte-identical: {boot_ok}")
