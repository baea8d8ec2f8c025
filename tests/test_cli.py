import dataclasses
import json
import os
import subprocess
import sys
import warnings
from datetime import datetime

import numpy as np
import pytest

from conftest import dft_columns
from pointtomo.assets import U7_NAME, asset_text, format_matrix_text
from pointtomo import cli
from pointtomo import povm as povm_module
from pointtomo.cli import main
from pointtomo.fisher import asymptotic_infidelity_coefficient
from pointtomo.io import atomic_write_text, read_sweep_table, sweep_table_text
from pointtomo.povm import HAAR_BLOCK, available_cores, effects_from_family
from pointtomo.simulate import (OUTCOMES, NoiseConfig, SweepConfig, SweepResult,
                                bootstrap_infidelity, expected_infidelity_floor, perturb_effects,
                                run_sweep, sample_counts, trial_rng)
from pointtomo.states import born_probabilities, depolarize, equal_deviation_state


def run_cli(*argv):
    return main(list(argv))


class TestSimulateCommand:
    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--theta", "0.01", "--n-grid", "50,100", "--reps", "2",
                "--seed", "5"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*args, "--out", str(out1)) == 0
        assert run_cli(*args, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_workers_default_to_the_affinity_mask(self, monkeypatch, capsys):
        # the default is read when simulate runs, not when main's parser is built
        requested = []

        def one_process_sweep(cfg, povm, workers):
            requested.append(workers)
            return run_sweep(cfg, povm, workers=1)

        monkeypatch.setattr(cli, "run_sweep", one_process_sweep)
        argv = ["simulate", "--theta", "0.01", "--n-grid", "50", "--seed", "1"]
        assert cli.build_parser().parse_args(argv).workers is None
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert run_cli(*argv) == 0
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert available_cores() == 3
        assert run_cli(*argv) == 0
        assert run_cli(*argv, "--workers", "2") == 0
        assert requested == [1, 3, 2]
        # where the platform has no affinity call, the count of all cores
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert available_cores() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert available_cores() == 1

    def test_runs_in_one_process_do_not_share_state(self, tmp_path, capsys):
        # main keeps one parser for the process: a simulate run, a bootstrap run
        # and the same simulate run again give the same tables
        sim = ["simulate", "--theta", "0.2", "--lambda", "0.987", "--n-grid", "100,1000",
               "--reps", "2", "--boot", "10", "--seed", "6", "--workers", "1"]
        first, again, boot = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "boot.csv"
        assert run_cli(*sim, "--out", str(first)) == 0
        assert run_cli("bootstrap", "--theta", "0.01", "--n", "300", "--boot", "12", "--seed", "6",
                       "--subset", "1,3,5,7", "--out", str(boot)) == 0
        assert run_cli(*sim, "--out", str(again)) == 0
        assert first.read_bytes() == again.read_bytes()
        meta = [json.loads(p.with_suffix(".meta.json").read_text()) for p in (first, again)]
        assert meta[0]["config_hash"] == meta[1]["config_hash"]

    def test_metadata_sidecar(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli("simulate", "--theta", "0.01", "--n-grid", "60", "--reps", "1",
                       "--seed", "9", "--out", str(out)) == 0
        meta = json.loads((tmp_path / "sweep.meta.json").read_text())
        assert meta["seed"] == 9
        assert meta["rows"] == 1
        assert len(meta["config_hash"]) == 64
        assert datetime.fromisoformat(meta["timestamp"]).tzinfo is not None
        assert "versions" in meta
        assert set(meta["versions"]) == {"pointtomo", "numpy"}

    def test_sidecar_keys_of_every_command(self, tmp_path):
        # each command's top-level sidecar keys, exactly as the README lists them
        common = {"config_hash", "seed", "versions", "timestamp"}
        sweep = tmp_path / "s.csv"
        runs = {
            "simulate": (["simulate", "--theta", "0.01", "--n-grid", "50,100", "--reps", "2",
                          "--seed", "4", "--workers", "1"],
                         {"rows", "workers", "stage_s", "fallback_rows", *OUTCOMES},
                         {"sweep", "write"}),
            "bootstrap": (["bootstrap", "--counts", "40,30,20,5,3,1,1", "--theta", "0.01",
                           "--seed", "4", "--boot", "10"],
                          {"resampling", "workers", "stage_s", "fallback_rows", *OUTCOMES},
                          {"estimate", "write"}),
            "fisher": (["fisher", "--haar-baseline", "100"], {"workers", "stage_s"},
                       {"haar", "write"}),
            "design": (["design"], set(), set()),
            "fit": (["fit", str(sweep)], set(), set()),
            "report": (["report", str(sweep)], set(), set()),
        }
        for name, (argv, keys, stages) in runs.items():
            out = sweep if name == "simulate" else tmp_path / f"{name}.txt"
            assert run_cli(*argv, "--out", str(out)) == 0, name
            meta = json.loads(out.with_suffix(".meta.json").read_text())
            assert set(meta) == common | keys, name
            assert set(meta.get("stage_s", ())) == stages, name

    def test_seed_required(self, capsys):
        # a missing --seed, --epsilon on bootstrap, which never reads it, and the
        # deleted --raw-device and --mle-starts
        for argv in (["simulate", "--theta", "0.01", "--n-grid", "50"],
                     ["bootstrap", "--theta", "0.01", "--seed", "4", "--epsilon", "0.3"],
                     ["design", "--raw-device"],
                     ["simulate", "--theta", "0.01", "--n-grid", "50", "--seed", "4",
                      "--mle-starts", "4"],
                     ["bootstrap", "--theta", "0.01", "--seed", "4", "--mle-starts", "4"]):
            with pytest.raises(SystemExit) as excinfo:
                run_cli(*argv)
            assert excinfo.value.code == 2

    def test_sidecar_hash_covers_every_table_argument(self, tmp_path):
        def digest(*argv, name="t.txt"):
            out = tmp_path / name
            assert run_cli(*argv, "--out", str(out)) == 0
            return json.loads(out.with_suffix(".meta.json").read_text())["config_hash"]

        assert digest("fisher") != digest("fisher", "--phases", "0,0.3,1.1,2.5")
        device = tmp_path / "identity.txt"
        device.write_text("\n".join(" ".join("+1+0j" if i == j else "+0+0j"
                                             for j in range(4)) for i in range(4)) + "\n")
        design = ("design", "--device", str(device))
        assert digest(*design) != digest(*design, "--norm", "frobenius")
        # --seed and --starts do not change the design table; the seed is still recorded
        assert digest(*design, "--seed", "0") == digest(*design, "--seed", "5")
        assert json.loads((tmp_path / "t.meta.json").read_text())["seed"] == 5
        assert digest(*design, "--starts", "0") == digest(*design, "--starts", "32")
        boot = ("bootstrap", "--counts", "40,30,20,5,3,1,1", "--seed", "4", "--boot", "10")
        assert digest(*boot, "--theta", "0.01") != digest(*boot, "--theta", "0.2")
        # --n does not change a table of given --counts
        assert digest(*boot, "--theta", "0.01", "--n", "1000") == \
            digest(*boot, "--theta", "0.01", "--n", "5000")
        boot = ("bootstrap", "--theta", "0.01", "--seed", "4", "--boot", "10")
        assert digest(*boot, "--n", "1000") != digest(*boot, "--n", "5000")
        sim = ("simulate", "--theta", "0.01", "--n-grid", "50", "--reps", "2", "--seed", "4")
        assert (digest(*sim, "--workers", "1", name="a.csv")
                == digest(*sim, "--workers", "2", name="b.csv"))

    def test_sidecar_counts_pinned_and_unconverged_estimates(self, tmp_path):
        # the N=1e3 plateau trials of test_plateau_monotone_and_floored: 2 of 12
        # point estimates end on the chart bound
        out = tmp_path / "plateau.csv"
        assert run_cli("simulate", "--theta", "0.2", "--lambda", "0.987", "--n-grid", "1000",
                       "--reps", "12", "--seed", "13", "--workers", "1",
                       "--out", str(out)) == 0
        meta = json.loads((tmp_path / "plateau.meta.json").read_text())
        assert meta["estimates_at_bound"] == 2
        assert meta["estimates_not_converged"] == 0
        assert len(read_sweep_table(str(out))) == meta["rows"] == 12

    def test_sidecars_count_replica_outcomes(self, tmp_path, family_povm):
        # N=100 at theta=0.2, lambda=0.987: some bootstrap replicas end on the bound
        out = tmp_path / "boot.csv"
        assert run_cli("simulate", "--theta", "0.2", "--lambda", "0.987", "--n-grid", "100",
                       "--reps", "3", "--boot", "10", "--seed", "13", "--workers", "1",
                       "--out", str(out)) == 0
        meta = json.loads((tmp_path / "boot.meta.json").read_text())
        rho = depolarize(equal_deviation_state(0.2), 0.987)
        probs = born_probabilities(family_povm, rho)
        boots = [bootstrap_infidelity(sample_counts(probs, 100, trial_rng(13, 0, t)), family_povm,
                                      rho, 10, trial_rng(13, 0, t, stream=1)) for t in range(3)]
        assert meta["replicas_at_bound"] == sum(b.outcomes["replicas_at_bound"]
                                                for b in boots) > 0
        assert meta["replicas_not_converged"] == sum(b.outcomes["replicas_not_converged"]
                                                     for b in boots)
        assert run_cli("bootstrap", "--theta", "0.2", "--lambda", "0.987", "--n", "100",
                       "--boot", "10", "--seed", "13", "--out", str(out)) == 0
        meta = json.loads((tmp_path / "boot.meta.json").read_text())
        assert (meta["replicas_at_bound"], meta["replicas_not_converged"]) == \
            (boots[0].outcomes["replicas_at_bound"], boots[0].outcomes["replicas_not_converged"])

    def test_sidecars_record_the_result_outcomes(self, tmp_path, family_povm):
        # both sidecars hold the result's OUTCOMES, under those names; a bootstrap
        # also counts its point estimate, which both count sets pin to the bound
        # (the degenerate one has no replicas)
        sim = SweepConfig(theta_scalar=0.2, n_grid=(100,), repetitions=3,
                          noise=NoiseConfig(lam=0.987), seed=13, n_boot=10)
        runs = [(("simulate", "--theta", "0.2", "--lambda", "0.987", "--n-grid", "100",
                  "--reps", "3", "--boot", "10", "--seed", "13", "--workers", "1"),
                 run_sweep(sim, povm=family_povm).outcomes)]
        rho = depolarize(equal_deviation_state(0.01), 1.0)
        for counts, replicas_at_bound in (("0,0,5,0,0,0,0", 0), ("40,30,20,5,3,1,1", 6)):
            boot = bootstrap_infidelity(np.array(counts.split(","), dtype=float), family_povm,
                                        rho, 10, trial_rng(2, 0, 0, stream=1))
            assert boot.outcomes == dict(zip(OUTCOMES, (1, 0, replicas_at_bound, 0)))
            runs.append((("bootstrap", "--theta", "0.01", "--counts", counts, "--boot", "10",
                          "--seed", "2"), boot.outcomes))
        for argv, outcomes in runs:
            assert tuple(outcomes) == OUTCOMES
            out = tmp_path / "run.csv"
            assert run_cli(*argv, "--out", str(out)) == 0
            meta = json.loads(out.with_suffix(".meta.json").read_text())
            assert {name: meta[name] for name in OUTCOMES} == outcomes

    def test_sidecars_count_fallback_rows(self, tmp_path, monkeypatch, capsys, family_povm):
        # N=100 at theta=0.2, lambda=0.987: the estimates whose linearized start
        # did not decide, summed over the sweep's point estimates and replicas
        out = tmp_path / "s.csv"
        assert run_cli("simulate", "--theta", "0.2", "--lambda", "0.987", "--n-grid", "100",
                       "--reps", "3", "--boot", "10", "--seed", "13", "--workers", "1",
                       "--out", str(out)) == 0
        meta = json.loads(out.with_suffix(".meta.json").read_text())
        rho = depolarize(equal_deviation_state(0.2), 0.987)
        probs = born_probabilities(family_povm, rho)
        boots = [bootstrap_infidelity(sample_counts(probs, 100, trial_rng(13, 0, t)), family_povm,
                                      rho, 10, trial_rng(13, 0, t, stream=1)) for t in range(3)]
        assert meta["fallback_rows"] == sum(b.fallback_rows for b in boots) > 0
        sim = SweepConfig(theta_scalar=0.2, n_grid=(100,), repetitions=3,
                          noise=NoiseConfig(lam=0.987), seed=13, n_boot=10)
        assert run_sweep(sim, povm=family_povm, workers=2).fallback_rows == meta["fallback_rows"]
        assert run_cli("bootstrap", "--theta", "0.2", "--lambda", "0.987", "--n", "100",
                       "--boot", "10", "--seed", "13", "--out", str(out)) == 0
        assert json.loads(out.with_suffix(".meta.json").read_text())["fallback_rows"] == \
            boots[0].fallback_rows
        # a fallback is no failure: alone, it prints no note
        capsys.readouterr()
        sweep = cli.run_sweep
        monkeypatch.setattr(cli, "run_sweep", lambda *args, **kwargs: dataclasses.replace(
            sweep(*args, **kwargs), fallback_rows=5))
        assert run_cli("simulate", "--theta", "0.01", "--n-grid", "1000", "--seed", "1",
                       "--workers", "1", "--out", str(out)) == 0
        meta = json.loads(out.with_suffix(".meta.json").read_text())
        assert meta["fallback_rows"] == 5 and not any(meta[name] for name in OUTCOMES)
        assert capsys.readouterr().err == ""

    def test_pinned_estimates_print_one_stderr_line(self, tmp_path, capsys):
        # N=100 and 1000 at theta=0.2, lambda=0.987: replicas end on the bound;
        # the line goes to stderr and leaves the exit code and the table alone
        sim = ("simulate", "--theta", "0.2", "--lambda", "0.987", "--n-grid", "100,1000",
               "--reps", "3", "--boot", "10", "--seed", "13", "--workers", "1")
        boot = ("bootstrap", "--theta", "0.2", "--lambda", "0.987", "--n", "100",
                "--boot", "10", "--seed", "13")
        for argv in (sim, boot):
            assert run_cli(*argv) == 0
            shown = capsys.readouterr()
            out = tmp_path / f"{argv[0]}.csv"
            assert run_cli(*argv, "--out", str(out)) == 0
            assert capsys.readouterr().err == shown.err
            meta = json.loads(out.with_suffix(".meta.json").read_text())
            assert meta["replicas_at_bound"] > 0
            [line] = shown.err.splitlines()
            assert line.startswith("note: ")
            assert f"replicas_at_bound={meta['replicas_at_bound']}" in line
            assert shown.out == out.read_text()

    def test_clean_runs_print_nothing_on_stderr(self, capsys):
        # the plateau sweep: no estimate or replica on the bound or unconverged
        assert run_cli("simulate", "--theta", "0.2", "--lambda", "0.987",
                       "--n-grid", "10000,100000,1000000", "--reps", "4", "--boot", "10",
                       "--seed", "1", "--workers", "1") == 0
        assert run_cli("bootstrap", "--theta", "0.2", "--lambda", "0.987", "--n", "100000",
                       "--boot", "10", "--seed", "1") == 0
        assert capsys.readouterr().err == ""

    def test_sidecar_records_workers_and_stage_times(self, tmp_path):
        # 64 requested workers run as 2, one per work item; neither key is hashed
        # or changes the table
        sim = ("simulate", "--theta", "0.01", "--n-grid", "50", "--reps", "2", "--seed", "4")
        tables, hashes = [], []
        for workers in (1, 64):
            out = tmp_path / f"w{workers}.csv"
            assert run_cli(*sim, "--workers", str(workers), "--out", str(out)) == 0
            meta = json.loads(out.with_suffix(".meta.json").read_text())
            assert meta["workers"] == min(workers, 2)
            assert set(meta["stage_s"]) == {"sweep", "write"}
            assert all(s >= 0 for s in meta["stage_s"].values())
            tables.append(out.read_bytes())
            hashes.append(meta["config_hash"])
        assert tables[0] == tables[1] and hashes[0] == hashes[1]
        out = tmp_path / "b.csv"
        assert run_cli("bootstrap", "--counts", "40,30,20,5,3,1,1", "--theta", "0.01",
                       "--seed", "4", "--boot", "10", "--out", str(out)) == 0
        meta = json.loads(out.with_suffix(".meta.json").read_text())
        assert meta["workers"] == 1 and set(meta["stage_s"]) == {"estimate", "write"}

    def test_library_sweep_matches_cli(self, capsys, device):
        # the CLI measures the family under a misalignment drawn from the
        # seed's root stream
        cfg = SweepConfig(theta_scalar=0.01, n_grid=(500,), repetitions=3, seed=7)
        cases = [((), (4, 5, 6, 7), None),
                 (("--subset", "1,3,5,7", "--phases", "0,0.3,1.1,2.0"), (1, 3, 5, 7),
                  (0, 0.3, 1.1, 2.0))]
        for family, subset, phases in cases:
            povm = perturb_effects(effects_from_family(device, subset, phases), 0.05,
                                   np.random.default_rng(np.random.SeedSequence(7)))
            table = sweep_table_text(run_sweep(cfg, povm))
            assert run_cli("simulate", "--theta", "0.01", "--n-grid", "500", "--reps", "3",
                           "--seed", "7", "--epsilon", "0.05",
                           "--workers", "1", *family) == 0
            assert capsys.readouterr().out == table

    def test_bad_device_path_is_config_error(self, tmp_path):
        code = run_cli("simulate", "--theta", "0.01", "--n-grid", "50", "--seed", "1",
                       "--device", str(tmp_path / "missing.txt"))
        assert code == 2

    def test_short_bootstrap_is_config_error_before_any_trial(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        for argv in (("simulate", "--n-grid", "100", "--boot", "5"),
                     ("simulate", "--n-grid", "100", "--boot", "-1"),
                     ("bootstrap", "--boot", "-1")):
            assert run_cli(*argv, "--theta", "0.01", "--seed", "1", "--out", str(out)) == 2
            assert "configuration error" in capsys.readouterr().err
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [("simulate", "--n-grid", "100", "--workers", "1"),
                                         ("bootstrap", "--n", "100")])
    def test_theta_outside_the_chart_box_is_config_error(self, tmp_path, capsys, command):
        # sqrt(0.37) > 0.6 = MleConfig.chart_bound: the estimator cannot reach the truth
        out = tmp_path / "x.csv"
        assert run_cli(*command, "--theta", "0.37", "--seed", "1", "--out", str(out)) == 2
        assert "chart bound" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        assert run_cli(*command, "--theta", "0.3", "--boot", "10",
                       "--seed", "1", "--out", str(out)) == 0
        assert out.exists()

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_non_finite_epsilon_is_config_error(self, tmp_path, capsys, epsilon):
        out = tmp_path / "s.csv"
        assert run_cli("simulate", "--theta", "0.01", "--n-grid", "1000", "--reps", "2",
                       "--seed", "3", "--epsilon", epsilon, "--out", str(out)) == 2
        assert "epsilon must be finite and >= 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_epsilon_is_config_error(self, tmp_path, capsys):
        # finite, but epsilon * eig(H) overflows: one message naming epsilon, no
        # numpy warning
        out = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("simulate", "--theta", "0.01", "--n-grid", "1000", "--seed", "1",
                           "--epsilon", "1e308", "--out", str(out)) == 2
        assert capsys.readouterr().err == ("configuration error: epsilon 1e+308 is too large: "
                                           "epsilon times an eigenvalue of H overflows\n")
        assert list(tmp_path.iterdir()) == []

    def test_negative_epsilon_message_names_the_flag(self, capsys):
        assert run_cli("simulate", "--theta", "0.01", "--n-grid", "100", "--seed", "3",
                       "--epsilon", "-1") == 2
        assert capsys.readouterr().err == \
            "configuration error: epsilon must be finite and >= 0, got -1.0\n"

    def test_plot_output(self, tmp_path):
        out, svg = tmp_path / "s.csv", tmp_path / "s.svg"
        assert run_cli("simulate", "--theta", "0.01", "--n-grid", "50,200", "--reps", "2",
                       "--seed", "3",
                       "--out", str(out), "--plot", str(svg)) == 0
        text = svg.read_text()
        assert text.startswith("<svg") and "</svg>" in text
        assert "polyline" in text and "circle" in text

    def test_plot_models_the_misaligned_povm(self, tmp_path, monkeypatch, family_povm):
        # the model curve takes its floor and coefficient from the POVM the
        # sweep measured, misalignment included, not from the aligned family
        drawn = []
        monkeypatch.setattr(cli, "sweep_plot_svg", lambda table, **model: drawn.append(model)
                            or "<svg/>")
        assert run_cli("simulate", "--theta", "0.2", "--lambda", "0.987", "--epsilon", "0.3",
                       "--n-grid", "1000", "--reps", "1", "--seed", "3",
                       "--workers", "1", "--out", str(tmp_path / "s.csv"),
                       "--plot", str(tmp_path / "s.svg")) == 0
        measured = perturb_effects(family_povm, 0.3,
                                   np.random.default_rng(np.random.SeedSequence(3)))
        coef = asymptotic_infidelity_coefficient(measured)
        assert coef == pytest.approx(5.529, abs=5e-4)
        rho = depolarize(equal_deviation_state(0.2), 0.987)
        assert drawn == [{"gm_coefficient": 3, "model_coefficient": coef,
                          "model_floor": expected_infidelity_floor(rho, measured)}]


class TestOtherCommands:
    def test_design_identity_device(self, tmp_path, capsys):
        device = tmp_path / "identity.txt"
        ident = np.eye(4)
        device.write_text("\n".join(" ".join(f"{v:+.1f}+0j" for v in row) for row in ident) + "\n")
        assert run_cli("design", "--device", str(device), "--dim", "4") == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0].startswith("subset,")
        assert len(lines) == 2  # header + the single family
        assert "1.000000" in lines[1]

    def test_design_alternative_norm_flag(self, tmp_path, capsys):
        device = tmp_path / "identity.txt"
        device.write_text("\n".join(" ".join("+1+0j" if i == j else "+0+0j"
                                             for j in range(4)) for i in range(4)) + "\n")
        assert run_cli("design", "--device", str(device), "--norm", "frobenius",
                       "--starts", "2") == 0
        out = capsys.readouterr().out
        assert "1.732051" in out  # frobenius norm of the 3x3 identity C

    def test_design_refuses_phase_dependent_family(self, tmp_path, capsys):
        device = tmp_path / "three.txt"
        r = np.sqrt(0.5)
        rows = [[r, 0.5, 0.5], [r, -0.5, -0.5], [0.0, r, -r]]
        device.write_text("\n".join(" ".join(f"{v:+.17f}+0j" for v in row) for row in rows) + "\n")
        assert run_cli("design", "--device", str(device), "--dim", "2") == 1
        assert "(1, 2)" in capsys.readouterr().err

    def test_dft_device_family_is_fisher_symmetric(self, tmp_path, capsys):
        # ports 1-4 of the 7-port DFT device measure a^eta_j = omega^(eta j) / sqrt(7):
        # C = 0 and the limit coefficient d - 1 = 3 from 2d - 1 = 7 outcomes
        device = tmp_path / "dft7.txt"
        device.write_text(format_matrix_text(dft_columns(7, 7).conj()))
        assert run_cli("fisher", "--device", str(device), "--subset", "1,2,3,4") == 0
        out = capsys.readouterr().out
        assert "spectral norm of C: 0.000000\n" in out
        assert "asymptotic infidelity coefficient: 3.000000\n" in out
        # 15 of the 35 families tie at C = 0: the winner is one of them
        assert run_cli("design", "--device", str(device)) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]
                if not line.startswith("#")]
        (winner,) = [row for row in rows if row[-1] == "1"]
        assert winner[1] == winner[2] == "0.000000"

    def test_device_file_is_projected_like_the_builtin(self, tmp_path, capsys):
        device = tmp_path / "u7.txt"
        device.write_text(asset_text(U7_NAME))
        assert run_cli("fisher") == 0
        builtin = capsys.readouterr().out
        assert run_cli("fisher", "--device", str(device)) == 0
        assert capsys.readouterr().out == builtin

    def test_fisher_command(self, capsys):
        assert run_cli("fisher", "--haar-baseline", "150", "--seed", "2") == 0
        out = capsys.readouterr().out
        assert "spectral norm of C: 0.6275" in out
        assert "tr(I J^-1): 3.0000000" in out
        assert "Haar baseline" in out

    def test_fisher_sidecar_records_the_haar_pool(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(povm_module, "available_cores", lambda: 3)
        out = tmp_path / "f.txt"
        # three blocks of Haar samples, one per thread
        assert run_cli("fisher", "--haar-baseline", str(2 * HAAR_BLOCK + 1), "--out",
                       str(out)) == 0
        assert capsys.readouterr().out == out.read_text()
        meta = json.loads((tmp_path / "f.meta.json").read_text())
        assert meta["workers"] == 3
        assert set(meta["stage_s"]) == {"haar", "write"} and meta["stage_s"]["haar"] > 0
        # without a baseline there is no pool to record
        assert run_cli("fisher", "--out", str(out)) == 0
        assert {"workers", "stage_s"}.isdisjoint(json.loads((tmp_path / "f.meta.json").read_text()))

    def test_fisher_bad_phases_is_config_error(self, capsys):
        assert run_cli("fisher", "--subset", "1,3,5,7", "--phases", "0,0.3,1.1,2.0") == 0
        capsys.readouterr()
        assert run_cli("fisher", "--phases", "0.1,0,0,0") == 2
        shown = capsys.readouterr()
        assert shown.out == ""
        assert shown.err == "configuration error: the first phase is the gauge and must be 0\n"
        # a non-finite phase is named as such, without a numpy warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("fisher", "--phases", "0,inf,0,0") == 2
        assert caught == []
        shown = capsys.readouterr()
        assert shown.out == ""
        assert shown.err == "configuration error: input phases must be finite, " \
                            "got (0.0, inf, 0.0, 0.0)\n"

    def test_bootstrap_command(self, tmp_path, capsys):
        out = tmp_path / "boot.csv"
        assert run_cli("bootstrap", "--theta", "0.01", "--n", "400", "--boot", "12",
                       "--seed", "4", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("boot_low,")
        values = [float(tok) for tok in lines[1].split(",")[:5]]
        assert values == sorted(values)

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_bootstrap_n_below_one_names_the_flag(self, tmp_path, capsys, n):
        # without --counts, the simulated trial needs at least one copy
        out = tmp_path / "boot.csv"
        assert run_cli("bootstrap", "--theta", "0.01", "--seed", "1", "--n", n,
                       "--out", str(out)) == 2
        assert capsys.readouterr().err == f"configuration error: --n must be >= 1, got {n}\n"
        assert list(tmp_path.iterdir()) == []

    def test_bootstrap_with_literal_counts(self, capsys):
        assert run_cli("bootstrap", "--theta", "0.01", "--counts", "40,30,20,5,3,1,1",
                       "--boot", "10", "--seed", "4") == 0

    def test_fit_and_report_roundtrip(self, tmp_path, capsys):
        table = tmp_path / "sweep.csv"
        assert run_cli("simulate", "--theta", "0.01", "--n-grid", "100,1000,10000",
                       "--reps", "4", "--seed", "8",
                       "--out", str(table)) == 0
        assert run_cli("fit", str(table)) == 0
        fit = json.loads(capsys.readouterr().out)
        assert -1.6 < fit["exponent"] < -0.5
        assert run_cli("report", str(table), "--plot", str(tmp_path / "r.svg")) == 0
        out = capsys.readouterr().out
        assert "power-law fit" in out
        # last column: N times the mean infidelity, +/- N times its standard error
        arr = read_sweep_table(str(table))
        per_n = [line.split() for line in out.splitlines()
                 if line.split() and line.split()[0] in ("100", "1000", "10000")]
        assert len(per_n) == 3
        for fields in per_n:
            n = int(fields[0])
            sel = arr[arr[:, 0] == n, 2]
            assert fields[-2] == "+/-"
            assert float(fields[-3]) == pytest.approx(n * sel.mean(), abs=5e-5)
            se = n * sel.std(ddof=1) / np.sqrt(sel.size)
            assert float(fields[-1]) == pytest.approx(se, abs=5e-5)
        assert (tmp_path / "r.svg").exists()

    def test_fit_and_report_sidecars_hash_the_input(self, tmp_path, capsys):
        # the sidecar hash covers the input path and every other argument
        tables = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for table in tables:
            assert run_cli("simulate", "--theta", "0.01", "--n-grid", "100,1000", "--reps", "2",
                           "--seed", "8", "--out", str(table)) == 0

        def record(*argv):
            out = tmp_path / "out.txt"
            assert run_cli(*argv, "--out", str(out)) == 0
            assert out.read_text() == capsys.readouterr().out
            return json.loads(out.with_suffix(".meta.json").read_text())

        for command in ("fit", "report"):
            first, second = (record(command, str(table)) for table in tables)
            assert first["seed"] is None and len(first["config_hash"]) == 64
            assert first["config_hash"] != second["config_hash"]
        assert (record("report", str(tables[0]))["config_hash"]
                != record("report", str(tables[0]), "--dim", "3")["config_hash"])

    @pytest.mark.parametrize("command", ["fit", "report"])
    def test_out_over_the_input_sidecar_is_config_error(self, tmp_path, monkeypatch, capsys,
                                                          command):
        # s.json would write s.meta.json, the sidecar of s.csv; s.csv would overwrite
        # the table and s.meta.json its sidecar, also when named by a relative path
        monkeypatch.chdir(tmp_path)
        table = tmp_path / "s.csv"
        assert run_cli("simulate", "--theta", "0.01", "--n-grid", "100,1000", "--reps", "2",
                       "--seed", "8", "--out", str(table)) == 0
        files = {path: path.read_bytes() for path in tmp_path.iterdir()}
        plot = ("--plot", str(tmp_path / "s.svg")) if command == "report" else ()
        for out in ("s.json", "s.csv", "./s.txt", "s.meta.json"):
            capsys.readouterr()
            assert run_cli(command, str(table), "--out", out, *plot) == 2
            shown = capsys.readouterr()
            assert shown.out == "" and "or its sidecar" in shown.err
            assert {path: path.read_bytes() for path in tmp_path.iterdir()} == files

    @pytest.mark.parametrize("plot", ["t.csv", "t.meta.json", "./r.txt", "r.meta.json"])
    def test_report_plot_over_a_file_of_the_run_is_config_error(self, tmp_path, monkeypatch,
                                                                 capsys, plot):
        # the input table, its sidecar, --out and the --out sidecar are all refused
        monkeypatch.chdir(tmp_path)
        assert run_cli("simulate", "--theta", "0.01", "--n-grid", "100,1000", "--reps", "2",
                       "--seed", "8", "--out", "t.csv") == 0
        files = {path: path.read_bytes() for path in tmp_path.iterdir()}
        capsys.readouterr()
        assert run_cli("report", "t.csv", "--out", "r.txt", "--plot", plot) == 2
        shown = capsys.readouterr()
        assert shown.out == "" and f"--plot {plot} would overwrite" in shown.err
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == files

    @pytest.mark.parametrize("plot", ["s.csv", "s.meta.json"])
    def test_simulate_plot_over_its_out_is_config_error(self, tmp_path, monkeypatch, capsys,
                                                        plot):
        # refused before the sweep runs: no table, sidecar or plot is written
        monkeypatch.chdir(tmp_path)
        assert run_cli("simulate", "--theta", "0.01", "--n-grid", "50", "--seed", "1",
                       "--out", "s.csv", "--plot", plot) == 2
        assert "--plot" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ("fisher", "--out", "dev.txt"),
        ("design", "--out", "dev.txt"),
        ("bootstrap", "--theta", "0.01", "--n", "100", "--boot", "10", "--seed", "1",
         "--out", "./dev.txt"),
        ("simulate", "--theta", "0.01", "--n-grid", "50", "--seed", "1", "--plot", "dev.txt")])
    def test_output_over_the_device_file_is_config_error(self, tmp_path, monkeypatch, capsys,
                                                          argv):
        monkeypatch.chdir(tmp_path)
        device = tmp_path / "dev.txt"
        device.write_text(asset_text(U7_NAME))
        files = {path: path.read_bytes() for path in tmp_path.iterdir()}
        assert run_cli(*argv, "--device", "dev.txt") == 2
        shown = capsys.readouterr()
        assert shown.out == "" and "would overwrite dev.txt" in shown.err
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == files

    def test_builtin_device_name_is_no_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli("fisher", "--device", "u7", "--out", "u7") == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == ["u7", "u7.meta.json"]

    @pytest.mark.parametrize("argv", [
        ("fisher", "--out", "nodir/x.txt"),
        ("simulate", "--theta", "0.01", "--n-grid", "100", "--seed", "1", "--out", "nodir/s.csv"),
        ("simulate", "--theta", "0.01", "--n-grid", "100", "--seed", "1", "--out", "s.csv",
         "--plot", "nodir/s.svg")])
    def test_missing_output_directory_is_config_error_before_the_run(
            self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_sweep", None)     # the sweep must not start
        assert run_cli(*argv) == 2
        shown = capsys.readouterr()
        assert shown.out == "" and f"{argv[-2]} {argv[-1]}: no such directory" in shown.err
        assert ".tmp" not in shown.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ("fisher", "--out", "sub"),
        ("simulate", "--theta", "0.01", "--n-grid", "100", "--seed", "1", "--out", "sub"),
        ("simulate", "--theta", "0.01", "--n-grid", "100", "--seed", "1", "--out", "s.csv",
         "--plot", "sub")])
    def test_output_over_a_directory_is_config_error_before_the_run(
            self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()

        def no_sweep(*args, **kwargs):
            pytest.fail("the sweep ran")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        assert run_cli(*argv) == 2
        shown = capsys.readouterr()
        assert shown.out == ""
        assert shown.err == f"configuration error: {argv[-2]} sub: is a directory\n"
        assert [path.name for path in tmp_path.rglob("*")] == ["sub"]

    @pytest.mark.parametrize("argv", [
        ("simulate", "--theta", "0.01", "--n-grid", "50"),
        ("bootstrap", "--theta", "0.01", "--n", "100", "--boot", "10"),
        ("fisher", "--haar-baseline", "1000"),
        ("design",)])
    def test_negative_seed_is_a_parse_error(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(*argv, "--seed", "-1", "--out", str(tmp_path / "x.txt"))
        assert excinfo.value.code == 2
        assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["fit", "report"])
    def test_one_n_table_is_runtime_error(self, tmp_path, capsys, command):
        # a single ensemble size leaves the power law's slope undetermined
        table = tmp_path / "p.csv"
        assert run_cli("simulate", "--theta", "0.01", "--n-grid", "100", "--reps", "2",
                       "--seed", "8", "--out", str(table)) == 0
        files = set(tmp_path.iterdir())
        plot = ("--plot", str(tmp_path / "r.svg")) if command == "report" else ()
        capsys.readouterr()
        assert run_cli(command, str(table), "--out", str(tmp_path / "f.json"), *plot) == 1
        shown = capsys.readouterr()
        assert shown.out == "" and "two distinct N" in shown.err
        assert set(tmp_path.iterdir()) == files

    @pytest.mark.parametrize("dim", ["0", "1"])
    def test_report_dim_below_two_is_config_error(self, tmp_path, capsys, dim):
        # the Gill-Massar column (d - 1)/N needs a qudit, d >= 2
        table = tmp_path / "t.csv"
        assert run_cli("simulate", "--theta", "0.01", "--n-grid", "100,1000", "--reps", "2",
                       "--seed", "8", "--out", str(table)) == 0
        files = set(tmp_path.iterdir())
        capsys.readouterr()
        assert run_cli("report", str(table), "--dim", dim, "--out", str(tmp_path / "r.txt"),
                       "--plot", str(tmp_path / "r.svg")) == 2
        shown = capsys.readouterr()
        assert shown.out == "" and shown.err == "configuration error: need d >= 2 and n_exp >= 1\n"
        assert set(tmp_path.iterdir()) == files

    @pytest.mark.parametrize("command", ["fit", "report"])
    def test_nan_infidelity_is_config_error(self, tmp_path, capsys, command):
        table = tmp_path / "nan.csv"
        table.write_text("N,trial,infidelity,boot_low,boot_q25,boot_median,boot_q75,boot_high\n"
                         "100,0,0.01,nan,nan,nan,nan,nan\n1000,0,nan,nan,nan,nan,nan,nan\n")
        assert run_cli(command, str(table)) == 2
        assert capsys.readouterr() == (
            "", "configuration error: infidelities must be nonnegative and finite\n")

    @pytest.mark.parametrize("command", ["fit", "report"])
    def test_zero_infidelities_print_one_note_line(self, tmp_path, capsys, command):
        # the fit leaves the zero points out, says so on one plain stderr line and
        # gives the same output as on the table without them
        header = "N,trial,infidelity,boot_low,boot_q25,boot_median,boot_q75,boot_high\n"
        rows = ["100,0,0.05,nan,nan,nan,nan,nan\n", "100,1,0.03,nan,nan,nan,nan,nan\n",
                "10000,0,0.0004,nan,nan,nan,nan,nan\n"]
        zeros = ["1000,0,0,nan,nan,nan,nan,nan\n", "1000,1,0,nan,nan,nan,nan,nan\n"]
        table = tmp_path / "zero.csv"
        table.write_text(header + "".join(rows[:2] + zeros + rows[2:]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(command, str(table)) == 0
        shown = capsys.readouterr()
        assert shown.err == "note: excluding 2 zero-infidelity points from the fit\n"
        line = next(text for text in shown.out.splitlines()
                    if "coefficient" in text or "power-law" in text)
        table.write_text(header + "".join(rows))
        assert run_cli(command, str(table)) == 0
        assert line in capsys.readouterr().out

    def test_fit_missing_file_is_config_error(self, tmp_path):
        assert run_cli("fit", str(tmp_path / "nope.csv")) == 2
        header = "N,trial,infidelity,boot_low,boot_q25,boot_median,boot_q75,boot_high\n"
        ragged = tmp_path / "ragged.csv"
        ragged.write_text(header + "100,0,0.01,nan,nan,nan,nan,nan\n1000,1,0.001\n")
        assert run_cli("fit", str(ragged)) == 2
        narrow = tmp_path / "narrow.csv"
        narrow.write_text(header + "100,0,0.01\n1000,0,0.001\n")
        svg = tmp_path / "r.svg"
        assert run_cli("report", str(narrow), "--plot", str(svg)) == 2
        assert not svg.exists()

    @pytest.mark.parametrize("argv, unbuffered", [
        (["design"], False), (["design"], True), (["fisher"], False),
        (["simulate", "--theta", "0.01", "--n-grid", "100", "--seed", "1", "--workers", "1"],
         False)], ids=["design", "design-unbuffered", "fisher", "simulate"])
    def test_closed_stdout_is_runtime_error(self, argv, unbuffered):
        # a reader that has gone (``| head``): exit 1 and nothing on stderr,
        # whether the table is still buffered at exit or was written at once
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "pointtomo.cli", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE, env=env,
                                  text=True, timeout=120)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, "")

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("--version")
        assert excinfo.value.code == 0


class TestIoHelpers:
    def test_sweep_table_roundtrip(self, tmp_path, family_povm):
        cfg = SweepConfig(theta_scalar=0.01, n_grid=(80,), repetitions=2, seed=2)
        res = run_sweep(cfg, povm=family_povm)
        path = tmp_path / "t.csv"
        atomic_write_text(str(path), sweep_table_text(res))
        arr = read_sweep_table(str(path))
        assert arr.shape == (2, 8)
        assert np.allclose(arr[:, 2], res.as_array()[:, 2], rtol=0, atol=0)

    def test_atomic_write_leaves_no_partial(self, tmp_path):
        target = tmp_path / "x.txt"

        with pytest.raises(TypeError):
            atomic_write_text(str(target), object())  # type: ignore[arg-type]
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_read_rejects_foreign_header(self, tmp_path):
        from pointtomo.errors import InvalidInput

        header = ",".join(SweepResult.COLUMNS) + "\n"
        cases = {"a,b\n1,2\n": "header",
                 header + "100,0,0.01,nan,nan,nan,nan,nan\n100,1,0.02\n": "line 3",
                 header + "100,0,0.01,nan,nan,x,nan,nan\n": "line 2"}
        for text, message in cases.items():
            bad = tmp_path / "bad.csv"
            bad.write_text(text)
            with pytest.raises(InvalidInput, match=message):
                read_sweep_table(str(bad))
