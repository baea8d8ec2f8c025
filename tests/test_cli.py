import json
from datetime import datetime

import numpy as np
import pytest

from pointtomo.assets import U7_NAME, asset_text
from pointtomo import cli
from pointtomo.cli import main
from pointtomo.fisher import asymptotic_infidelity_coefficient
from pointtomo.io import (atomic_write_text, metadata_record, read_sweep_table,
                          sweep_table_text)
from pointtomo.estimator import MleConfig
from pointtomo.simulate import (NoiseConfig, SweepConfig, SweepResult, bootstrap_infidelity,
                                expected_infidelity_floor, perturb_effects, run_sweep,
                                sample_counts, trial_rng)
from pointtomo.states import born_probabilities, depolarize, equal_deviation_state


def run_cli(*argv):
    return main(list(argv))


class TestSimulateCommand:
    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--theta", "0.01", "--n-grid", "50,100", "--reps", "2",
                "--seed", "5", "--mle-starts", "3"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*args, "--out", str(out1)) == 0
        assert run_cli(*args, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_metadata_sidecar(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli("simulate", "--theta", "0.01", "--n-grid", "60", "--reps", "1",
                       "--seed", "9", "--mle-starts", "3", "--out", str(out)) == 0
        meta = json.loads((tmp_path / "sweep.meta.json").read_text())
        assert meta["seed"] == 9
        assert len(meta["config_hash"]) == 64
        assert "timestamp" in meta and "versions" in meta
        assert set(meta["versions"]) == {"pointtomo", "numpy"}
        assert all(n == 1 for n in meta["blas_threads"].values())

    def test_seed_required(self, capsys):
        # a missing --seed, --epsilon on bootstrap, which never reads it, and the
        # deleted --raw-device
        for argv in (["simulate", "--theta", "0.01", "--n-grid", "50"],
                     ["bootstrap", "--theta", "0.01", "--seed", "4", "--epsilon", "0.3"],
                     ["design", "--raw-device"]):
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
        # --seed and --starts do not change the design table
        assert digest(*design, "--seed", "0") == digest(*design, "--seed", "1")
        assert digest(*design, "--starts", "0") == digest(*design, "--starts", "32")
        boot = ("bootstrap", "--counts", "40,30,20,5,3,1,1", "--seed", "4", "--boot", "10",
                "--mle-starts", "1")
        assert digest(*boot, "--theta", "0.01") != digest(*boot, "--theta", "0.2")
        sim = ("simulate", "--theta", "0.01", "--n-grid", "50", "--reps", "2", "--seed", "4",
               "--mle-starts", "1")
        assert (digest(*sim, "--workers", "1", name="a.csv")
                == digest(*sim, "--workers", "2", name="b.csv"))

    def test_sidecar_counts_pinned_and_unconverged_estimates(self, tmp_path):
        # the N=1e3 plateau trials of test_plateau_monotone_and_floored: 2 of 12
        # point estimates end on the chart bound
        out = tmp_path / "plateau.csv"
        assert run_cli("simulate", "--theta", "0.2", "--lambda", "0.987", "--n-grid", "1000",
                       "--reps", "12", "--seed", "13", "--mle-starts", "4", "--workers", "1",
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
        assert meta["replicas_at_bound"] == sum(b.n_at_bound for b in boots) > 0
        assert meta["replicas_not_converged"] == sum(b.n_not_converged for b in boots)
        assert run_cli("bootstrap", "--theta", "0.2", "--lambda", "0.987", "--n", "100",
                       "--boot", "10", "--seed", "13", "--out", str(out)) == 0
        meta = json.loads((tmp_path / "boot.meta.json").read_text())
        assert (meta["replicas_at_bound"], meta["replicas_not_converged"]) == \
            (boots[0].n_at_bound, boots[0].n_not_converged)

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
        sim = ("simulate", "--theta", "0.01", "--n-grid", "50", "--reps", "2", "--seed", "4",
               "--mle-starts", "1")
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

    def test_library_sweep_matches_cli(self, capsys):
        cfg = SweepConfig(theta_scalar=0.01, n_grid=(500,), repetitions=3, seed=7,
                          noise=NoiseConfig(systematic_epsilon=0.05), mle=MleConfig(starts=2))
        table = sweep_table_text(run_sweep(cfg))
        assert run_cli("simulate", "--theta", "0.01", "--n-grid", "500", "--reps", "3",
                       "--seed", "7", "--epsilon", "0.05", "--mle-starts", "2",
                       "--workers", "1") == 0
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
        assert run_cli(*command, "--theta", "0.3", "--boot", "10", "--mle-starts", "1",
                       "--seed", "1", "--out", str(out)) == 0
        assert out.exists()

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_non_finite_epsilon_is_config_error(self, tmp_path, capsys, epsilon):
        out = tmp_path / "s.csv"
        assert run_cli("simulate", "--theta", "0.01", "--n-grid", "1000", "--reps", "2",
                       "--seed", "3", "--epsilon", epsilon, "--out", str(out)) == 2
        assert "systematic_epsilon" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_plot_output(self, tmp_path):
        out, svg = tmp_path / "s.csv", tmp_path / "s.svg"
        assert run_cli("simulate", "--theta", "0.01", "--n-grid", "50,200", "--reps", "2",
                       "--seed", "3", "--mle-starts", "3",
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
                       "--n-grid", "1000", "--reps", "1", "--seed", "3", "--mle-starts", "1",
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

    def test_bootstrap_command(self, tmp_path, capsys):
        out = tmp_path / "boot.csv"
        assert run_cli("bootstrap", "--theta", "0.01", "--n", "400", "--boot", "12",
                       "--seed", "4", "--mle-starts", "3", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("boot_low,")
        values = [float(tok) for tok in lines[1].split(",")[:5]]
        assert values == sorted(values)

    def test_bootstrap_with_literal_counts(self, capsys):
        assert run_cli("bootstrap", "--theta", "0.01", "--counts", "40,30,20,5,3,1,1",
                       "--boot", "10", "--seed", "4", "--mle-starts", "3") == 0

    def test_fit_and_report_roundtrip(self, tmp_path, capsys):
        table = tmp_path / "sweep.csv"
        assert run_cli("simulate", "--theta", "0.01", "--n-grid", "100,1000,10000",
                       "--reps", "4", "--seed", "8", "--mle-starts", "4",
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

    def test_metadata_record_fields(self):
        rec = metadata_record("deadbeef", 7, extra={"rows": 2})
        assert rec["config_hash"] == "deadbeef"
        assert rec["seed"] == 7
        assert rec["rows"] == 2
        assert datetime.fromisoformat(rec["timestamp"]).tzinfo is not None

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
