"""The package's public surface and the module-level names the benchmark patches.

perfbench's traced run replaces these names with counting wrappers; a
refactor that stops calling one of them through its module would silently
zero a per-layer count, so each seam is checked here.
"""

import os
import subprocess
import sys
from types import ModuleType

import numpy as np

import pointtomo
from pointtomo import cli, estimator, povm, simulate
from pointtomo.estimator import MleConfig
from pointtomo.simulate import SweepConfig


def test_all_lists_no_modules_and_resolves():
    for name in pointtomo.__all__:
        assert not isinstance(getattr(pointtomo, name), ModuleType), name
    for name in ("errors", "estimator", "fisher", "povm", "simulate", "states",
                 "validation"):
        assert isinstance(getattr(pointtomo, name), ModuleType)


def test_runs_load_no_scipy(tmp_path):
    # scipy is no dependency: importing the command line and running a small
    # sweep and a design must not load it
    script = (
        "import sys\n"
        "from pointtomo.cli import main\n"
        "assert main(['simulate', '--theta', '0.01', '--n-grid', '100', '--seed', '1',"
        " '--epsilon', '0.05', '--workers', '1', '--out', 'sweep.csv']) == 0\n"
        "assert main(['design', '--out', 'design.csv']) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n")
    src = os.path.dirname(os.path.dirname(pointtomo.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_estimate_theta_calls_pure_probabilities(monkeypatch, family_povm):
    # once per batched objective evaluation, whatever the number of rows, and
    # once for the log-likelihood of the returned estimate
    calls = count_calls(monkeypatch, estimator, "pure_probabilities")
    evaluations = []
    build = estimator._neg_log_likelihood

    def counting(effects):
        objective = build(effects)

        def counted(x, weights):
            evaluations.append(len(x))
            return objective(x, weights)
        return counted

    monkeypatch.setattr(estimator, "_neg_log_likelihood", counting)
    estimator.estimate_theta(np.array([40, 30, 20, 5, 3, 1, 1]), family_povm,
                             MleConfig(starts=1))
    assert evaluations[0] == 2
    assert len(calls) == len(evaluations) + 1


def test_run_sweep_calls_estimator_through_simulate(monkeypatch, family_povm):
    # point estimates and bootstrap replicas of every trial are estimated
    # together: a sweep that fits in one block is one batched call
    batches = count_calls(monkeypatch, simulate, "_estimate_rows")
    cfg = SweepConfig(theta_scalar=0.01, n_grid=(100, 1000), repetitions=2, seed=1, n_boot=10,
                      mle=MleConfig(starts=1))
    simulate.run_sweep(cfg, povm=family_povm, workers=1)
    assert len(batches) == 1


def test_optimize_phases_calls_matrix_norm(monkeypatch, device):
    calls = count_calls(monkeypatch, povm, "matrix_norm")
    povm.optimize_phases(device, (4, 5, 6, 7), n_starts=0)
    assert calls


def test_cli_calls_through_its_module_names(monkeypatch, capsys):
    sweeps = count_calls(monkeypatch, cli, "run_sweep")
    designs = count_calls(monkeypatch, cli, "optimize_phases")
    baselines = count_calls(monkeypatch, cli, "haar_mean_c_norm")
    assert cli.main(["simulate", "--theta", "0.01", "--n-grid", "50", "--seed", "1",
                     "--mle-starts", "1", "--workers", "1"]) == 0
    assert cli.main(["design", "--starts", "0"]) == 0
    assert cli.main(["fisher", "--haar-baseline", "100"]) == 0
    assert sweeps and designs and baselines
