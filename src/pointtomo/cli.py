"""Command-line front end.

Subcommands: design, fisher, simulate, bootstrap, fit, report.
Exit codes: 0 success, 2 configuration error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
import warnings
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .assets import format_matrix_text
from .errors import InvalidInput, PointTomoError
from .estimator import fit_power_law
from .fisher import (NORM_KINDS, asymptotic_infidelity_coefficient, c_matrix, c_norm,
                     cfim_first_order, gill_massar_wmse, gm_inequality_lhs, qfim_pure)
from .io import atomic_write_text, config_hash, read_sweep_table, sweep_table_text
from .plotting import sweep_plot_svg
from .povm import (available_cores, effects_from_family, enumerate_families,
                   haar_mean_c_norm, load_device, optimize_phases)
from .simulate import (NoiseConfig, SweepConfig, bootstrap_infidelity, check_theta_scalar,
                       expected_infidelity_floor, perturb_effects, prepared_state, run_sweep,
                       sample_counts, trial_rng)
from .states import born_probabilities, depolarize, equal_deviation_state


DEVICE_HELP = "device matrix: 'u7' for the builtin asset or a text file path"


def _parse_ints(text: str) -> tuple:
    return tuple(int(tok) for tok in text.replace(" ", "").split(",") if tok)


def _parse_floats(text: str) -> tuple:
    return tuple(float(tok) for tok in text.replace(" ", "").split(",") if tok)


def _seed(text: str) -> int:
    if (seed := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def _family_povm(args):
    return effects_from_family(load_device(args.device), args.subset, args.phases)


def _sidecar(path: str) -> str:
    return os.path.splitext(path)[0] + ".meta.json"


def _check_paths(args) -> None:
    """Refuse a run that would write ``--out``, its sidecar or ``--plot`` into a
    missing directory, over a directory or over one another, the input table,
    the input's sidecar or a ``--device`` file (``u7`` names the builtin
    matrix, no file)."""
    taken = {}                            # real path -> the input or --out it belongs to
    for flag in ("device", "infile", "out", "plot"):
        path = vars(args).get(flag)
        if not path or flag == "device" and path == "u7":
            continue
        if flag in ("out", "plot"):
            if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
                raise InvalidInput(f"--{flag} {path}: no such directory")
            if os.path.isdir(path):
                raise InvalidInput(f"--{flag} {path}: is a directory")
        paired = flag in ("infile", "out")
        own = {os.path.realpath(p) for p in (path, _sidecar(path) if paired else path)}
        if hit := own & taken.keys():
            raise InvalidInput(f"--{flag} {path} would overwrite {taken[hit.pop()]} or its sidecar")
        taken.update(dict.fromkeys(own, path))


def _write_run(args, text: str, extra: dict | None = None, unhashed: tuple = (),
               svg: str | None = None) -> None:
    """Write ``svg`` to ``--plot``, ``text`` to ``--out`` and its ``.meta.json``
    sidecar, each atomically when given, to paths :func:`_check_paths` let pass.

    The sidecar holds the hash of every argument except the output paths,
    the worker count and ``unhashed``, which leave ``text`` unchanged; the
    seed and library versions; the ``extra`` keys; and a timestamp. An
    ``extra["stage_s"]`` of stage wall seconds gains a ``write`` stage, the
    seconds taken to write ``text``."""
    if svg:
        atomic_write_text(args.plot, svg)
    if not args.out:
        return
    skip = ("func", "out", "plot", "workers") + unhashed
    run = {k: v for k, v in vars(args).items() if k not in skip}
    start = time.perf_counter()
    atomic_write_text(args.out, text)
    extra = dict(extra or {})
    if "stage_s" in extra:
        extra["stage_s"] = {**extra["stage_s"], "write": time.perf_counter() - start}
    record = {"config_hash": config_hash(run), "seed": vars(args).get("seed"),
              "versions": {"pointtomo": __version__, "numpy": np.__version__}, **extra,
              "timestamp": datetime.now(timezone.utc).isoformat()}
    atomic_write_text(_sidecar(args.out), json.dumps(record, indent=2, sort_keys=True) + "\n")


def _note_outcomes(outcomes: dict) -> None:
    """One line on stderr when an estimate or replica of the run ended on the
    chart bound or failed the convergence test; the run itself goes on."""
    if any(outcomes.values()):
        counts = " ".join(f"{k}={v}" for k, v in outcomes.items())
        print(f"note: {counts} (estimates on the chart bound or unconverged)",
              file=sys.stderr)


def _fit(table):
    """:func:`fit_power_law` on a sweep table's (N, infidelity) columns; each
    warning it gives (zero infidelities left out) is one ``note:`` line on
    stderr, also when the fit then fails."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return fit_power_law(table[:, :3:2])
        finally:
            for warning in caught:
                print(f"note: {warning.message}", file=sys.stderr)


def _add_family_args(p):
    p.add_argument("--device", default="u7", help=DEVICE_HELP)
    p.add_argument("--subset", type=_parse_ints, default=(4, 5, 6, 7),
                   help="connected input ports, comma separated (1-based)")
    p.add_argument("--phases", type=_parse_floats, default=None,
                   help="input phases in radians (first must be 0); default all zero")


def cmd_design(args) -> int:
    device = load_device(args.device)
    families = enumerate_families(device.n_ports, args.dim)
    rows = []
    for subset in families:
        phases, norm = optimize_phases(device, subset, norm_kind=args.norm)
        rows.append((subset, norm, phases))
    rows.sort(key=lambda r: r[1])
    # the norm is phase-invariant (see optimize_phases): both norm columns agree
    lines = ["subset,zero_phase_norm,optimized_norm,optimal_phases,winner"]
    for rank, (subset, norm, phases) in enumerate(rows):
        subset_s = "".join(str(s) for s in subset)
        phases_s = ";".join(f"{p:.6f}" for p in phases)
        lines.append(f"{subset_s},{norm:.6f},{norm:.6f},{phases_s},{int(rank == 0)}")
    table = "\n".join(lines) + "\n"
    sys.stdout.write(table)
    winner = rows[0]
    sys.stdout.write(f"# winner: subset {winner[0]} with {args.norm} norm {winner[1]:.4f}\n")
    _write_run(args, table, unhashed=("starts", "seed"))
    return 0


def cmd_fisher(args) -> int:
    povm = _family_povm(args)
    c = c_matrix(povm)
    cfim = cfim_first_order(povm)
    qfim = qfim_pure(np.zeros(povm.dim - 1, dtype=complex))
    out = ["C matrix:\n" + format_matrix_text(c),
           f"{args.norm} norm of C: {c_norm(povm, args.norm):.6f}",
           f"asymptotic infidelity coefficient: {asymptotic_infidelity_coefficient(povm):.6f}",
           "CFIM diagonal block at the fiducial point:\n" + format_matrix_text(cfim.diag_block),
           "CFIM off block at the fiducial point:\n" + format_matrix_text(cfim.off_block),
           "QFIM diagonal block at the fiducial point:\n" + format_matrix_text(qfim.diag_block),
           "QFIM off block at the fiducial point:\n" + format_matrix_text(qfim.off_block),
           f"tr(I J^-1): {gm_inequality_lhs(cfim, qfim):.12f} (bound {povm.dim - 1})"]
    extra = {}
    if args.haar_baseline:
        rng = np.random.default_rng(args.seed)
        start = time.perf_counter()
        mean, err = haar_mean_c_norm(povm.dim, povm.n_outcomes, args.haar_baseline, rng,
                                     kind=args.norm)
        extra = {"workers": 1,
                 "stage_s": {"haar": time.perf_counter() - start}}
        out.append(f"Haar baseline <||C||> over {args.haar_baseline} samples: "
                   f"{mean:.4f} +/- {err:.4f}")
    text = "\n".join(out) + "\n"
    sys.stdout.write(text)
    _write_run(args, text, extra=extra)
    return 0


def _sweep_config(args) -> SweepConfig:
    return SweepConfig(
        theta_scalar=args.theta,
        n_grid=args.n_grid,
        repetitions=args.reps,
        noise=NoiseConfig(lam=args.lam),
        seed=args.seed,
        n_boot=args.boot,
    )


def cmd_simulate(args) -> int:
    cfg = _sweep_config(args)
    start = time.perf_counter()
    # the misalignment is drawn from the master seed's root stream
    povm = perturb_effects(_family_povm(args), args.epsilon,
                           np.random.default_rng(np.random.SeedSequence(args.seed)))
    built = time.perf_counter()
    # the affinity mask is read per run, never frozen into the cached parser
    workers = available_cores() if args.workers is None else args.workers
    result = run_sweep(cfg, povm, workers=workers)
    stage_s = {"povm": built - start, "sweep": time.perf_counter() - built}
    table = sweep_table_text(result)
    _note_outcomes(result.outcomes)
    svg = args.plot and sweep_plot_svg(
        result.as_array(), gm_coefficient=povm.dim - 1,
        model_floor=expected_infidelity_floor(prepared_state(cfg, povm.dim), povm),
        model_coefficient=asymptotic_infidelity_coefficient(povm))
    _write_run(args, table, extra={"rows": len(result.rows), "workers": result.workers,
                                   **result.outcomes, "fallback_rows": result.fallback_rows,
                                   "objective_rows": result.objective_rows,
                                   "stage_s": stage_s}, svg=svg)
    if not args.out:
        sys.stdout.write(table)
    return 0


def cmd_bootstrap(args) -> int:
    check_theta_scalar(args.theta)
    if args.counts is None and args.n < 1:
        raise InvalidInput(f"--n must be >= 1, got {args.n}")
    povm = _family_povm(args)
    rho = depolarize(equal_deviation_state(args.theta, povm.dim), args.lam)
    if args.counts is not None:
        counts = np.asarray(args.counts, dtype=float)
    else:
        counts = sample_counts(born_probabilities(povm, rho), args.n, trial_rng(args.seed, 0, 0))
    start = time.perf_counter()
    res = bootstrap_infidelity(counts, povm, rho, args.boot, trial_rng(args.seed, 0, 0, stream=1))
    estimate_s = time.perf_counter() - start
    lines = ["boot_low,boot_q25,boot_median,boot_q75,boot_high,degenerate",
             ",".join(repr(v) for v in res.as_row()) + f",{int(res.degenerate)}"]
    table = "\n".join(lines) + "\n"
    sys.stdout.write(table)
    _note_outcomes(res.outcomes)
    _write_run(args, table, extra={"resampling": "empirical-frequencies", "workers": 1,
                                   **res.outcomes, "fallback_rows": res.fallback_rows,
                                   "objective_rows": res.objective_rows,
                                   "stage_s": {"estimate": estimate_s}},
               unhashed=("n",) if args.counts is not None else ())
    return 0


def cmd_fit(args) -> int:
    table = read_sweep_table(args.infile)
    fit = _fit(table)
    record = {"coefficient": fit.coefficient, "exponent": fit.exponent,
              "residual": fit.residual, "source": os.path.basename(args.infile),
              "source_hash": config_hash(table.tolist())}
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    _write_run(args, text)
    sys.stdout.write(text)
    return 0


def cmd_report(args) -> int:
    table = read_sweep_table(args.infile)
    lines = [f"sweep report ({len(table)} trials)", "",
             f"{'N':>10}  {'mean infid':>12}  {'median':>12}  {'GM (d-1)/N':>12}  "
             f"{'N*mean infid +/- SE':>21}"]
    for n in np.unique(table[:, 0]):
        sel = table[table[:, 0] == n, 2]
        se = sel.std(ddof=1) / np.sqrt(sel.size) if sel.size > 1 else np.nan
        lines.append(f"{int(n):>10}  {sel.mean():>12.4e}  {np.median(sel):>12.4e}  "
                     f"{gill_massar_wmse(args.dim, n):>12.4e}  {n * sel.mean():>10.4f} +/- {n * se:.4f}")
    fit = _fit(table)
    lines.append("")
    lines.append(f"power-law fit: infidelity ~ {fit.coefficient:.3f} * N^{fit.exponent:.3f} "
                 f"(log-residual RMS {fit.residual:.3f})")
    text = "\n".join(lines) + "\n"
    _write_run(args, text, svg=args.plot and sweep_plot_svg(table, gm_coefficient=args.dim - 1))
    sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointtomo",
        description="Design near-Fisher-symmetric measurements, simulate finite-ensemble "
                    "tomography around a target state, and analyze the precision scaling.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="rank all input families of a device by C norm")
    p.add_argument("--device", default="u7", help=DEVICE_HELP)
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--norm", choices=NORM_KINDS, default="spectral")
    p.add_argument("--starts", type=int, default=32,
                   help="no effect: the C norm does not depend on the input phases")
    p.add_argument("--seed", type=_seed, default=0,
                   help="no effect: the C norm does not depend on the input phases")
    p.add_argument("--out")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("fisher", help="information matrices and C norm of one family")
    _add_family_args(p)
    p.add_argument("--norm", choices=NORM_KINDS, default="spectral")
    p.add_argument("--haar-baseline", type=int, default=0, metavar="SAMPLES")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_fisher)

    def add_sim_args(p):
        _add_family_args(p)
        p.add_argument("--theta", type=float, required=True,
                       help="deviation scalar of the prepared state")
        p.add_argument("--lambda", dest="lam", type=float, default=1.0,
                       help="depolarizing weight of the preparation (1 = noiseless)")
        p.add_argument("--seed", type=_seed, required=True)
        p.add_argument("--boot", type=int, default=0, help="bootstrap replicas per trial")

    p = sub.add_parser("simulate", help="run an infidelity-vs-N sweep")
    add_sim_args(p)
    p.add_argument("--epsilon", type=float, default=0.0,
                   help="systematic misalignment strength (0 disables)")
    p.add_argument("--n-grid", type=_parse_ints, required=True,
                   help="comma separated ensemble sizes, increasing")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--workers", type=int, default=None,
                   help="parallel trial workers (default: available cores)")
    p.add_argument("--out")
    p.add_argument("--plot")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bootstrap", help="bootstrap the infidelity of one trial")
    add_sim_args(p)
    p.set_defaults(boot=100)
    p.add_argument("--n", type=int, default=1000, help="ensemble size of the simulated trial")
    p.add_argument("--counts", type=_parse_ints, default=None,
                   help="use these observed counts instead of simulating")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("fit", help="fit a power law to a sweep table")
    p.add_argument("infile")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("report", help="summarize a sweep table")
    p.add_argument("infile")
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--out")
    p.add_argument("--plot")
    p.set_defaults(func=cmd_report)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built at its first call and kept for the
    process: parsing leaves a parser as it was."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_paths(args)
        code = args.func(args)
        sys.stdout.flush()                   # a closed reader shows here, buffered or not
        return code
    except BrokenPipeError:
        # the reader is gone: nothing to tell it, and a silent interpreter exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (InvalidInput, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except PointTomoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - unexpected
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
