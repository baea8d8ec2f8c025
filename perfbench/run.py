"""pointtomo benchmark: CLI workloads, end-to-end and traced per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload plateau_bootstrap --seed 1 --seconds 50 --trace 0

BENCHMARK.json lists plateau_bootstrap and design_scan. scaling_sweep runs
the same way; it is left out of the list because its figures spread too
much from run to run at this revision (see CHANGES.md), and design_scan's
traced run uses it, at 2 reps per N, as its probe sweep.

The host's speed can change by a factor of 1.8 within a minute, so the timed
end-to-end metrics are given in reference units. While a main call runs, a
timer signal runs a fixed reference search (``ReferenceClock``, benchmark
code only) every half second; its time and CPU are taken out of the call's,
and the median of its passes is the call's reference time. ``items_per_ref``
is items completed per reference time, ``cpu_ref_per_item`` CPU time per item
in reference times. ``setup_s`` divides each set-up time by the reference
time measured around it and multiplies by ``REFERENCE_NOMINAL_S``: seconds at
a fixed nominal host speed. Plain items/s, CPU seconds per item and set-up
seconds are printed on readable lines beside them, and the reference time is printed with the
machine facts, so that a slow period of the host can be recognised.

The program is imported from ``src/`` of the same checkout (nothing needs to
be installed) and driven only through ``pointtomo.cli.main`` with CLI
arguments made from the workload table and ``--seed``. With ``--trace 0`` the
workload's main call is repeated for ``--seconds`` and the end-to-end metrics
are reported; with ``--trace 1`` the traced run of ``layers.py`` reports the
per-layer metrics. A traced run does a fixed amount of work before it
measures the tracing overhead for whatever is left of ``--seconds``, so it
may run longer: at ``--seconds 50`` on two cores a traced plateau_bootstrap
run takes 55-100 s at this revision. The environment is inherited as is:
BLAS and OpenMP thread variables are recorded, never set. The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; readable lines
with sample counts and quartiles come before it.

Every call's output is checked, and failed items count in ``failed``:
table row count and infidelity range on the sweeps, the noise floor within
criterion 10's factor of 3, the design winner and Haar baseline of criteria
3 and 4, and byte-identical tables across repeated calls (and, in the traced
run, across worker counts).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.optimize

from layers import WINNER, traced_run

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
REFERENCE_INTERVAL_S = 0.5
# setup_s is given in seconds at a nominal host speed, at which one reference
# pass takes this long (it took 19-37 ms on two cores of the host used here).
REFERENCE_NOMINAL_S = 0.025

# A separate interpreter measures set-up as a user pays it: process start,
# imports, the device matrix and the {4,5,6,7} POVM.
SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import pointtomo.cli
from pointtomo.assets import seven_port_matrix
from pointtomo.povm import effects_from_family, load_mbs
effects_from_family(load_mbs(seven_port_matrix()), (4, 5, 6, 7))
print("ready", flush=True)
"""

END_TO_END = ("setup_s", "items_per_ref", "cpu_ref_per_item", "peak_rss_mb")


def import_program():
    """Import pointtomo from this checkout's ``src``, or exit with an error."""
    sys.path.insert(0, str(SRC))
    try:
        import pointtomo.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import pointtomo from {SRC}: {exc}")
    if SRC.resolve() not in Path(pointtomo.cli.__file__).resolve().parents:
        sys.exit(f"perfbench: pointtomo was imported from {pointtomo.cli.__file__}, "
                 f"not from {SRC}")
    return pointtomo


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """The larger of this process's peak RSS and its largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class ReferenceClock:
    """Times a fixed small phase search in numpy and scipy, never the program.

    The search is Nelder-Mead over six phases for the least spectral norm of
    a 7 x 7 complex matrix: the same kind of work as the program's calls, so
    a slow period of the host lengthens both by about the same factor. Its
    passes, run between a call's own bytecodes, follow the host through the
    call: on two cores, over 20-second windows, the program's work per
    reference pass varied by 6-8% while its plain time varied by 1.8x.
    """

    def __init__(self):
        self._b = np.random.default_rng(0).standard_normal((7, 14)).view(complex)
        self.samples, self.wall, self.cpu = [], 0.0, 0.0

    def _norm(self, x):
        d = np.exp(1j * np.concatenate([[0.0], x]))
        return np.linalg.norm((self._b * d) @ self._b.conj().T, 2)

    def pass_s(self) -> float:
        """Seconds for one search."""
        t0 = time.perf_counter()
        scipy.optimize.minimize(self._norm, np.zeros(6), method="Nelder-Mead",
                                options={"maxfev": 400, "xatol": 0.0, "fatol": 0.0})
        return time.perf_counter() - t0

    def _tick(self, signum, frame):
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        self.samples.append(self.pass_s())
        self.wall += time.perf_counter() - t0
        self.cpu += cpu_seconds() - cpu0

    @contextlib.contextmanager
    def running(self):
        """Sample once now, then every REFERENCE_INTERVAL_S from a SIGALRM timer.

        ``wall`` and ``cpu`` add up the timer's passes only, which all fall
        inside the ``with`` block.
        """
        self.samples, self.wall, self.cpu = [self.pass_s()], 0.0, 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_INTERVAL_S, REFERENCE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them; a lone value repeats."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cli_call(pt, argv):
    """Run ``pointtomo.cli.main(argv)``; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pt.cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


@dataclass
class CallResult:
    """One main call: its cost, item accounting, output and quality figures."""

    wall: float
    cpu: float
    items: int
    failed: int
    output: str
    quality: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    table: np.ndarray | None = None   # parsed sweep table
    ref: float = 0.0                  # median ReferenceClock pass during the call


def timed(fn, clock=None):
    """(fn(), wall seconds, CPU seconds) of one call.

    With a ``clock``, its reference passes run during the call and their
    time and CPU are taken out.
    """
    if clock is None:
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        value = fn()
        return value, time.perf_counter() - t0, cpu_seconds() - cpu0
    with clock.running():
        value, wall, cpu = timed(fn)
    return value, wall - clock.wall, cpu - clock.cpu


@dataclass(frozen=True)
class SweepWorkload:
    """``pointtomo simulate`` over an N grid; an item is one estimate."""

    name: str
    theta: float
    lam: float
    n_grid: tuple
    reps: int
    boot: int
    workers: int

    @property
    def trials(self) -> int:
        return len(self.n_grid) * self.reps

    @property
    def items(self) -> int:
        return self.trials * (1 + self.boot)

    def argv(self, seed, workers, out):
        return ["simulate", "--theta", repr(self.theta), "--lambda", repr(self.lam),
                "--n-grid", ",".join(str(n) for n in self.n_grid),
                "--reps", self.reps, "--boot", self.boot, "--seed", seed,
                "--workers", workers, "--out", out]

    def config(self, pt, seed):
        return pt.SweepConfig(theta_scalar=self.theta, n_grid=self.n_grid,
                              repetitions=self.reps, noise=pt.NoiseConfig(lam=self.lam),
                              seed=seed, n_boot=self.boot)

    def trace_sweep(self, table):
        """The sweep a traced run measures at 1 and nproc workers: this one."""
        return self

    def prepare(self, pt, seed):
        """Untimed per-run work: a warm-up call and, for a noisy state, the floor."""
        cli_call(pt, ["simulate", "--theta", repr(self.theta), "--n-grid", self.n_grid[0],
                      "--seed", seed, "--workers", 1])
        if self.lam == 1.0:
            return {}
        povm = pt.effects_from_family(pt.load_mbs(pt.assets.seven_port_matrix()), WINNER)
        rho = pt.prepared_state(self.config(pt, seed), povm.dim)
        return {"floor": pt.expected_infidelity_floor(rho, povm)}

    def call(self, pt, seed, context, workers=None, clock=None):
        workers = self.workers if workers is None else workers
        out = WORK / f"{self.name}-w{workers}.csv"
        out.unlink(missing_ok=True)
        (code, _, stderr), wall, cpu = timed(
            lambda: cli_call(pt, self.argv(seed, workers, out)), clock)
        return CallResult(wall, cpu, *self._check(pt, code, stderr, out, context))

    def _check(self, pt, code, stderr, out, context):
        per_trial = 1 + self.boot
        if code != 0:
            return self.items, self.items, "", {}, [f"exit code {code}: {stderr.strip()}"]
        text = out.read_text(encoding="utf-8")
        try:
            table = np.array([[float(x) for x in line.split(",")]
                              for line in text.splitlines()[1:]]).reshape(-1, 8)
        except ValueError as exc:
            return self.items, self.items, text, {}, [f"unreadable table: {exc}"]
        problems, bad = [], 0
        missing = abs(self.trials - len(table))
        if missing:
            problems.append(f"{len(table)} rows instead of {self.trials}")
        cols = table[:, 2:] if self.boot else table[:, 2:3]
        bad_rows = ~np.all(np.isfinite(cols) & (cols >= 0.0) & (cols <= 1.0), axis=1)
        if bad_rows.any():
            bad = int(bad_rows.sum())
            problems.append(f"{bad} rows with an infidelity outside [0, 1]")
        failed = (missing + bad) * per_trial
        quality = {}
        means = {n: float(table[table[:, 0] == n, 2].mean()) for n in self.n_grid
                 if np.any(table[:, 0] == n)}
        if len(means) == len(self.n_grid):
            if "floor" in context:
                ratio = means[self.n_grid[-1]] / context["floor"]
                quality["floor_gap"] = abs(ratio - 1.0)
                if not 1.0 / 3.0 <= ratio <= 3.0:
                    problems.append(f"mean infidelity at N={self.n_grid[-1]} is {ratio:.3f} "
                                    f"x the floor, outside criterion 10's factor of 3")
                    failed = self.items
            else:
                quality["infidelity_x_n"] = statistics.fmean(n * m for n, m in means.items())
        return self.items, min(failed, self.items), text, quality, problems, table


@dataclass(frozen=True)
class DesignWorkload:
    """``pointtomo design`` plus ``fisher --haar-baseline``; an item is one family."""

    name: str
    starts: int
    haar: int
    items = 35   # every 4-of-7 input family

    def trace_sweep(self, table):
        """A two-trial-per-N criterion-9 sweep, so the traced run covers every layer."""
        return dataclasses.replace(table["scaling_sweep"], name="probe_sweep", reps=2)

    def prepare(self, pt, seed):
        cli_call(pt, ["design", "--starts", 0, "--seed", seed])
        cli_call(pt, ["fisher", "--haar-baseline", 100, "--seed", seed])
        return {}

    def call(self, pt, seed, context, workers=None, clock=None):
        out = WORK / f"{self.name}.csv"
        out.unlink(missing_ok=True)

        (design, fisher), wall, cpu = timed(lambda: (
            cli_call(pt, ["design", "--starts", self.starts, "--seed", seed, "--out", out]),
            cli_call(pt, ["fisher", "--subset", "4,5,6,7", "--haar-baseline", self.haar,
                          "--seed", seed])), clock)
        return CallResult(wall, cpu, *self._check(design, fisher, out))

    def _check(self, design, fisher, out):
        problems = [f"{cmd} exit code {code}: {err.strip()}"
                    for cmd, (code, _, err) in (("design", design), ("fisher", fisher))
                    if code != 0]
        if problems:
            return self.items, self.items, "", {}, problems
        text = out.read_text(encoding="utf-8")
        rows = [line.split(",") for line in text.splitlines()[1:]]
        haar = [ln for ln in fisher[1].splitlines() if ln.startswith("Haar baseline")]
        try:
            bad = sum(1 for r in rows if not float(r[2]) <= float(r[1]) + 1e-6)
            haar_mean = float(haar[0].split(":")[1].split()[0])
            winners = [(r[0], float(r[2])) for r in rows if r[4] == "1"]
        except (ValueError, IndexError) as exc:
            return self.items, self.items, text, {}, [f"unreadable design output: {exc}"]
        failed = bad + abs(self.items - len(rows))
        if failed:
            problems.append(f"{len(rows)} families listed, {bad} with a non-finite or "
                            f"worse-than-zero-phase optimized norm")
        quality = {"winner_c_norm": winners[0][1]} if len(winners) == 1 else {}
        if not (len(winners) == 1 and winners[0][0] == "4567"
                and 0.61 <= winners[0][1] <= 0.65):
            problems.append(f"design winner {winners} is not 4567 with ||C|| in [0.61, 0.65]")
            failed = self.items
        if not 0.913 <= haar_mean <= 0.933:
            problems.append(f"Haar mean {haar_mean} outside [0.913, 0.933]")
            failed = self.items
        return self.items, failed, text + fisher[1], quality, problems


def workloads(tiny: bool) -> dict:
    """The benchmark's workloads; ``tiny`` shrinks them for the self-test."""
    reps = 1 if tiny else None
    return {w.name: w for w in (
        # Criterion-9 settings: many small trials, almost pure estimator time, no pool.
        SweepWorkload("scaling_sweep", 0.01, 1.0, (100, 1000, 10_000, 100_000),
                      reps=reps or 10, boot=0, workers=1),
        # Criterion-10 settings: an off-model noisy state, each trial a serial chain
        # of 1 + 10 estimates (10 is the fewest bootstrap_infidelity accepts).
        SweepWorkload("plateau_bootstrap", 0.2, 0.987, (10_000, 100_000, 1_000_000),
                      reps=reps or 4, boot=10, workers=1),
        # povm and fisher only: 35 families x 33 Nelder-Mead starts, 10^4 Haar draws.
        DesignWorkload("design_scan", starts=1 if tiny else 32,
                       haar=2000 if tiny else 10_000),
    )}


def machine_facts() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        rev = subprocess.run(["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = ""
    facts = {"nproc": NPROC, "python": platform.python_version(),
             "numpy": np.__version__, "scipy": scipy.__version__,
             "blas": f"{blas.get('name')} {blas.get('version')}",
             "git_rev": rev or "unavailable",
             "loadavg_at_start": " ".join(f"{x:.2f}" for x in os.getloadavg())}
    facts.update({var: os.environ.get(var, "unset") for var in THREAD_VARS})
    return facts


def measure_setup(repeats: int) -> tuple:
    """(nominal, wall) seconds from process start until the POVM is ready.

    Children start one at a time. Each wall time is also divided by the mean
    reference time measured just before and just after it, and scaled to the
    nominal host speed of ``REFERENCE_NOMINAL_S``.
    """
    clock = ReferenceClock()

    def reference():
        return statistics.median(clock.pass_s() for _ in range(3))

    walls, nominal, before = [], [], reference()
    for _ in range(repeats):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True) as child:
            line = child.stdout.readline().strip()
            walls.append(time.perf_counter() - t0)
            child.stdout.read()
        if line != "ready" or child.returncode != 0:
            sys.exit(f"perfbench: set-up child failed (exit code {child.returncode})")
        after = reference()
        nominal.append(walls[-1] / ((before + after) / 2.0) * REFERENCE_NOMINAL_S)
        before = after
    return nominal, walls


def repeat_calls(workload, pt, seed, context, seconds) -> list:
    """Repeat the main call while the next one is expected to end within ``seconds``."""
    calls, clock = [], ReferenceClock()
    start = time.perf_counter()
    while True:
        call = workload.call(pt, seed, context, clock=clock)
        call.ref = statistics.median(clock.samples)
        calls.append(call)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(c.wall for c in calls) > seconds:
            return calls


def check_repeats(calls):
    """Calls with the same seed must reproduce the first call's output byte for byte."""
    for call in calls[1:]:
        if call.output != calls[0].output and not call.failed:
            call.failed = call.items
            call.problems.append("output differs from the first call with the same seed")


def end_to_end(workload, pt, seed, seconds, setup) -> tuple:
    context = workload.prepare(pt, seed)
    calls = repeat_calls(workload, pt, seed, context, seconds)
    check_repeats(calls)
    n_calls = f"{len(calls)} calls"
    nominal, walls = setup
    rows = [("setup_s", quartiles(nominal), "s", f"{len(nominal)} starts"),
            ("items_per_ref", quartiles(c.items * c.ref / c.wall for c in calls), "1/ref",
             n_calls),
            ("cpu_ref_per_item", quartiles(c.cpu / c.ref / c.items for c in calls), "ref",
             n_calls),
            ("peak_rss_mb", peak_rss_mb(), "MB", "1 process tree"),
            ("items_per_s", quartiles(c.items / c.wall for c in calls), "1/s", n_calls),
            ("cpu_s_per_item", quartiles(c.cpu / c.items for c in calls), "s", n_calls),
            ("setup_wall_s", quartiles(walls), "s", f"{len(walls)} starts"),
            ("reference_s", quartiles(c.ref for c in calls), "s", n_calls)]
    attempted = sum(c.items for c in calls)
    failed = sum(c.failed for c in calls)
    rows.append(("failed_frac", failed / attempted, "-", f"{attempted} items"))
    for name, value in calls[0].quality.items():
        rows.append((name, value, "-", "first call"))
    return rows, calls


def print_rows(title, rows):
    """One readable line per metric: a single value, or median and quartiles."""
    print(f"# {title}")
    print(f"#   {'metric':<38} {'value':>12} {'q1':>12} {'q3':>12}  unit   n")
    for name, value, unit, n in rows:
        q1, med, q3 = value if isinstance(value, tuple) else ("-", value, "-")
        cells = " ".join(f"{q:>12}" if q == "-" else f"{q:>12.6g}" for q in (med, q1, q3))
        print(f"#   {name:<38} {cells}  {unit:<6} {n}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (benchmark self-test only)")
    args = parser.parse_args(argv)
    table = workloads(args.tiny)
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(table)}")
    workload = table[args.workload]

    facts = machine_facts()
    pt = import_program()
    WORK.mkdir(exist_ok=True)
    clock = ReferenceClock()
    facts["reference_s_at_start"] = f"{statistics.median(clock.pass_s() for _ in range(5)):.5f}"
    print("# machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"# workload {workload.name}: seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} items/call={workload.items}")

    if args.trace:
        rows, calls, metrics = traced_run(workload, table, pt, args.seed, args.seconds,
                                           NPROC, WORK)
        print_rows("per-layer metrics (traced run)", rows)
    else:
        setup = measure_setup(2 if args.tiny else SETUP_REPEATS)
        rows, calls = end_to_end(workload, pt, args.seed, args.seconds, setup)
        print("# seconds per call: " + " ".join(f"{c.wall:.3f}" for c in calls))
        print_rows("end-to-end metrics", rows)
        metrics = {name: {"value": value[1] if isinstance(value, tuple) else value,
                          "unit": unit}
                   for name, value, unit, _ in rows if name in END_TO_END}
    for call in calls:
        for problem in call.problems:
            print(f"# FAILED CHECK: {problem}")
    attempted = sum(c.items for c in calls)
    failed = sum(c.failed for c in calls)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
